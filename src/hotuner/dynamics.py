"""Right-hand sides of the tuner family.

State is the pair x = (theta, vartheta) of the parameter estimate and its
auxiliary companion. Baseline gradient systems evolve theta only and carry
vartheta as a constant. High-order systems couple the two through the
normalization signal N_t = 1 + mu |phi(t)|^2; concurrent-learning variants add
the recorded-data correction B from the buffer; soft-reset variants add a
state-dependent pull of theta toward vartheta that switches on when the two
disagree about the descent direction.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .databuffer import DataAggregates, DataBuffer, data_aggregates, data_term
from .signals import RegressorSignal, row_dots

__all__ = [
    "BASELINE_KINDS",
    "BUFFER_KINDS",
    "Field",
    "Gains",
    "HIGH_ORDER_KINDS",
    "KINDS",
    "KindSpec",
    "POINTWISE_KINDS",
    "RATE_CONDITION_KINDS",
    "SOFT_RESET_KINDS",
    "SystemKind",
    "TunerState",
    "compile_field",
    "normalization",
    "rhs",
]


class SystemKind(str, Enum):
    """Vocabulary of tuner right-hand sides."""

    BASIC = "basic"
    BASIC_CL = "basic_cl"
    BASIC_NORMALIZED = "basic_normalized"
    BASIC_NORMALIZED_CL = "basic_normalized_cl"
    HT = "ht"
    HT_NORMALIZED = "ht_normalized"
    HT_CL = "ht_cl"
    HT_NORMALIZED_CL = "ht_normalized_cl"
    HT_B = "ht_b"
    HT_CL_SOFTRESET = "ht_cl_softreset"
    HT_NORMALIZED_CL_SOFTRESET = "ht_normalized_cl_softreset"


@dataclass(frozen=True)
class KindSpec:
    """How one kind assembles its field from the shared terms (see compile_field).

    The drive is -gain (grad + data) with the loss gradient grad and the
    recorded-data correction data, each scaled by N_t to the power given here
    (None: the term is absent). The gain is gamma, gamma / N_t with gain_nt,
    or 1 with unit_gain. Baseline kinds apply the drive to theta and keep
    vartheta constant. High-order kinds apply it to vartheta and pull theta
    toward vartheta at rate beta, times N_t with theta_nt. data_mu False
    weighs every recorded sample 1 instead of 1 / (1 + mu |phi_k|^2). reset
    adds the soft-reset pull on theta to the row of its base kind.
    """

    high_order: bool
    grad: int | None
    data: int | None
    theta_nt: bool = False
    gain_nt: bool = False
    unit_gain: bool = False
    data_mu: bool = True
    reset: bool = False


KINDS: dict[SystemKind, KindSpec] = {
    SystemKind.BASIC: KindSpec(False, grad=0, data=None, unit_gain=True),
    SystemKind.BASIC_CL: KindSpec(False, grad=0, data=0, data_mu=False),
    SystemKind.BASIC_NORMALIZED: KindSpec(False, grad=0, data=None, gain_nt=True),
    SystemKind.BASIC_NORMALIZED_CL: KindSpec(False, grad=-1, data=0),
    SystemKind.HT: KindSpec(True, grad=0, data=None, theta_nt=True),
    SystemKind.HT_NORMALIZED: KindSpec(True, grad=0, data=None, gain_nt=True),
    SystemKind.HT_CL: KindSpec(True, grad=0, data=1, theta_nt=True),
    SystemKind.HT_NORMALIZED_CL: KindSpec(True, grad=-1, data=0),
    SystemKind.HT_B: KindSpec(True, grad=None, data=0),
    SystemKind.HT_CL_SOFTRESET: KindSpec(True, grad=0, data=1, theta_nt=True, reset=True),
    SystemKind.HT_NORMALIZED_CL_SOFTRESET: KindSpec(True, grad=-1, data=0, reset=True),
}


def _kinds_where(test) -> frozenset[SystemKind]:
    return frozenset(kind for kind, spec in KINDS.items() if test(spec))


BASELINE_KINDS = _kinds_where(lambda s: not s.high_order)
HIGH_ORDER_KINDS = _kinds_where(lambda s: s.high_order)
SOFT_RESET_KINDS = _kinds_where(lambda s: s.reset)
# Kinds whose right-hand side reads the data buffer.
BUFFER_KINDS = _kinds_where(lambda s: s.data is not None)
# Kinds whose decrease certificates assume beta >= 2 gamma / mu.
RATE_CONDITION_KINDS = _kinds_where(lambda s: s.high_order and s.grad is not None)
# Kinds with a pointwise decrease bound on their energy.
POINTWISE_KINDS = _kinds_where(lambda s: s.high_order and not s.reset)


@dataclass(frozen=True)
class Gains:
    """Gain set (beta, gamma, mu, beta_r) shared by the whole family.

    rate_condition_ok records whether beta >= 2 gamma / mu holds; the decrease
    certificates of the high-order kinds are only proven under that condition,
    but simulation is permitted either way.
    """

    beta: float
    gamma: float
    mu: float
    beta_r: float = 0.0

    def __post_init__(self) -> None:
        for name in ("beta", "gamma", "mu", "beta_r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite (got {getattr(self, name)!r})")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        if self.beta_r < 0.0:
            raise ValueError("beta_r must be nonnegative")

    @property
    def rate_condition_ok(self) -> bool:
        return self.mu > 0.0 and self.beta >= 2.0 * self.gamma / self.mu


@dataclass
class TunerState:
    """Estimate theta and companion vartheta, same dimension."""

    theta: np.ndarray
    vartheta: np.ndarray

    def __post_init__(self) -> None:
        self.theta = np.asarray(self.theta, dtype=float)
        self.vartheta = np.asarray(self.vartheta, dtype=float)
        if self.theta.shape != self.vartheta.shape or self.theta.ndim != 1:
            raise ValueError("theta and vartheta must be 1-d vectors of equal length")

    @staticmethod
    def from_theta0(theta0) -> "TunerState":
        """Standard initialization: vartheta starts equal to theta."""
        theta0 = np.asarray(theta0, dtype=float)
        return TunerState(theta=theta0.copy(), vartheta=theta0.copy())


def normalization(phi_t, mu: float) -> float:
    """Normalization signal N_t = 1 + mu |phi(t)|^2."""
    phi_t = np.asarray(phi_t, dtype=float)
    return 1.0 + mu * float(phi_t @ phi_t)


def _data_for(
    kind: SystemKind, buffer: DataBuffer | None, gains: Gains, count: int | None = None
) -> DataAggregates | None:
    """Aggregates of the buffer's first count samples (default: all) as the kind reads them.

    The data-term weights are 1 / (1 + mu |phi_k|^2), with mu = 0 for a kind
    whose spec has data_mu False. None if the kind reads no data or there is
    none to read.
    """
    spec = KINDS[kind]
    if spec.data is None or buffer is None or len(buffer) == 0 or count == 0:
        return None
    return data_aggregates(buffer, gains.mu if spec.data_mu else 0.0, count)


# A compiled field: (theta, vartheta, phi, y_star, nt, data, dtheta, dvartheta) -> None.
# It writes the derivative into dtheta and dvartheta, which the caller owns;
# a baseline kind, whose vartheta stays constant, leaves dvartheta untouched.
# A batched field takes (B, n) states and outputs (see compile_field).
Field = Callable[
    [np.ndarray, np.ndarray, np.ndarray, float | np.ndarray, float | np.ndarray,
     DataAggregates | None, np.ndarray, np.ndarray],
    None,
]


def compile_field(kind: SystemKind, gains: Gains, n: int, batched: bool = False) -> Field:
    """The field of one kind with one gain set and dimension n, resolved once for many calls.

    The closure takes the state, phi and y* at time t, N_t at phi, the buffer
    aggregates weighted for this kind (see _data_for), or None for an empty
    buffer, and the two output vectors, which must not overlap the inputs.
    It works in place, through its own scratch for the loss gradient and the
    gap theta - vartheta, and holds the constant gains as n-vectors. Each
    operation is the IEEE operation of the allocating formula on the same
    operands (multiplication commutes exactly, and an in-place ufunc rounds as
    an allocating one), so the bits do not depend on where results are
    written. An absent term is skipped rather than added as zero, and a
    soft-reset pull that is off (or has beta_r = 0) is not added either, which
    keeps the sign of every zero component. The 1-d ndarray.dot calls use the
    same dot kernel as a 1-d `@`.

    With batched set the closure evaluates B states at once: theta, vartheta
    and the outputs are (B, n), phi is (B, n) or one (n,) row shared by all
    states, and y* and N_t are (B, 1) columns or scalars. Row b of the output
    equals the unbatched closure at row b, bit for bit. The operations are the
    same; only the dot products differ, being stacked 1-d dots (see
    signals.row_dots), and the soft-reset pull is added through a boolean row
    mask. Its scratch is allocated per call, since B may change.
    """
    spec = KINDS[kind]
    grad_power, data_power = spec.grad, spec.data
    gain_nt, theta_nt = spec.gain_nt, spec.theta_nt
    high_order = spec.high_order
    pulls = spec.reset and gains.beta_r > 0.0
    gamma = gains.gamma
    neg_gain = np.full(n, -1.0 if spec.unit_gain else -gamma)
    neg_beta = -gains.beta
    neg_beta_vec = np.full(n, neg_beta)
    neg_pull = np.full(n, -(2.0 * gains.beta_r))
    scratch = np.empty(n), np.empty(n)
    if batched:
        def dot(a, b):  # a[k] . b[k] as a (B, 1) column; a may be one (n,) row
            return row_dots(b, a)[:, None]
    else:
        dot = np.ndarray.dot
    add, divide, empty_like, multiply, subtract = (
        np.add, np.divide, np.empty_like, np.multiply, np.subtract)
    missing_data = f"system '{kind.value}' requires a nonempty data buffer"

    def field(theta, vartheta, phi, y_star, nt, data, dtheta, dvartheta):
        grad, gap = (empty_like(theta), empty_like(theta)) if batched else scratch
        # The drive is built in the output it ends in; grad keeps the loss
        # gradient undivided for the reset indicator.
        drive = dvartheta if high_order else dtheta
        source = None
        if grad_power is not None:
            multiply(phi, dot(phi, theta) - y_star, grad)
            source = grad
            if grad_power < 0:
                divide(grad, nt, drive)
                source = drive
        if data_power is not None:
            if data is None:
                raise ValueError(missing_data)
            correction = data_term(data, theta, batched)
            if data_power > 0:
                multiply(correction, nt, correction)
            if source is None:
                source = correction
            else:
                add(source, correction, drive)
                source = drive
        if gain_nt:
            multiply(source, -(gamma / nt), drive)
        else:
            multiply(source, neg_gain, drive)
        if not high_order:
            return
        subtract(theta, vartheta, gap)
        if theta_nt:
            multiply(gap, neg_beta * nt, dtheta)
        else:
            multiply(gap, neg_beta_vec, dtheta)
        if pulls:
            # The pull switches on when vartheta - theta leads uphill along the
            # loss gradient; at the switching surface (indicator 0) it is off.
            # gap'grad is exactly -(vartheta - theta)'grad: rounding to nearest
            # is symmetric in sign, so the test below is the same comparison.
            indicator = dot(gap, grad)
            if not theta_nt:
                indicator /= nt
            if batched or indicator < 0.0:
                multiply(gap, neg_pull, gap)
                if theta_nt:
                    multiply(gap, nt, gap)
                if batched:
                    # Rows whose pull is off keep dtheta as written.
                    add(dtheta, gap, dtheta, where=indicator < 0.0)
                else:
                    add(dtheta, gap, dtheta)

    return field


def rhs(
    kind: SystemKind,
    state: TunerState,
    t: float,
    signal: RegressorSignal,
    buffer: DataBuffer | None,
    gains: Gains,
) -> tuple[np.ndarray, np.ndarray]:
    """Derivative (dtheta/dt, dvartheta/dt) of the kind at state and time t.

    The soft-reset pull on theta is 2 beta_r (vartheta - theta), times N_t for
    the unnormalized kind, while (vartheta - theta)' grad L > 0, else 0.
    """
    phi, y_star = signal.eval(t)
    n = state.theta.shape[0]
    dtheta, dvartheta = np.empty(n), np.zeros(n)
    compile_field(kind, gains, n)(
        state.theta, state.vartheta, phi, y_star, normalization(phi, gains.mu),
        _data_for(kind, buffer, gains), dtheta, dvartheta,
    )
    return dtheta, dvartheta
