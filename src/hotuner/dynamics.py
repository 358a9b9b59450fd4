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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .databuffer import DataAggregates, DataBuffer, data_aggregates, data_term
from .signals import RegressorSignal

__all__ = [
    "BASELINE_KINDS",
    "BUFFER_KINDS",
    "Gains",
    "HIGH_ORDER_KINDS",
    "KINDS",
    "KindSpec",
    "POINTWISE_KINDS",
    "RATE_CONDITION_KINDS",
    "SOFT_RESET_KINDS",
    "SystemKind",
    "TunerState",
    "grad_L",
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
    """How one kind assembles its field from the shared terms (see _rhs_arrays).

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

def grad_L(phi_t, y_star_t: float, theta) -> np.ndarray:
    """Gradient of the instantaneous squared prediction error, phi (phi' theta - y*)."""
    phi_t = np.asarray(phi_t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return phi_t * (float(phi_t @ theta) - y_star_t)


def _data_mu(kind: SystemKind, gains: Gains) -> float:
    """mu in the data-term weights 1 / (1 + mu |phi_k|^2)."""
    return gains.mu if KINDS[kind].data_mu else 0.0


def _data_for(
    kind: SystemKind, buffer: DataBuffer | None, gains: Gains
) -> DataAggregates | None:
    """Aggregates of the whole buffer as the kind reads them; None if it reads none."""
    if kind in BUFFER_KINDS and buffer is not None and len(buffer):
        return data_aggregates(buffer, _data_mu(kind, gains))
    return None


def _rhs_arrays(
    kind: SystemKind,
    theta: np.ndarray,
    vartheta: np.ndarray,
    phi: np.ndarray,
    y_star: float,
    nt: float,
    data: DataAggregates | None,
    gains: Gains,
) -> tuple[np.ndarray, np.ndarray]:
    """Derivative (dtheta/dt, dvartheta/dt) of any kind, on raw arrays.

    nt is N_t at phi and data holds the buffer aggregates weighted for this
    kind (see _data_mu), or None for an empty buffer. An absent term is
    skipped rather than added as zero, and a soft-reset pull that is off is
    not added either, which keeps the sign of every zero component.
    """
    spec = KINDS[kind]
    drive = None
    if spec.grad is not None:
        grad = phi * (float(phi @ theta) - y_star)
        drive = grad / nt if spec.grad < 0 else grad
    if spec.data is not None:
        if data is None:
            raise ValueError(f"system '{kind.value}' requires a nonempty data buffer")
        correction = data_term(data, theta)
        if spec.data > 0:
            correction = nt * correction
        drive = correction if drive is None else drive + correction
    gain = 1.0 if spec.unit_gain else gains.gamma / nt if spec.gain_nt else gains.gamma
    drive = -gain * drive
    if not spec.high_order:
        return drive, np.zeros_like(theta)
    gap = theta - vartheta
    dtheta = -gains.beta * (nt if spec.theta_nt else 1.0) * gap
    if spec.reset:
        # The pull switches on when vartheta - theta leads uphill along the
        # loss gradient; at the switching surface (indicator 0) it is off.
        indicator = float((vartheta - theta) @ grad)
        if not spec.theta_nt:
            indicator /= nt
        if indicator > 0.0 and gains.beta_r > 0.0:
            pull = -(2.0 * gains.beta_r) * gap
            if spec.theta_nt:
                pull = pull * nt
            dtheta = dtheta + pull
    return dtheta, drive


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
    return _rhs_arrays(
        kind, state.theta, state.vartheta, phi, y_star, normalization(phi, gains.mu),
        _data_for(kind, buffer, gains), gains,
    )
