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
    "RATE_CONDITION_KINDS",
    "SOFT_RESET_KINDS",
    "SystemKind",
    "TunerState",
    "field",
    "field_softreset",
    "grad_L",
    "normalization",
    "reset_indicator",
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


BASELINE_KINDS = frozenset(
    {
        SystemKind.BASIC,
        SystemKind.BASIC_CL,
        SystemKind.BASIC_NORMALIZED,
        SystemKind.BASIC_NORMALIZED_CL,
    }
)
SOFT_RESET_KINDS = frozenset(
    {SystemKind.HT_CL_SOFTRESET, SystemKind.HT_NORMALIZED_CL_SOFTRESET}
)
HIGH_ORDER_KINDS = frozenset(
    {
        SystemKind.HT,
        SystemKind.HT_NORMALIZED,
        SystemKind.HT_CL,
        SystemKind.HT_NORMALIZED_CL,
        SystemKind.HT_B,
    }
) | SOFT_RESET_KINDS
# Kinds whose right-hand side reads the data buffer.
BUFFER_KINDS = frozenset(
    {
        SystemKind.BASIC_CL,
        SystemKind.BASIC_NORMALIZED_CL,
        SystemKind.HT_CL,
        SystemKind.HT_NORMALIZED_CL,
        SystemKind.HT_B,
    }
) | SOFT_RESET_KINDS
# Kinds whose decrease certificates assume beta >= 2 gamma / mu.
RATE_CONDITION_KINDS = frozenset(
    {
        SystemKind.HT,
        SystemKind.HT_NORMALIZED,
        SystemKind.HT_CL,
        SystemKind.HT_NORMALIZED_CL,
    }
) | SOFT_RESET_KINDS

_SOFT_BASE = {
    SystemKind.HT_CL_SOFTRESET: SystemKind.HT_CL,
    SystemKind.HT_NORMALIZED_CL_SOFTRESET: SystemKind.HT_NORMALIZED_CL,
}


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
    """mu in the data-term weights 1 / (1 + mu |phi_k|^2); basic_cl weighs every sample 1."""
    return 0.0 if kind is SystemKind.BASIC_CL else gains.mu


def _require_data(kind: SystemKind, data: DataAggregates | None) -> DataAggregates:
    if data is None:
        raise ValueError(f"system '{kind.value}' requires a nonempty data buffer")
    return data


def _field_arrays(
    kind: SystemKind,
    theta: np.ndarray,
    vartheta: np.ndarray,
    phi: np.ndarray,
    y_star: float,
    nt: float,
    data: DataAggregates | None,
    gains: Gains,
) -> tuple[np.ndarray, np.ndarray]:
    """Core per-kind derivative on raw arrays.

    nt is N_t at phi and data holds the buffer aggregates weighted for this
    kind (see _data_mu), or None for an empty buffer.
    """
    grad = phi * (float(phi @ theta) - y_star)
    if kind is SystemKind.BASIC:
        return -grad, np.zeros_like(theta)
    if kind is SystemKind.BASIC_CL:
        correction = data_term(_require_data(kind, data), theta)
        return -gains.gamma * (grad + correction), np.zeros_like(theta)
    if kind is SystemKind.BASIC_NORMALIZED:
        return -(gains.gamma / nt) * grad, np.zeros_like(theta)
    if kind is SystemKind.BASIC_NORMALIZED_CL:
        correction = data_term(_require_data(kind, data), theta)
        return -gains.gamma * (grad / nt + correction), np.zeros_like(theta)
    if kind is SystemKind.HT:
        return -gains.beta * nt * (theta - vartheta), -gains.gamma * grad
    if kind is SystemKind.HT_NORMALIZED:
        return -gains.beta * (theta - vartheta), -(gains.gamma / nt) * grad
    if kind is SystemKind.HT_CL:
        correction = data_term(_require_data(kind, data), theta)
        return (
            -gains.beta * nt * (theta - vartheta),
            -gains.gamma * (grad + nt * correction),
        )
    if kind is SystemKind.HT_NORMALIZED_CL:
        correction = data_term(_require_data(kind, data), theta)
        return (
            -gains.beta * (theta - vartheta),
            -gains.gamma * (grad / nt + correction),
        )
    if kind is SystemKind.HT_B:
        correction = data_term(_require_data(kind, data), theta)
        return -gains.beta * (theta - vartheta), -gains.gamma * correction
    raise ValueError(f"soft-reset kind '{kind.value}' is evaluated by field_softreset")


def _indicator_arrays(
    kind: SystemKind,
    theta: np.ndarray,
    vartheta: np.ndarray,
    phi: np.ndarray,
    y_star: float,
    nt: float,
) -> float:
    grad = phi * (float(phi @ theta) - y_star)
    value = float((vartheta - theta) @ grad)
    if kind is SystemKind.HT_NORMALIZED_CL_SOFTRESET:
        value /= nt
    return value


def _softreset_arrays(
    kind: SystemKind,
    theta: np.ndarray,
    vartheta: np.ndarray,
    phi: np.ndarray,
    y_star: float,
    nt: float,
    data: DataAggregates | None,
    gains: Gains,
) -> tuple[np.ndarray, np.ndarray]:
    base = _field_arrays(_SOFT_BASE[kind], theta, vartheta, phi, y_star, nt, data, gains)
    indicator = _indicator_arrays(kind, theta, vartheta, phi, y_star, nt)
    # Selection at the switching surface: sign(0) taken as -1, multiplier 0.
    sign = 1.0 if indicator > 0.0 else -1.0
    multiplier = gains.beta_r * (sign + 1.0)
    if multiplier == 0.0:
        return base
    pull = -multiplier * (theta - vartheta)
    if kind is SystemKind.HT_CL_SOFTRESET:
        pull = pull * nt
    return base[0] + pull, base[1]


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
    if kind in SOFT_RESET_KINDS:
        return _softreset_arrays(kind, theta, vartheta, phi, y_star, nt, data, gains)
    return _field_arrays(kind, theta, vartheta, phi, y_star, nt, data, gains)


def _inputs_at(
    kind: SystemKind,
    t: float,
    signal: RegressorSignal,
    buffer: DataBuffer | None,
    gains: Gains,
) -> tuple[np.ndarray, float, float, DataAggregates | None]:
    """(phi, y*, N_t, data aggregates) at time t, as the integrator precomputes them."""
    phi, y_star = signal.eval(t)
    nt = normalization(phi, gains.mu)
    data = None
    if kind in BUFFER_KINDS and buffer is not None and len(buffer):
        data = data_aggregates(buffer, _data_mu(kind, gains))
    return phi, y_star, nt, data


def field(
    kind: SystemKind,
    state: TunerState,
    t: float,
    signal: RegressorSignal,
    buffer: DataBuffer | None,
    gains: Gains,
) -> tuple[np.ndarray, np.ndarray]:
    """Derivative (dtheta/dt, dvartheta/dt) for the non-switching kinds."""
    if kind in SOFT_RESET_KINDS:
        raise ValueError(f"use field_softreset for '{kind.value}'")
    inputs = _inputs_at(kind, t, signal, buffer, gains)
    return _field_arrays(kind, state.theta, state.vartheta, *inputs, gains)


def reset_indicator(
    kind: SystemKind,
    state: TunerState,
    t: float,
    signal: RegressorSignal,
    gains: Gains,
) -> float:
    """Alignment of (vartheta - theta) with the loss gradient, the reset trigger.

    Positive values mean the companion state leads the estimate uphill, which
    is when the extra pull toward vartheta switches on. The normalized variant
    divides by N_t, matching its normalized gradient.
    """
    if kind not in SOFT_RESET_KINDS:
        raise ValueError(f"'{kind.value}' has no reset indicator")
    phi, y_star, nt, _ = _inputs_at(kind, t, signal, None, gains)
    return _indicator_arrays(kind, state.theta, state.vartheta, phi, y_star, nt)


def field_softreset(
    kind: SystemKind,
    state: TunerState,
    t: float,
    signal: RegressorSignal,
    buffer: DataBuffer | None,
    gains: Gains,
) -> tuple[np.ndarray, np.ndarray]:
    """Derivative for the soft-reset kinds: base field plus the switched pull.

    The pull is beta_r (sign + 1) in strength, so it vanishes whenever the
    indicator is nonpositive and doubles beta_r when it is positive; for the
    unnormalized kind the pull carries the same N_t factor as its theta row.
    """
    if kind not in SOFT_RESET_KINDS:
        raise ValueError(f"'{kind.value}' is not a soft-reset kind; use field")
    inputs = _inputs_at(kind, t, signal, buffer, gains)
    return _softreset_arrays(kind, state.theta, state.vartheta, *inputs, gains)


def rhs(
    kind: SystemKind,
    state: TunerState,
    t: float,
    signal: RegressorSignal,
    buffer: DataBuffer | None,
    gains: Gains,
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch to field or field_softreset based on the kind."""
    inputs = _inputs_at(kind, t, signal, buffer, gains)
    return _rhs_arrays(kind, state.theta, state.vartheta, *inputs, gains)
