"""Numerical stability certificates for the tuner family.

Everything here works in error coordinates: the parameter error
theta_tilde = theta - theta* and the companion gap p = vartheta - theta. Each
high-order kind has a quadratic energy function V whose derivative along the
flow is bounded by an explicit nonpositive expression; the checkers sample
states and times, evaluate both sides analytically, and count violations.
A Matrosov-style auxiliary function covers the kinds whose V derivative is
only negative semidefinite, and a decay-rate estimator reads the exponential
envelope off a simulated trajectory.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .databuffer import DataBuffer, p_matrix
from .dynamics import (
    BASELINE_KINDS,
    RATE_CONDITION_KINDS,
    SOFT_RESET_KINDS,
    Gains,
    SystemKind,
    TunerState,
)
from .integrator import Trajectory
from .signals import DEFAULT_QUADRATURE_STEP, RegressorSignal

__all__ = [
    "CertificateReport",
    "ErrorCoords",
    "POINTWISE_TOLERANCE",
    "check_decrease_along",
    "check_decrease_pointwise",
    "decrease_margin",
    "error_field",
    "estimate_decay_rate",
    "lyapunov_along",
    "matrosov_check",
    "v0",
    "v_b",
    "v_cl",
]

POINTWISE_TOLERANCE = 1e-9
# Allowed per-step V growth along a trajectory is SLACK_COEFF * h * (1 + V).
SLACK_COEFF = 10.0
# Discarding the integral tail beyond this horizon changes the auxiliary
# function by at most exp(-30) M^2 |theta_tilde|^2, far below tolerance.
MIN_MATROSOV_TRUNCATION = 30.0

_POINTWISE_KINDS = frozenset(
    {
        SystemKind.HT,
        SystemKind.HT_NORMALIZED,
        SystemKind.HT_CL,
        SystemKind.HT_NORMALIZED_CL,
        SystemKind.HT_B,
    }
)
_CL_KINDS = frozenset(
    {SystemKind.HT_CL, SystemKind.HT_NORMALIZED_CL} | SOFT_RESET_KINDS
)


@dataclass
class ErrorCoords:
    """Error state (theta_tilde, p) = (theta - theta*, vartheta - theta)."""

    theta_tilde: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        self.theta_tilde = np.asarray(self.theta_tilde, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.theta_tilde.shape != self.p.shape or self.theta_tilde.ndim != 1:
            raise ValueError("theta_tilde and p must be 1-d vectors of equal length")

    @staticmethod
    def from_state(state: TunerState, theta_star) -> "ErrorCoords":
        theta_star = np.asarray(theta_star, dtype=float)
        return ErrorCoords(
            theta_tilde=state.theta - theta_star,
            p=state.vartheta - state.theta,
        )

    def to_state(self, theta_star) -> TunerState:
        theta_star = np.asarray(theta_star, dtype=float)
        theta = theta_star + self.theta_tilde
        return TunerState(theta=theta, vartheta=theta + self.p)


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate check."""

    checked_points: int
    violations: int
    worst_margin: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_csv_line(self) -> str:
        return (
            f"{self.checked_points},{self.violations},"
            f"{repr(float(self.worst_margin))},{repr(float(self.tolerance))}"
        )


def v0(err: ErrorCoords, gamma: float) -> float:
    """Base energy (1/gamma)(|theta_tilde + p|^2 + |p|^2)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    s = err.theta_tilde + err.p
    return float(s @ s + err.p @ err.p) / gamma


def v_cl(err: ErrorCoords, gains: Gains, p_mu: np.ndarray) -> float:
    """Base energy plus the recorded-data quadratic (2/beta) theta_tilde' P theta_tilde."""
    quad = float(err.theta_tilde @ (p_mu @ err.theta_tilde))
    return v0(err, gains.gamma) + 2.0 * quad / gains.beta


def v_b(err: ErrorCoords, gains: Gains, p_mu: np.ndarray) -> float:
    """Energy for the data-only tuner: halved base quadratics plus (gamma/beta) data term."""
    s = err.theta_tilde + err.p
    quad = float(err.theta_tilde @ (p_mu @ err.theta_tilde))
    return 0.5 * float(s @ s + err.p @ err.p) + gains.gamma * quad / gains.beta


def _grad_v(
    kind: SystemKind, err: ErrorCoords, gains: Gains, p_mu: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the kind's V with respect to (theta_tilde, p)."""
    s = err.theta_tilde + err.p
    if kind in (SystemKind.HT, SystemKind.HT_NORMALIZED):
        g_tilde = (2.0 / gains.gamma) * s
        g_p = (2.0 / gains.gamma) * s + (2.0 / gains.gamma) * err.p
        return g_tilde, g_p
    if kind in (SystemKind.HT_CL, SystemKind.HT_NORMALIZED_CL):
        g_tilde = (2.0 / gains.gamma) * s + (4.0 / gains.beta) * (p_mu @ err.theta_tilde)
        g_p = (2.0 / gains.gamma) * s + (2.0 / gains.gamma) * err.p
        return g_tilde, g_p
    if kind is SystemKind.HT_B:
        g_tilde = s + (2.0 * gains.gamma / gains.beta) * (p_mu @ err.theta_tilde)
        g_p = s + err.p
        return g_tilde, g_p
    raise ValueError(f"no certified energy function for '{kind.value}'")


def _error_field_arrays(
    kind: SystemKind,
    theta_tilde: np.ndarray,
    p: np.ndarray,
    phi: np.ndarray,
    gains: Gains,
    p_mu: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    e_y = float(phi @ theta_tilde)
    grad = phi * e_y
    nt = 1.0 + gains.mu * float(phi @ phi)
    if kind is SystemKind.HT:
        return gains.beta * nt * p, -gains.beta * nt * p - gains.gamma * grad
    if kind is SystemKind.HT_NORMALIZED:
        return gains.beta * p, -gains.beta * p - (gains.gamma / nt) * grad
    if kind is SystemKind.HT_CL:
        drive = gains.gamma * (grad + nt * (p_mu @ theta_tilde))
        return gains.beta * nt * p, -gains.beta * nt * p - drive
    if kind is SystemKind.HT_NORMALIZED_CL:
        drive = gains.gamma * (grad / nt + p_mu @ theta_tilde)
        return gains.beta * p, -gains.beta * p - drive
    if kind is SystemKind.HT_B:
        return gains.beta * p, -gains.beta * p - gains.gamma * (p_mu @ theta_tilde)
    raise ValueError(f"no error-coordinate field for '{kind.value}'")


def error_field(
    kind: SystemKind,
    err: ErrorCoords,
    t: float,
    signal: RegressorSignal,
    gains: Gains,
    p_mu: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Field in error coordinates, (d theta_tilde/dt, d p/dt).

    For the buffer-driven kinds the recorded data enters only through the
    matrix P_mu, which must describe samples consistent with theta*.
    """
    phi = signal.phi(t)
    return _error_field_arrays(kind, err.theta_tilde, err.p, phi, gains, p_mu)


def _decrease_bound(
    kind: SystemKind,
    theta_tilde: np.ndarray,
    p: np.ndarray,
    phi: np.ndarray,
    gains: Gains,
    p_mu: np.ndarray | None,
    m_bound: float | None,
) -> float:
    """Certified upper bound on <grad V, f> at this error state and regressor."""
    p_sq = float(p @ p)
    e_y = float(phi @ theta_tilde)
    if kind is SystemKind.HT:
        return -(2.0 * gains.beta / gains.gamma) * p_sq - e_y**2
    if kind is SystemKind.HT_NORMALIZED:
        nt = 1.0 + gains.mu * float(phi @ phi)
        return (-(2.0 * gains.beta / gains.gamma) * p_sq - e_y**2) / nt
    quad = float(theta_tilde @ (p_mu @ theta_tilde))
    if kind is SystemKind.HT_CL:
        return -2.0 * quad - (2.0 * gains.beta / gains.gamma) * p_sq
    if kind is SystemKind.HT_NORMALIZED_CL:
        if m_bound is None:
            raise ValueError("the normalized CL bound needs an upper bound on |phi|")
        cap = 1.0 + gains.mu * m_bound**2
        return -2.0 * quad - (2.0 * gains.beta / (gains.gamma * cap)) * p_sq
    if kind is SystemKind.HT_B:
        return -gains.gamma * quad - gains.beta * p_sq
    raise ValueError(f"no pointwise decrease bound for '{kind.value}'")


def decrease_margin(
    kind: SystemKind,
    err: ErrorCoords,
    t: float,
    signal: RegressorSignal,
    gains: Gains,
    p_mu: np.ndarray | None = None,
    m_bound: float | None = None,
) -> tuple[float, float]:
    """Return (lhs, rhs) of the decrease inequality <grad V, f> <= bound.

    m_bound defaults to the signal's certified amplitude bound, which only
    matters for the normalized concurrent-learning kind.
    """
    phi = signal.phi(t)
    if m_bound is None:
        m_bound = signal.norm_bound()
    g_tilde, g_p = _grad_v(kind, err, gains, p_mu)
    f_tilde, f_p = _error_field_arrays(kind, err.theta_tilde, err.p, phi, gains, p_mu)
    lhs = float(g_tilde @ f_tilde + g_p @ f_p)
    rhs = _decrease_bound(kind, err.theta_tilde, err.p, phi, gains, p_mu, m_bound)
    return lhs, rhs


def _require_rate_condition(kind: SystemKind, gains: Gains) -> None:
    if kind in RATE_CONDITION_KINDS and not gains.rate_condition_ok:
        raise ValueError(
            f"decrease bound for '{kind.value}' is only certified when "
            f"beta >= 2 gamma / mu with mu > 0 "
            f"(got beta={gains.beta}, gamma={gains.gamma}, mu={gains.mu})"
        )


def _sample_ball(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    direction = rng.standard_normal(dim)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros(dim)
    scale = radius * rng.uniform() ** (1.0 / dim)
    return direction * (scale / norm)


def check_decrease_pointwise(
    kind: SystemKind,
    signal: RegressorSignal,
    buffer: DataBuffer | None,
    gains: Gains,
    sample_count: int = 2000,
    radius: float = 5.0,
    seed: int = 0,
    t_span: float = 4.0 * math.pi,
    t_points: int = 64,
    tolerance: float = POINTWISE_TOLERANCE,
) -> CertificateReport:
    """Sample error states and times and verify the analytic decrease bound.

    States are drawn uniformly from the radius ball in error space, times
    cycle over a grid on [0, t_span]. The bound for the normalized
    concurrent-learning kind uses the largest |phi| seen on that grid, so the
    certified inequality applies at every sampled point exactly.
    """
    if kind not in _POINTWISE_KINDS:
        raise ValueError(f"no pointwise decrease bound for '{kind.value}'")
    _require_rate_condition(kind, gains)
    p_mu = None
    if kind in (SystemKind.HT_CL, SystemKind.HT_NORMALIZED_CL, SystemKind.HT_B):
        if buffer is None or len(buffer) == 0:
            raise ValueError(f"'{kind.value}' needs a nonempty buffer")
        p_mu = p_matrix(buffer, gains.mu)
    n = signal.dimension
    t_grid = np.linspace(0.0, t_span, t_points)
    phis = [signal.phi(float(t)) for t in t_grid]
    m_bound = max(float(np.linalg.norm(phi)) for phi in phis)
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -math.inf
    for i in range(sample_count):
        phi = phis[i % t_points]
        x = _sample_ball(rng, 2 * n, radius)
        theta_tilde, p = x[:n], x[n:]
        g_tilde, g_p = _grad_v(kind, ErrorCoords(theta_tilde, p), gains, p_mu)
        f_tilde, f_p = _error_field_arrays(kind, theta_tilde, p, phi, gains, p_mu)
        lhs = float(g_tilde @ f_tilde + g_p @ f_p)
        rhs = _decrease_bound(kind, theta_tilde, p, phi, gains, p_mu, m_bound)
        margin = lhs - rhs
        if margin > tolerance:
            violations += 1
        if margin > worst:
            worst = margin
    return CertificateReport(
        checked_points=sample_count,
        violations=violations,
        worst_margin=worst,
        tolerance=tolerance,
    )


def lyapunov_along(
    kind: SystemKind,
    trajectory: Trajectory,
    signal: RegressorSignal,
    gains: Gains,
    buffer: DataBuffer | None = None,
) -> np.ndarray:
    """Evaluate the kind's certified energy V at every trajectory row.

    For buffer-driven kinds the data term uses the samples recorded up to each
    row (reconstructed from the final buffer via the per-row sample count), so
    the value matches what the flow was actually driven by at that time.
    """
    if kind in BASELINE_KINDS:
        raise ValueError(f"no certified energy function for '{kind.value}'")
    theta_star = signal.theta_star
    tilde = trajectory.theta - theta_star
    p = trajectory.vartheta - trajectory.theta
    s = tilde + p
    base = ((s**2).sum(axis=1) + (p**2).sum(axis=1)) / gains.gamma
    if kind in (SystemKind.HT, SystemKind.HT_NORMALIZED):
        return base
    if buffer is None or len(buffer) == 0:
        raise ValueError(f"'{kind.value}' needs the buffer that drove the run")
    counts = trajectory.n_samples
    if counts.max() > len(buffer):
        raise ValueError("trajectory refers to more samples than the buffer holds")
    # Prefix data-sum matrices: prefix[m] covers the first m samples.
    n = buffer.dimension
    prefix = np.zeros((len(buffer) + 1, n, n))
    for m, sample in enumerate(buffer.samples, start=1):
        weight = 1.0 / (1.0 + gains.mu * float(sample.phi_k @ sample.phi_k))
        prefix[m] = prefix[m - 1] + weight * np.outer(sample.phi_k, sample.phi_k)
    quad = np.empty(trajectory.n_rows)
    for m in np.unique(counts):
        rows = counts == m
        quad[rows] = np.einsum("ri,ij,rj->r", tilde[rows], prefix[int(m)], tilde[rows])
    if kind is SystemKind.HT_B:
        return 0.5 * gains.gamma * base + gains.gamma * quad / gains.beta
    return base + 2.0 * quad / gains.beta


def check_decrease_along(
    trajectory: Trajectory,
    v_values: np.ndarray,
    step_h: float,
    slack_coeff: float = SLACK_COEFF,
) -> CertificateReport:
    """Flag rows where V grows faster than the discretization allowance.

    The allowance per step is slack_coeff * step_h * (1 + V). Steps at which a
    new sample was recorded are exempt: the recorded-data term of V changes
    discontinuously there, outside the flow the certificate covers.
    """
    v_values = np.asarray(v_values, dtype=float)
    if v_values.shape != trajectory.t.shape:
        raise ValueError("need one V value per trajectory row")
    if trajectory.n_rows < 2:
        return CertificateReport(0, 0, -math.inf, 0.0)
    dv = v_values[1:] - v_values[:-1]
    slack = slack_coeff * step_h * (1.0 + v_values[:-1])
    margin = dv - slack
    flow_steps = trajectory.n_samples[1:] == trajectory.n_samples[:-1]
    checked = int(flow_steps.sum())
    if checked == 0:
        return CertificateReport(0, 0, -math.inf, 0.0)
    margin = margin[flow_steps]
    return CertificateReport(
        checked_points=checked,
        violations=int((margin > 0.0).sum()),
        worst_margin=float(margin.max()),
        tolerance=0.0,
    )


def matrosov_check(
    signal: RegressorSignal,
    gains: Gains,
    T: float,
    delta: float,
    M: float,
    truncation: float = MIN_MATROSOV_TRUNCATION,
    sample_count: int = 200,
    seed: int = 0,
    cross_coeff: float | None = None,
    radius: float = 5.0,
    t_points: int = 16,
    t_span: float = 4.0 * math.pi,
    quadrature_step: float = DEFAULT_QUADRATURE_STEP,
    tolerance: float = POINTWISE_TOLERANCE,
) -> CertificateReport:
    """Check the auxiliary excitation-weighted function used beyond semidefiniteness.

    Two parts, both on a time grid over [0, t_span]:

    (a) V1(x, t) = -theta_tilde' (integral_t^inf e^{t-s} phi phi' ds) theta_tilde,
        computed by quadrature truncated at t + truncation, stays below
        -e^{-T} delta |theta_tilde|^2 at sampled states.
    (b) At constructed points with p = 0 and phi(t)' theta_tilde = 0, the
        derivative majorant -e^{-T} delta |theta_tilde|^2 + e_y^2
        + cross_coeff |theta_tilde| |p| is nonpositive.

    cross_coeff defaults to beta M^2 (1 + mu M^2); pass beta M^2 to check the
    normalized variant's printed form instead.
    """
    if truncation < MIN_MATROSOV_TRUNCATION:
        raise ValueError(f"truncation must be at least {MIN_MATROSOV_TRUNCATION}")
    if delta < 0.0 or M < 0.0 or T <= 0.0:
        raise ValueError("need T > 0 and nonnegative delta, M")
    if cross_coeff is None:
        cross_coeff = gains.beta * M**2 * (1.0 + gains.mu * M**2)
    n = signal.dimension
    decay = math.exp(-T) * delta
    t_grid = np.linspace(0.0, t_span, t_points)
    m = max(1, int(round(truncation / quadrature_step)))
    step = truncation / m
    offsets = step * np.arange(m + 1)
    weights = np.full(m + 1, step)
    weights[0] = weights[-1] = 0.5 * step
    weights = weights * np.exp(-offsets)
    kernels = []
    for t in t_grid:
        phi_nodes = signal.phi_grid(t + offsets)
        kernel = (phi_nodes * weights[:, None]).T @ phi_nodes
        kernels.append(0.5 * (kernel + kernel.T))
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -math.inf
    checked = 0
    for i in range(sample_count):
        idx = i % t_points
        x = _sample_ball(rng, 2 * n, radius)
        theta_tilde = x[:n]
        v1 = -float(theta_tilde @ (kernels[idx] @ theta_tilde))
        margin = v1 - (-decay * float(theta_tilde @ theta_tilde))
        checked += 1
        if margin > tolerance:
            violations += 1
        worst = max(worst, margin)
    for idx, t in enumerate(t_grid):
        phi = signal.phi(float(t))
        raw = rng.standard_normal(n)
        phi_sq = float(phi @ phi)
        if phi_sq > 0.0:
            raw = raw - (float(phi @ raw) / phi_sq) * phi
        norm = float(np.linalg.norm(raw))
        # a residual at rounding level means phi spans the whole space here,
        # so the only orthogonal choice is the origin
        theta_tilde = raw * (radius / norm) if norm > 1e-9 else np.zeros(n)
        e_y = float(phi @ theta_tilde)
        majorant = -decay * float(theta_tilde @ theta_tilde) + e_y**2
        checked += 1
        if majorant > tolerance:
            violations += 1
        worst = max(worst, majorant)
    return CertificateReport(
        checked_points=checked,
        violations=violations,
        worst_margin=worst,
        tolerance=tolerance,
    )


def _upper_envelope(times: np.ndarray, values: np.ndarray, window: float) -> np.ndarray:
    """Forward-looking running maximum of values over [t, t + window]."""
    count = times.shape[0]
    envelope = np.empty(count)
    indices: deque[int] = deque()
    right = 0
    for i in range(count):
        while right < count and times[right] <= times[i] + window:
            while indices and values[indices[-1]] <= values[right]:
                indices.pop()
            indices.append(right)
            right += 1
        while indices and indices[0] < i:
            indices.popleft()
        envelope[i] = values[indices[0]]
    return envelope


def estimate_decay_rate(
    trajectory: Trajectory,
    skip_fraction: float = 0.1,
    envelope_window: float = 2.0 * math.pi,
) -> tuple[float, float, float]:
    """Fit err_norm(t) ~ c * exp(-alpha t) and return (alpha, c, fit quality).

    The fit is a least-squares line through log of the upper envelope (running
    maximum over envelope_window, suppressing excitation-driven oscillation)
    after dropping the initial skip_fraction of rows and any rows with
    err_norm below 1e-13. Fit quality is the coefficient of determination.
    """
    if not 0.0 <= skip_fraction < 1.0:
        raise ValueError("skip_fraction must lie in [0, 1)")
    times = trajectory.t
    values = trajectory.err_norm
    start = int(skip_fraction * times.shape[0])
    times, values = times[start:], values[start:]
    keep = values >= 1e-13
    times, values = times[keep], values[keep]
    # Trailing rows whose window runs past the data would bias the envelope.
    if times.shape[0]:
        full = times <= times[-1] - envelope_window
        if full.sum() >= 10:
            cut = int(np.nonzero(full)[0][-1]) + 1
            envelope = _upper_envelope(times, values, envelope_window)[:cut]
            times = times[:cut]
        else:
            envelope = _upper_envelope(times, values, envelope_window)
    if times.shape[0] < 10:
        raise ValueError("too few usable rows to fit a decay rate")
    log_env = np.log(envelope)
    slope, intercept = np.polyfit(times, log_env, 1)
    residuals = log_env - (slope * times + intercept)
    total = float(((log_env - log_env.mean()) ** 2).sum())
    ss_res = float((residuals**2).sum())
    quality = 1.0 if total <= 1e-30 else 1.0 - ss_res / total
    return float(-slope), float(math.exp(intercept)), quality
