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
from dataclasses import dataclass

import numpy as np

from .databuffer import DataBuffer, data_aggregates, p_matrix
from .dynamics import (
    BASELINE_KINDS,
    BUFFER_KINDS,
    KINDS,
    POINTWISE_KINDS,
    RATE_CONDITION_KINDS,
    Gains,
    SystemKind,
    TunerState,
    _data_for,
    compile_field,
    normalization,
    rhs,
)
from .integrator import Trajectory
from .signals import (
    DEFAULT_QUADRATURE_STEP,
    RegressorSignal,
    _moments,
    _trapezoid,
    _window_grams,
)

__all__ = [
    "CertificateReport",
    "ErrorCoords",
    "POINTWISE_TOLERANCE",
    "check_decrease_along",
    "check_decrease_pointwise",
    "decrease_margin",
    "energy_matrix",
    "error_field",
    "estimate_decay_rate",
    "lyapunov_along",
    "matrosov_check",
]

POINTWISE_TOLERANCE = 1e-9
# Allowed per-step V growth along a trajectory is SLACK_COEFF * h * (1 + V).
SLACK_COEFF = 10.0
# Discarding the integral tail beyond this horizon changes the auxiliary
# function by at most exp(-30) M^2 |theta_tilde|^2, far below tolerance.
MIN_MATROSOV_TRUNCATION = 30.0


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


def energy_matrix(
    kind: SystemKind, gains: Gains, n: int, p_mu: np.ndarray | None = None
) -> np.ndarray:
    """Matrix Q of the kind's certified energy V = x' Q x at x = (theta_tilde, p).

    Without recorded data V is (1/gamma)(|theta_tilde + p|^2 + |p|^2). The
    concurrent-learning kinds add (2/beta) theta_tilde' P_mu theta_tilde; the
    data-only kind halves the base quadratics and adds (gamma/beta) of it.
    A soft-reset kind has the energy of its base kind. grad V = 2 Q x. A stack
    of P_mu matrices (..., n, n) gives the stack of their Q (..., 2n, 2n).
    """
    spec = KINDS[kind]
    if not spec.high_order:
        raise ValueError(f"no certified energy function for '{kind.value}'")
    q = np.kron([[1.0, 1.0], [1.0, 2.0]], np.eye(n))
    if spec.data is None:
        return q / gains.gamma
    if p_mu is None:
        raise ValueError(f"the energy of '{kind.value}' needs the data matrix P_mu")
    p_mu = np.asarray(p_mu, dtype=float)
    if spec.grad is None:
        q, weight = 0.5 * q, gains.gamma / gains.beta
    else:
        q, weight = q / gains.gamma, 2.0 / gains.beta
    q = np.tile(q, p_mu.shape[:-2] + (1, 1))
    q[..., :n, :n] += weight * p_mu
    return q


def _data_matrix(
    kind: SystemKind, buffer: DataBuffer | None, gains: Gains
) -> np.ndarray | None:
    """P_mu of the buffer for the kinds whose energy reads recorded data, else None."""
    if kind not in BUFFER_KINDS:
        return None
    if buffer is None or len(buffer) == 0:
        raise ValueError(f"'{kind.value}' needs a nonempty buffer")
    return p_matrix(buffer, gains.mu)


def error_field(
    kind: SystemKind,
    err: ErrorCoords,
    t: float,
    signal: RegressorSignal,
    gains: Gains,
    buffer: DataBuffer | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Field in error coordinates, (d theta_tilde/dt, d p/dt).

    This is the state field of `rhs` at theta = theta* + theta_tilde and
    vartheta = theta + p, seen through the change of variables:
    (dtheta/dt, dvartheta/dt - dtheta/dt). The decrease bounds assume that
    the buffer of a buffer-driven kind holds samples consistent with theta*.
    """
    state = err.to_state(signal.theta_star)
    d_theta, d_vartheta = rhs(kind, state, t, signal, buffer, gains)
    return d_theta, d_vartheta - d_theta


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


def _margin_at(
    kind: SystemKind,
    signal: RegressorSignal,
    gains: Gains,
    buffer: DataBuffer | None,
    m_bound: float,
):
    """The decrease inequality of one kind, resolved once for many points.

    Returns margin(x, phi, y_star, nt) -> (lhs, rhs) of <grad V, f> <= bound
    at the error state x = (theta_tilde, p) and the signal values phi(t),
    y*(t), N_t. f is error_field evaluated with the compiled field.
    """
    n = signal.dimension
    p_mu = _data_matrix(kind, buffer, gains)
    q = energy_matrix(kind, gains, n, p_mu)
    field = compile_field(kind, gains, n)
    data = _data_for(kind, buffer, gains)
    theta_star = signal.theta_star

    def margin(x, phi, y_star, nt):
        theta_tilde, p = x[:n], x[n:]
        theta = theta_star + theta_tilde
        f = np.empty(2 * n)
        d_theta, d_p = f[:n], f[n:]
        field(theta, theta + p, phi, y_star, nt, data, d_theta, d_p)
        np.subtract(d_p, d_theta, d_p)
        lhs = 2.0 * float((q @ x) @ f)
        return lhs, _decrease_bound(kind, theta_tilde, p, phi, gains, p_mu, m_bound)

    return margin


def decrease_margin(
    kind: SystemKind,
    err: ErrorCoords,
    t: float,
    signal: RegressorSignal,
    gains: Gains,
    buffer: DataBuffer | None = None,
    m_bound: float | None = None,
) -> tuple[float, float]:
    """Return (lhs, rhs) of the decrease inequality <grad V, f> <= bound.

    m_bound defaults to the signal's certified amplitude bound, which only
    matters for the normalized concurrent-learning kind.
    """
    if m_bound is None:
        m_bound = signal.norm_bound()
    margin = _margin_at(kind, signal, gains, buffer, m_bound)
    phi, y_star = signal.eval(t)
    x = np.concatenate((err.theta_tilde, err.p))
    return margin(x, phi, y_star, normalization(phi, gains.mu))


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
    if kind not in POINTWISE_KINDS:
        raise ValueError(f"no pointwise decrease bound for '{kind.value}'")
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1 (got {sample_count})")
    if t_points < 1:
        raise ValueError(f"t_points must be at least 1 (got {t_points})")
    if kind in RATE_CONDITION_KINDS and not gains.rate_condition_ok:
        raise ValueError(
            f"decrease bound for '{kind.value}' is only certified when "
            f"beta >= 2 gamma / mu with mu > 0 "
            f"(got beta={gains.beta}, gamma={gains.gamma}, mu={gains.mu})"
        )
    t_grid = np.linspace(0.0, t_span, t_points)
    inputs = []
    for t in t_grid:
        phi, y_star = signal.eval(float(t))
        inputs.append((phi, y_star, normalization(phi, gains.mu)))
    m_bound = max(float(np.linalg.norm(phi)) for phi, _, _ in inputs)
    margin_at = _margin_at(kind, signal, gains, buffer, m_bound)
    rng = np.random.default_rng(seed)
    violations = 0
    worst = -math.inf
    for i in range(sample_count):
        x = _sample_ball(rng, 2 * signal.dimension, radius)
        lhs, rhs = margin_at(x, *inputs[i % t_points])
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
    n = signal.dimension
    tilde = trajectory.theta - signal.theta_star
    x = np.hstack((tilde, trajectory.vartheta - trajectory.theta))
    if kind not in BUFFER_KINDS:
        q = energy_matrix(kind, gains, n)
        return np.einsum("ri,ij,rj->r", x, q, x)
    if buffer is None or len(buffer) == 0:
        raise ValueError(f"'{kind.value}' needs the buffer that drove the run")
    counts = trajectory.n_samples
    if counts.max() > len(buffer):
        raise ValueError("trajectory refers to more samples than the buffer holds")
    # Prefix data-sum matrices: prefix[m] covers the first m samples, weighted
    # as the field weighs them.
    _, _, weights = data_aggregates(buffer, gains.mu)
    phi = buffer.phi
    terms = weights[:, None, None] * (phi[:, :, None] * phi[:, None, :])
    prefix = np.concatenate((np.zeros((1, n, n)), np.cumsum(terms, axis=0)))
    q = energy_matrix(kind, gains, n, prefix)
    values = np.empty(trajectory.n_rows)
    for m in np.unique(counts):
        rows = counts == m
        values[rows] = np.einsum("ri,ij,rj->r", x[rows], q[m], x[rows])
    return values


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
        computed by trapezoid quadrature with step quadrature_step in
        (0, truncation], truncated at t + truncation, stays below
        -e^{-T} delta |theta_tilde|^2 at sampled states. All t_points kernels
        come from one moment matrix of the e^{-tau}-weighted nodes.
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
    if t_points < 1:
        raise ValueError(f"t_points must be at least 1 (got {t_points})")
    offsets, weights = _trapezoid(truncation, quadrature_step, "truncation")
    if cross_coeff is None:
        cross_coeff = gains.beta * M**2 * (1.0 + gains.mu * M**2)
    n = signal.dimension
    decay = math.exp(-T) * delta
    t_grid = np.linspace(0.0, t_span, t_points)
    moments = _moments(signal, offsets, weights * np.exp(-offsets))
    kernels = _window_grams(signal, t_grid, moments)
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
    """Forward-looking running maximum of values over [t, t + window].

    Row i covers rows i..right-1, right being the first row with time beyond
    times[i] + window, found by the same comparisons as a forward scan. Each
    maximum is read from a sparse table of np.maximum over spans of 2^k rows:
    the two spans of the largest such length that fit cover the window. A
    maximum is one of its operands, so the result is exact.
    """
    count = times.shape[0]
    lengths = np.searchsorted(times, times + window, side="right") - np.arange(count)
    levels = np.frexp(lengths)[1] - 1  # floor(log2(length)), exact for integers
    envelope = np.empty(count)
    table = np.asarray(values, dtype=float)  # table[i] = max(values[i:i + span])
    span = 1
    for level in range(int(levels.max(initial=0)) + 1):
        rows = np.flatnonzero(levels == level)
        envelope[rows] = np.maximum(table[rows], table[rows + lengths[rows] - span])
        table = np.maximum(table[:-span], table[span:])
        span *= 2
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
    if not envelope_window >= 0.0:
        raise ValueError("envelope_window must be nonnegative")
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
