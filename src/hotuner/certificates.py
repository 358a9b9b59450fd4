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
import sys
from dataclasses import dataclass

import numpy as np

from .databuffer import DataBuffer, p_matrix
from .dynamics import (
    BASELINE_KINDS,
    BUFFER_KINDS,
    KINDS,
    POINTWISE_KINDS,
    RATE_CONDITION_KINDS,
    Gains,
    SystemKind,
    _data_for,
    compile_field,
    normalization,
)
from .integrator import Trajectory
from .signals import RegressorSignal, _moments, _window_grams, row_dots

__all__ = [
    "CertificateReport",
    "POINTWISE_TOLERANCE",
    "check_decrease_along",
    "check_decrease_pointwise",
    "decrease_margin",
    "energy_matrix",
    "estimate_decay_rate",
    "lyapunov_along",
    "matrosov_check",
]

POINTWISE_TOLERANCE = 1e-9
# Both sweeps take their times on a grid over [0, SWEEP_SPAN].
SWEEP_SPAN = 4.0 * math.pi
# Allowed per-step V growth along a trajectory is SLACK_COEFF * h * (1 + V).
SLACK_COEFF = 10.0
# The decay fit drops this leading fraction of the rows and takes the upper
# envelope over windows of this length.
DECAY_SKIP_FRACTION = 0.1
ENVELOPE_WINDOW = 2.0 * math.pi
# Sampled points per block of the certificate sweeps; bounds the (B, N)
# scratch of the data term.
_SWEEP_BLOCK = 256
# Below this magnitude a float's square is finite.
_SQUARE_LIMIT = math.sqrt(sys.float_info.max)


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


def _squares(values: np.ndarray) -> np.ndarray:
    """values ** 2 as Python floats square them.

    A Python float ** 2 goes through libm pow, which differs from the correctly
    rounded values * values in about one case in a thousand; the bounds square
    with it, so that every row rounds as the per-point form of the bound.
    Where the square overflows, ** raises and value * value gives inf.
    """
    return np.array([v**2 if abs(v) < _SQUARE_LIMIT else v * v for v in values.tolist()])


def _decrease_bound(
    kind: SystemKind,
    theta_tilde: np.ndarray,
    p: np.ndarray,
    phi: np.ndarray,
    gains: Gains,
    p_mu: np.ndarray | None,
    m_bound: float,
) -> np.ndarray:
    """Certified upper bound on <grad V, f> at error states and regressors, row by row.

    Row b of theta_tilde, p and phi (B, n) gives bound b; each dot product is
    a stacked 1-d dot (signals.row_dots). m_bound bounds |phi| for the
    normalized concurrent-learning kind.
    """
    p_sq = row_dots(p, p)
    if kind is SystemKind.HT or kind is SystemKind.HT_NORMALIZED:
        bound = -(2.0 * gains.beta / gains.gamma) * p_sq - _squares(row_dots(phi, theta_tilde))
        if kind is SystemKind.HT_NORMALIZED:
            bound /= 1.0 + gains.mu * row_dots(phi, phi)
        return bound
    if kind not in POINTWISE_KINDS:
        raise ValueError(f"no pointwise decrease bound for '{kind.value}'")
    quad = row_dots(theta_tilde, np.matmul(p_mu, theta_tilde[:, :, None])[:, :, 0])
    if kind is SystemKind.HT_CL:
        return -2.0 * quad - (2.0 * gains.beta / gains.gamma) * p_sq
    if kind is SystemKind.HT_NORMALIZED_CL:
        cap = 1.0 + gains.mu * m_bound**2
        return -2.0 * quad - (2.0 * gains.beta / (gains.gamma * cap)) * p_sq
    return -gains.gamma * quad - gains.beta * p_sq  # HT_B


def _decrease_sides(
    kind: SystemKind,
    x: np.ndarray,
    phi: np.ndarray,
    y_star: np.ndarray,
    nt: np.ndarray,
    signal: RegressorSignal,
    gains: Gains,
    buffer: DataBuffer | None,
    m_bound: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of <grad V, f> <= bound at error states x = (theta_tilde, p), row by row.

    Row b of x (B, 2n) is taken with phi[b], y*[b] and N_t[b]. f is the
    kind's batched field at theta = theta* + theta_tilde and vartheta =
    theta + p, seen through the change of variables: (dtheta, dvartheta -
    dtheta). q @ x and every dot product are stacked, so each row rounds as
    the same computation at one point. Rows go through in blocks of
    _SWEEP_BLOCK.
    """
    n = signal.dimension
    p_mu = _data_matrix(kind, buffer, gains)
    q = energy_matrix(kind, gains, n, p_mu)
    field = compile_field(kind, gains, n, batched=True)
    data = _data_for(kind, buffer, gains)
    lhs, rhs = np.empty(x.shape[0]), np.empty(x.shape[0])
    for start in range(0, x.shape[0], _SWEEP_BLOCK):
        rows = slice(start, start + _SWEEP_BLOCK)
        block = x[rows]
        theta_tilde, p = block[:, :n], block[:, n:]
        theta = signal.theta_star + theta_tilde
        f = np.empty_like(block)
        d_theta, d_p = f[:, :n], f[:, n:]
        field(theta, theta + p, phi[rows], y_star[rows, None], nt[rows, None], data,
              d_theta, d_p)
        np.subtract(d_p, d_theta, d_p)
        lhs[rows] = 2.0 * row_dots(np.matmul(q, block[:, :, None])[:, :, 0], f)
        rhs[rows] = _decrease_bound(kind, theta_tilde, p, phi[rows], gains, p_mu, m_bound)
    return lhs, rhs


def decrease_margin(
    kind: SystemKind,
    x: np.ndarray,
    t: float,
    signal: RegressorSignal,
    gains: Gains,
    buffer: DataBuffer | None = None,
) -> tuple[float, float]:
    """Return (lhs, rhs) of the decrease inequality <grad V, f> <= bound at x, t.

    x is the (2n,) error state (theta_tilde, p) = (theta - theta*,
    vartheta - theta). The bounds assume that the buffer of a buffer-driven
    kind holds samples consistent with theta*. The normalized
    concurrent-learning kind bounds |phi| by the signal's certified
    amplitude bound, signal.norm_bound().
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2 * signal.dimension,):
        raise ValueError(f"x must be the ({2 * signal.dimension},) error state (theta_tilde, p)")
    phi, y_star = signal.eval(t)
    lhs, rhs = _decrease_sides(
        kind, x[None], phi[None], np.array([y_star]),
        np.array([normalization(phi, gains.mu)]), signal, gains, buffer,
        signal.norm_bound(),
    )
    return float(lhs[0]), float(rhs[0])


def _check_sweep(radius: float) -> None:
    """Refuse a radius under which a sweep could not fail."""
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive (got {radius!r})")


def _sample_ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    """count points drawn uniformly from the radius ball in dim dimensions, (count, dim).

    The draws are made point by point: a standard normal direction, written
    straight into its row, then one uniform u unless the direction's squared
    norm is zero, with u ** (1 / dim) taken as a Python float (np.power may
    round it differently). u comes from rng.random(), which is rng.uniform()
    bit for bit (0 + 1 * u) at a quarter of the cost. The point is
    direction * (radius u^(1/dim) / |direction|), and a zero direction gives
    the origin. Only the arithmetic after the draws runs on arrays.
    """
    points = np.empty((count, dim))
    roots = []
    exponent = 1.0 / dim
    normal, uniform = rng.standard_normal, rng.random
    for direction in points:
        normal(out=direction)
        roots.append(uniform() ** exponent if direction.dot(direction) != 0.0 else 0.0)
    norms = np.sqrt(row_dots(points, points))
    moved = norms != 0.0
    points *= np.divide(radius * np.array(roots), norms, out=np.zeros(count), where=moved)[:, None]
    points[~moved] = 0.0
    return points


def _sweep_report(margins: np.ndarray) -> CertificateReport:
    """Count margins beyond POINTWISE_TOLERANCE; a non-finite margin counts as a violation.

    A NaN margin makes worst_margin NaN, so the report cannot look clean.
    """
    violations = np.count_nonzero((margins > POINTWISE_TOLERANCE) | ~np.isfinite(margins))
    return CertificateReport(
        checked_points=int(margins.shape[0]),
        violations=int(violations),
        worst_margin=float(margins.max()),
        tolerance=POINTWISE_TOLERANCE,
    )


def check_decrease_pointwise(
    kind: SystemKind,
    signal: RegressorSignal,
    buffer: DataBuffer | None,
    gains: Gains,
    sample_count: int = 2000,
    radius: float = 5.0,
    seed: int = 0,
    t_points: int = 64,
) -> CertificateReport:
    """Sample error states and times and verify the analytic decrease bound.

    States are drawn uniformly from the radius ball in error space, times
    cycle over a grid on [0, SWEEP_SPAN]. The bound for the normalized
    concurrent-learning kind uses the largest |phi| seen on that grid, so the
    certified inequality applies at every sampled point exactly. The states
    are drawn one by one (see _sample_ball); then both sides are evaluated at
    all of them as arrays, with each row rounding as at a single point. A
    non-finite margin counts as a violation.
    """
    if kind not in POINTWISE_KINDS:
        raise ValueError(f"no pointwise decrease bound for '{kind.value}'")
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1 (got {sample_count})")
    if t_points < 1:
        raise ValueError(f"t_points must be at least 1 (got {t_points})")
    _check_sweep(radius)
    if kind in RATE_CONDITION_KINDS and not gains.rate_condition_ok:
        raise ValueError(
            f"decrease bound for '{kind.value}' is only certified when "
            f"beta >= 2 gamma / mu with mu > 0 "
            f"(got beta={gains.beta}, gamma={gains.gamma}, mu={gains.mu})"
        )
    phis, y_stars = signal.eval_grid(np.linspace(0.0, SWEEP_SPAN, t_points))
    phi_sq = row_dots(phis, phis)
    m_bound = float(np.sqrt(phi_sq).max())
    x = _sample_ball(np.random.default_rng(seed), sample_count, 2 * signal.dimension, radius)
    at = np.arange(sample_count) % t_points  # point i is taken at grid time i mod t_points
    lhs, rhs = _decrease_sides(
        kind, x, phis[at], y_stars[at], 1.0 + gains.mu * phi_sq[at],
        signal, gains, buffer, m_bound,
    )
    return _sweep_report(lhs - rhs)


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
    _, _, weights = _data_for(kind, buffer, gains)
    phi = buffer.phi
    terms = weights[:, None, None] * (phi[:, :, None] * phi[:, None, :])
    prefix = np.concatenate((np.zeros((1, n, n)), np.cumsum(terms, axis=0)))
    q = energy_matrix(kind, gains, n, prefix)
    # One pass per run of rows with equal counts: counts never decrease, so
    # the runs are the buffer's fill levels.
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(counts)) + 1, [trajectory.n_rows]))
    values = np.empty(trajectory.n_rows)
    for a, b in zip(bounds[:-1], bounds[1:]):
        values[a:b] = np.einsum("ri,ij,rj->r", x[a:b], q[counts[a]], x[a:b])
    return values


def check_decrease_along(
    trajectory: Trajectory,
    v_values: np.ndarray,
    step_h: float,
) -> CertificateReport:
    """Flag rows where V grows faster than the discretization allowance.

    The allowance per step is SLACK_COEFF * step_h * (1 + V). Steps at which a
    new sample was recorded are exempt: the recorded-data term of V changes
    discontinuously there, outside the flow the certificate covers.
    """
    v_values = np.asarray(v_values, dtype=float)
    if v_values.shape != trajectory.t.shape:
        raise ValueError("need one V value per trajectory row")
    if trajectory.n_rows < 2:
        return CertificateReport(0, 0, -math.inf, 0.0)
    dv = v_values[1:] - v_values[:-1]
    slack = SLACK_COEFF * step_h * (1.0 + v_values[:-1])
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


def _matrosov_moments(signal: RegressorSignal) -> np.ndarray:
    """_moments of the weight e^{-tau} on [0, inf)."""
    return _moments(signal, lambda nu: 1.0 / (1.0 + nu**2), lambda nu: nu / (1.0 + nu**2))


def matrosov_check(
    signal: RegressorSignal,
    T: float,
    delta: float,
    sample_count: int = 200,
    seed: int = 0,
    radius: float = 5.0,
    t_points: int = 16,
) -> CertificateReport:
    """Check the auxiliary excitation-weighted function used beyond semidefiniteness.

    Two parts, both on a time grid over [0, SWEEP_SPAN]:

    (a) V1(x, t) = -theta_tilde' (integral_t^inf e^{t-s} phi phi' ds) theta_tilde
        stays below -e^{-T} delta |theta_tilde|^2 at sampled states. All
        t_points kernels come from one moment matrix of the weight e^{-tau}
        on [0, inf), which is exact (see _matrosov_moments).
    (b) At constructed points with p = 0 and phi(t)' theta_tilde = 0, the
        derivative majorant -e^{-T} delta |theta_tilde|^2 + e_y^2 is
        nonpositive. The majorant's cross term in |theta_tilde| |p| vanishes
        at p = 0, so no gain enters it.

    The states of (a) are drawn one by one (see _sample_ball); both parts are
    then evaluated as arrays, each row rounding as at a single point. A
    non-finite margin counts as a violation.
    """
    if delta < 0.0 or T <= 0.0:
        raise ValueError("need T > 0 and nonnegative delta")
    if t_points < 1:
        raise ValueError(f"t_points must be at least 1 (got {t_points})")
    _check_sweep(radius)
    n = signal.dimension
    decay = math.exp(-T) * delta
    t_grid = np.linspace(0.0, SWEEP_SPAN, t_points)
    kernels = _window_grams(signal, t_grid, _matrosov_moments(signal))
    rng = np.random.default_rng(seed)
    theta_tilde = _sample_ball(rng, sample_count, 2 * n, radius)[:, :n]
    kernel_rows = kernels[np.arange(sample_count) % t_points]
    v1 = -row_dots(theta_tilde, np.matmul(kernel_rows, theta_tilde[:, :, None])[:, :, 0])
    sampled = v1 - (-decay * row_dots(theta_tilde, theta_tilde))
    # One (t_points, n) normal draw is the same stream as t_points draws of n.
    phis = signal.phi_grid(t_grid)
    raw = rng.standard_normal((t_points, n))
    phi_sq = row_dots(phis, phis)
    excited = phi_sq > 0.0
    # Where phi_sq is 0, along is 0 and raw stays as drawn.
    along = np.divide(row_dots(phis, raw), phi_sq, out=np.zeros(t_points), where=excited)
    raw = raw - along[:, None] * phis
    norms = np.sqrt(row_dots(raw, raw))
    # a residual at rounding level means phi spans the whole space here,
    # so the only orthogonal choice is the origin (a scale of 0)
    spans = norms > 1e-9
    theta_tilde = raw * np.divide(radius, norms, out=np.zeros(t_points), where=spans)[:, None]
    majorant = -decay * row_dots(theta_tilde, theta_tilde) + _squares(row_dots(phis, theta_tilde))
    return _sweep_report(np.concatenate((sampled, majorant)))


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


def estimate_decay_rate(trajectory: Trajectory) -> tuple[float, float, float]:
    """Fit err_norm(t) ~ c * exp(-alpha t) and return (alpha, c, fit quality).

    The fit is a least-squares line through log of the upper envelope (running
    maximum over ENVELOPE_WINDOW, suppressing excitation-driven oscillation)
    after dropping the initial DECAY_SKIP_FRACTION of rows and any rows with
    err_norm below 1e-13. Fit quality is the coefficient of determination.
    """
    times = trajectory.t
    values = trajectory.err_norm
    start = int(DECAY_SKIP_FRACTION * times.shape[0])
    times, values = times[start:], values[start:]
    keep = values >= 1e-13
    times, values = times[keep], values[keep]
    envelope = _upper_envelope(times, values, ENVELOPE_WINDOW)
    # Trailing rows whose window runs past the data would bias the envelope.
    if times.shape[0]:
        full = times <= times[-1] - ENVELOPE_WINDOW
        if full.sum() >= 10:
            cut = int(np.nonzero(full)[0][-1]) + 1
            times, envelope = times[:cut], envelope[:cut]
    if times.shape[0] < 10:
        raise ValueError("too few usable rows to fit a decay rate")
    log_env = np.log(envelope)
    slope, intercept = np.polyfit(times, log_env, 1)
    residuals = log_env - (slope * times + intercept)
    total = float(((log_env - log_env.mean()) ** 2).sum())
    ss_res = float((residuals**2).sum())
    quality = 1.0 if total <= 1e-30 else 1.0 - ss_res / total
    return float(-slope), float(math.exp(intercept)), quality
