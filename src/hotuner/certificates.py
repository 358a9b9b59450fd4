"""Numerical stability certificates for the tuner family.

Everything here works in error coordinates: the parameter error
theta_tilde = theta - theta* and the companion gap p = vartheta - theta. Each
high-order kind has a quadratic energy function V whose derivative along the
flow is bounded by an explicit nonpositive expression; the checkers sample
states and times, evaluate both sides analytically, and count violations.
A Matrosov-style auxiliary function covers the kinds whose V derivative is
only negative semidefinite, and a decay-rate estimator reads the exponential
envelope off a simulated trajectory. _certificate_rows decides which of these
checks each kind gets, so the rows that `certify` writes are chosen here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .databuffer import DataBuffer, p_matrix
from .dynamics import (
    KINDS,
    POINTWISE_KINDS,
    RATE_CONDITION_KINDS,
    Gains,
    SystemKind,
    _data_for,
    compile_field,
)
from .integrator import SimConfig, Trajectory
from .signals import PEReport, RegressorSignal, _moments, _window_grams, row_dots

__all__ = [
    "CertificateReport",
    "check_decrease_along",
    "check_decrease_pointwise",
    "energy_matrix",
    "estimate_decay_rate",
    "lyapunov_along",
    "matrosov_check",
]

POINTWISE_TOLERANCE = 1e-9
# Both sweeps take their times on a grid over [0, SWEEP_SPAN].
SWEEP_SPAN = 4.0 * math.pi
# Allowed V growth from one trajectory row to the next is SLACK_COEFF * dt * (1 + V),
# dt = h * k for the k Euler steps of size h between the rows.
SLACK_COEFF = 10.0
# The decay fit drops this leading fraction of the rows and takes the upper
# envelope over windows of this length.
DECAY_SKIP_FRACTION = 0.1
ENVELOPE_WINDOW = 2.0 * math.pi
# Sampled points per block of the certificate sweeps; bounds the (B, N)
# scratch of the data term.
_SWEEP_BLOCK = 256


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate check."""

    checked_points: int
    violations: int
    worst_margin: float
    tolerance: float

    @property
    def passed(self) -> bool:
        """No violation among at least one checked point."""
        return self.violations == 0 and self.checked_points > 0

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
        raise ValueError(f"the energy of '{kind.value}' needs the data matrix P_mu "
                         "of a nonempty buffer")
    p_mu = np.asarray(p_mu, dtype=float)
    if spec.grad is None:
        q, weight = 0.5 * q, gains.gamma / gains.beta
    else:
        q, weight = q / gains.gamma, 2.0 / gains.beta
    q = np.tile(q, p_mu.shape[:-2] + (1, 1))
    q[..., :n, :n] += weight * p_mu
    return q


def _decrease_bound(
    kind: SystemKind,
    theta_tilde: np.ndarray,
    p: np.ndarray,
    phi: np.ndarray,
    gains: Gains,
    nt: np.ndarray,
    p_mu: np.ndarray | None,
    m_bound: float,
) -> np.ndarray:
    """Certified upper bound on <grad V, f> at error states and regressors, row by row.

    Row b of theta_tilde, p and phi (B, n) gives bound b, with N_t at phi[b]
    in nt[b]; each dot product is a stacked 1-d dot (signals.row_dots).
    m_bound bounds |phi| for the normalized concurrent-learning kind.

    The bound is -a e - b |p|^2, over N_t if the gain is. Without recorded
    data, e = (phi' theta_tilde)^2 and a = 1, else e = theta_tilde' P_mu
    theta_tilde and a = gamma (data only) or 2; b = beta (data only) or
    2 beta / (gamma cap), cap = 1 + mu m_bound^2 if data drives a theta row
    without N_t, else 1.
    """
    spec = KINDS[kind]
    if spec.data is None:
        e_y = row_dots(phi, theta_tilde)
        a, e = 1.0, e_y * e_y
    else:
        a = gains.gamma if spec.grad is None else 2.0
        e = row_dots(theta_tilde, np.matmul(p_mu, theta_tilde[:, :, None])[:, :, 0])
    if spec.grad is None:
        b = gains.beta
    else:
        cap = 1.0 if spec.data is None or spec.theta_nt else 1.0 + gains.mu * m_bound**2
        b = 2.0 * gains.beta / (gains.gamma * cap)
    bound = -a * e - b * row_dots(p, p)
    return bound / nt if spec.gain_nt else bound


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
    _SWEEP_BLOCK. Without samples, energy_matrix refuses a data-driven kind.
    """
    n = signal.dimension
    data = _data_for(kind, buffer, gains)
    p_mu = None if data is None else p_matrix(buffer, gains.mu)
    q = energy_matrix(kind, gains, n, p_mu)
    field = compile_field(kind, gains, n)
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
        rhs[rows] = _decrease_bound(kind, theta_tilde, p, phi[rows], gains, nt[rows], p_mu,
                                    m_bound)
    return lhs, rhs


def _check_sweep(t_points: int, radius: float) -> None:
    """Refuse an empty time grid, and a radius under which a sweep could not fail."""
    if t_points < 1:
        raise ValueError(f"t_points must be at least 1 (got {t_points})")
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


def _sweep_report(
    margins: np.ndarray, tolerance: float = POINTWISE_TOLERANCE
) -> CertificateReport:
    """Count margins beyond tolerance; a non-finite margin counts as a violation.

    A NaN margin makes worst_margin NaN, so the report cannot look clean. No
    margins give (0, 0, -inf, tolerance), which does not pass.
    """
    violations = np.count_nonzero((margins > tolerance) | ~np.isfinite(margins))
    return CertificateReport(
        checked_points=int(margins.shape[0]),
        violations=int(violations),
        worst_margin=float(margins.max(initial=-math.inf)),
        tolerance=tolerance,
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
    _check_sweep(t_points, radius)
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
    the value matches what the flow was actually driven by at that time; with
    no samples to read, energy_matrix refuses a kind whose energy needs them.
    """
    n = signal.dimension
    tilde = trajectory.theta - signal.theta_star
    x = np.hstack((tilde, trajectory.vartheta - trajectory.theta))
    data = _data_for(kind, buffer, gains)
    if data is None:  # one fill level
        q, counts = energy_matrix(kind, gains, n)[None], np.zeros(trajectory.n_rows, int)
    else:
        counts = trajectory.n_samples
        if counts.max() > len(buffer):
            raise ValueError("trajectory refers to more samples than the buffer holds")
        # Prefix data-sum matrices: prefix[m] covers the first m samples,
        # weighted as the field weighs them.
        _, _, weights = data
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

    step_h is the Euler step, and a pair of rows k steps apart (k read off the
    row times) may grow by SLACK_COEFF * (step_h * k) * (1 + V), V at the first
    row. Rows at which a new sample was recorded are exempt: the recorded-data
    term of V changes discontinuously there, outside the flow the certificate
    covers. A non-finite margin (V overflowed) counts as a violation, and a
    trajectory without a flow step gets the empty report of _sweep_report.
    """
    v_values = np.asarray(v_values, dtype=float)
    if v_values.shape != trajectory.t.shape:
        raise ValueError("need one V value per trajectory row")
    dv = v_values[1:] - v_values[:-1]
    steps = np.rint(np.diff(trajectory.t) / step_h)
    slack = SLACK_COEFF * (step_h * steps) * (1.0 + v_values[:-1])
    margin = dv - slack
    flow_steps = trajectory.n_samples[1:] == trajectory.n_samples[:-1]
    return _sweep_report(margin[flow_steps], 0.0)


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
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be finite and positive (got {T!r})")
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and nonnegative (got {delta!r})")
    if sample_count < 0:
        raise ValueError(f"sample_count must be nonnegative (got {sample_count})")
    _check_sweep(t_points, radius)
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
    e_y = row_dots(phis, theta_tilde)
    majorant = -decay * row_dots(theta_tilde, theta_tilde) + e_y * e_y
    return _sweep_report(np.concatenate((sampled, majorant)))


def _certificate_rows(
    kind: SystemKind,
    trajectory: Trajectory,
    buffer: DataBuffer,
    signal: RegressorSignal,
    gains: Gains,
    pe: PEReport,
    sim: SimConfig,
) -> list[tuple[str, CertificateReport]]:
    """The (check, report) rows of one run of a high-order kind, in the order written.

    pointwise for the kinds with a pointwise decrease bound, trajectory for
    every high-order kind, then auxiliary for the kinds without a data term,
    whose V derivative is only semidefinite. Reads the run's trajectory and
    buffer and simulates nothing; a baseline kind has no certified energy
    and raises ValueError.
    """
    rows = []
    if kind in POINTWISE_KINDS:
        rows.append(("pointwise",
                     check_decrease_pointwise(kind, signal, buffer, gains, seed=sim.seed)))
    v_values = lyapunov_along(kind, trajectory, signal, gains, buffer)
    rows.append(("trajectory",
                 check_decrease_along(trajectory, v_values, sim.step_h)))
    if KINDS[kind].data is None:
        rows.append(("auxiliary", matrosov_check(signal, T=pe.window_T, delta=pe.delta_hat,
                                                 seed=sim.seed)))
    return rows


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
