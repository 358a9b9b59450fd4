"""The certificate sweeps as array passes against the per-point loops they replace.

The oracles below are the point-by-point check_decrease_pointwise and
matrosov_check as they were before the sweeps ran on arrays: one ball sample,
one field call and one bound per point. The array passes draw the same random
stream and round every row as a single point does, so their reports must match
the oracles' CSV text exactly.
"""

import math

import numpy as np
import pytest

from hotuner import (
    POINTWISE_KINDS,
    DataBuffer,
    Gains,
    RegressorSignal,
    SystemKind,
    check_decrease_pointwise,
    check_pe,
    energy_matrix,
    matrosov_check,
    p_matrix,
)
from hotuner.certificates import CertificateReport, _decrease_sides, _matrosov_moments
from hotuner.dynamics import BUFFER_KINDS, _data_for
from hotuner.signals import _window_grams
from oracles import eval_at, make_constant, mix3, normalization, phi_at, reference_field

GAINS = Gains(beta=1.0, gamma=0.1, mu=0.2)
TOLERANCE = 1e-9
PI = np.pi


def oracle_sample_ball(rng, dim, radius):
    direction = rng.standard_normal(dim)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros(dim)
    scale = radius * rng.uniform() ** (1.0 / dim)
    return direction * (scale / norm)


def oracle_bound(kind, theta_tilde, p, phi, gains, p_mu, m_bound):
    p_sq = float(p @ p)
    e_y = float(phi @ theta_tilde)
    if kind is SystemKind.HT:
        return -(2.0 * gains.beta / gains.gamma) * p_sq - e_y * e_y
    if kind is SystemKind.HT_NORMALIZED:
        nt = 1.0 + gains.mu * float(phi @ phi)
        return (-(2.0 * gains.beta / gains.gamma) * p_sq - e_y * e_y) / nt
    quad = float(theta_tilde @ (p_mu @ theta_tilde))
    if kind is SystemKind.HT_CL:
        return -2.0 * quad - (2.0 * gains.beta / gains.gamma) * p_sq
    if kind is SystemKind.HT_NORMALIZED_CL:
        cap = 1.0 + gains.mu * m_bound**2
        return -2.0 * quad - (2.0 * gains.beta / (gains.gamma * cap)) * p_sq
    return -gains.gamma * quad - gains.beta * p_sq


def oracle_margin_at(kind, signal, gains, buffer, m_bound):
    """margin(x, phi, y_star, nt) -> (lhs, rhs) of <grad V, f> <= bound at one error state."""
    n = signal.dimension
    p_mu = p_matrix(buffer, gains.mu) if kind in BUFFER_KINDS else None
    q = energy_matrix(kind, gains, n, p_mu)
    field = reference_field(kind, gains, n)
    data = _data_for(kind, buffer, gains)

    def margin(x, phi, y_star, nt):
        theta_tilde, p = x[:n], x[n:]
        theta = signal.theta_star + theta_tilde
        f = np.empty(2 * n)
        d_theta, d_p = f[:n], f[n:]
        field(theta, theta + p, phi, y_star, nt, data, d_theta, d_p)
        np.subtract(d_p, d_theta, d_p)
        lhs = 2.0 * float((q @ x) @ f)
        return lhs, oracle_bound(kind, theta_tilde, p, phi, gains, p_mu, m_bound)

    return margin


def oracle_pointwise(kind, signal, buffer, gains, sample_count=2000, radius=5.0, seed=0,
                     t_span=4.0 * math.pi, t_points=64, tolerance=TOLERANCE):
    inputs = []
    for t in np.linspace(0.0, t_span, t_points):
        phi, y_star = eval_at(signal, float(t))
        inputs.append((phi, y_star, normalization(phi, gains.mu)))
    m_bound = max(float(np.linalg.norm(phi)) for phi, _, _ in inputs)
    margin_at = oracle_margin_at(kind, signal, gains, buffer, m_bound)
    rng = np.random.default_rng(seed)
    violations, worst = 0, -math.inf
    for i in range(sample_count):
        x = oracle_sample_ball(rng, 2 * signal.dimension, radius)
        lhs, rhs = margin_at(x, *inputs[i % t_points])
        margin = lhs - rhs
        if margin > tolerance:
            violations += 1
        if margin > worst:
            worst = margin
    return CertificateReport(sample_count, violations, worst, tolerance)


def oracle_matrosov(signal, T, delta, sample_count=200, seed=0, radius=5.0, t_points=16,
                    t_span=4.0 * math.pi, tolerance=TOLERANCE):
    """The per-point loop; its kernels come from the exact moments, as matrosov_check's do."""
    n = signal.dimension
    decay = math.exp(-T) * delta
    t_grid = np.linspace(0.0, t_span, t_points)
    kernels = _window_grams(signal, t_grid, _matrosov_moments(signal))
    rng = np.random.default_rng(seed)
    violations, worst, checked = 0, -math.inf, 0
    for i in range(sample_count):
        theta_tilde = oracle_sample_ball(rng, 2 * n, radius)[:n]
        v1 = -float(theta_tilde @ (kernels[i % t_points] @ theta_tilde))
        margin = v1 - (-decay * float(theta_tilde @ theta_tilde))
        checked += 1
        if margin > tolerance:
            violations += 1
        worst = max(worst, margin)
    for t in t_grid:
        phi = phi_at(signal, float(t))
        raw = rng.standard_normal(n)
        phi_sq = float(phi @ phi)
        if phi_sq > 0.0:
            raw = raw - (float(phi @ raw) / phi_sq) * phi
        norm = float(np.linalg.norm(raw))
        theta_tilde = raw * (radius / norm) if norm > 1e-9 else np.zeros(n)
        e_y = float(phi @ theta_tilde)
        majorant = -decay * float(theta_tilde @ theta_tilde) + e_y * e_y
        checked += 1
        if majorant > tolerance:
            violations += 1
        worst = max(worst, majorant)
    return CertificateReport(checked, violations, worst, tolerance)


def mix5():
    return RegressorSignal([1, 0.5, 0, 1, -1], [0, 3, 2, 1, 0.5], [0, 1, 2.5, 0.7, 3],
                           [0, 0, 1, 2, 3], [2.0, -1.0, 0.5, 1.5, -0.3])


def buffer_of(signal, times, offset=0.0):
    """Samples of signal at times; offset shifts y* off theta* so the bound can fail."""
    phis, y_stars = signal.eval_grid(np.asarray(times, dtype=float))
    return DataBuffer.from_samples(phis, y_stars + offset, times=times)


@pytest.mark.parametrize("kind", sorted(POINTWISE_KINDS, key=lambda k: k.value))
def test_both_sides_equal_the_per_point_values_row_by_row(kind):
    """Every row, not only the worst: the bound squares e_y as e_y * e_y, which
    differs from a Python float's e_y ** 2 in about one row in a thousand."""
    rng = np.random.default_rng(11)
    for signal in (mix3(), mix5()):
        n = signal.dimension
        buffer = buffer_of(signal, [0.0, 1.0, 2.2, 3.7, 5.1, 6.0], 0.3)
        rows = 3000
        x = rng.uniform(-5.0, 5.0, (rows, 2 * n))
        x[::2, n:] = 0.0  # with p = 0 the bound of ht is -e_y^2 itself
        phi, y_star = signal.eval_grid(rng.uniform(0.0, 20.0, rows))
        nt = np.array([normalization(row, GAINS.mu) for row in phi])
        lhs, rhs = _decrease_sides(kind, x, phi, y_star, nt, signal, GAINS, buffer, 4.5)
        margin_at = oracle_margin_at(kind, signal, GAINS, buffer, 4.5)
        want = [margin_at(x[b], phi[b], float(y_star[b]), float(nt[b])) for b in range(rows)]
        assert lhs.tobytes() == np.array([w[0] for w in want]).tobytes(), kind
        assert rhs.tobytes() == np.array([w[1] for w in want]).tobytes(), kind


SWEEPS = [(2000, 64), (301, 7), (45, 1)]


@pytest.mark.parametrize("kind", sorted(POINTWISE_KINDS, key=lambda k: k.value))
@pytest.mark.parametrize("signal_of", [mix3, mix5])
@pytest.mark.parametrize("offset", [0.0, 0.3])
def test_pointwise_sweep_matches_the_per_point_loop(kind, signal_of, offset):
    signal = signal_of()
    buffer = buffer_of(signal, [0.0, 1.0, 2.2, 3.7, 5.1, 6.0], offset)
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2) if offset == 0.0 else Gains(0.6, 0.1, 0.4)
    for seed in (0, 1, 3, 7):
        for sample_count, t_points in SWEEPS:
            args = (kind, signal, buffer, gains)
            settings = dict(sample_count=sample_count, t_points=t_points, seed=seed)
            want = oracle_pointwise(*args, **settings)
            got = check_decrease_pointwise(*args, **settings)
            assert got.to_csv_line() == want.to_csv_line(), (seed, sample_count, t_points)


def test_pointwise_sweep_finds_what_the_loop_finds():
    """A buffer off theta* breaks the bound near the origin, and both count the same points."""
    signal = mix3()
    buffer = buffer_of(signal, [0.0, 1.0, 2.2], offset=2.0)
    for kind in (SystemKind.HT_CL, SystemKind.HT_B):
        settings = dict(sample_count=500, seed=4, radius=0.5)
        want = oracle_pointwise(kind, signal, buffer, GAINS, **settings)
        got = check_decrease_pointwise(kind, signal, buffer, GAINS, **settings)
        assert want.violations > 0
        assert got.to_csv_line() == want.to_csv_line()


class ZeroDirectionRng:
    """A generator whose k-th standard normal draw is all zeros; the rest pass through."""

    def __init__(self, seed, zero_call):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.calls = 0
        self.zero_call = zero_call

    def standard_normal(self, size=None, out=None):
        draw = self.rng.standard_normal(size, out=out)
        self.calls += 1
        if self.calls == self.zero_call:
            draw[...] = 0.0
        return draw

    def uniform(self):
        return self.rng.uniform()

    def random(self):
        return self.rng.random()


@pytest.mark.parametrize("kind", [SystemKind.HT_CL, SystemKind.HT_B])
def test_zero_direction_gives_the_origin_in_both(monkeypatch, kind):
    """A zero direction draws no uniform. Off theta* the worst margin is set by a
    later point, so a sweep that drew one would report another worst margin."""
    signal = mix3()
    buffer = buffer_of(signal, [0.0, 1.0, 2.2], offset=2.0)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroDirectionRng(seed, 3))
    settings = dict(sample_count=40, t_points=6, radius=0.5)
    want = oracle_pointwise(kind, signal, buffer, GAINS, **settings)
    got = check_decrease_pointwise(kind, signal, buffer, GAINS, **settings)
    assert want.worst_margin > 0.0
    assert got.to_csv_line() == want.to_csv_line()
    # the origin is a point of the sweep: with one sample it is the whole sweep
    monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroDirectionRng(seed, 1))
    origin = check_decrease_pointwise(kind, signal, buffer, GAINS, sample_count=1)
    assert origin.to_csv_line() == oracle_pointwise(kind, signal, buffer, GAINS,
                                                    sample_count=1).to_csv_line()
    assert origin.worst_margin == 0.0
    monkeypatch.setattr(np.random, "default_rng", lambda seed: ZeroDirectionRng(seed, 3))
    settings = dict(T=0.1, delta=50.0, sample_count=30, t_points=4)
    want = oracle_matrosov(signal, **settings)
    got = matrosov_check(signal, **settings)
    assert want.worst_margin > 0.0
    assert got.to_csv_line() == want.to_csv_line()


def sin1():
    return RegressorSignal([0.5], [2.0], [1.3], [0.4], [1.5])


@pytest.mark.parametrize("signal_of", [mix3, mix5, sin1, lambda: make_constant([2.0], [1.0])])
def test_matrosov_matches_the_per_point_loop(signal_of):
    """n = 1 signals take the origin branch (norm <= 1e-9) at every constructed point."""
    signal = signal_of()
    pe = check_pe(signal, T=2.0 * PI, scan_horizon=4.0 * PI)
    for seed in (0, 1, 3, 7):
        for sample_count, t_points in [(200, 16), (37, 5), (10, 1), (0, 3)]:
            settings = dict(T=pe.window_T, delta=pe.delta_hat, seed=seed,
                            sample_count=sample_count, t_points=t_points)
            want = oracle_matrosov(signal, **settings)
            got = matrosov_check(signal, **settings)
            assert got.to_csv_line() == want.to_csv_line(), (seed, sample_count, t_points)


def test_matrosov_fails_where_the_loop_fails():
    """An excitation level above the true one makes V1 exceed its claimed bound."""
    signal = mix3()
    settings = dict(T=0.1, delta=50.0, sample_count=120, t_points=6)
    want = oracle_matrosov(signal, **settings)
    got = matrosov_check(signal, **settings)
    assert want.violations > 0
    assert got.to_csv_line() == want.to_csv_line()
