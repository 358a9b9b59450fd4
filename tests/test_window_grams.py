"""Window Grams and their exact moment matrices against per-node trapezoid oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotuner import check_pe, make_sinusoid_mix, pe_gram, signals
from hotuner.certificates import _matrosov_moments
from hotuner.cli import bundled_scenario_path, load_scenario
from hotuner.signals import _window_grams, _window_moments

RELATIVE = 1e-10
# e^{-30} is below RELATIVE, so the e^{-tau} integrals may stop there.
MATROSOV_TRUNCATION = 30.0


def oracle_nodes(length, quadrature_step, matrosov=False):
    """Trapezoid offsets and weights on [0, length], built here independently."""
    m = max(1, int(round(length / quadrature_step)))
    step = length / m
    offsets = step * np.arange(m + 1)
    weights = np.full(m + 1, step)
    weights[0] = weights[-1] = 0.5 * step
    if matrosov:
        weights = weights * np.exp(-offsets)
    return offsets, weights


def oracle_gram(signal, start, offsets, weights):
    """sum_i w_i phi(start + tau_i) phi(start + tau_i)', one node evaluation at a time."""
    phi = signal.phi_grid(start + offsets)
    gram = (phi * weights[:, None]).T @ phi
    return 0.5 * (gram + gram.T)


def node_moments(signal, offsets, weights):
    """sum_i w_i u(tau_i) u(tau_i)' of u(tau) = (1, cos(w tau), sin(w tau))."""
    angles = np.outer(offsets, signal.frequencies)
    u = np.hstack([np.ones((offsets.shape[0], 1)), np.cos(angles), np.sin(angles)])
    return (u * weights[:, None]).T @ u


def richardson(integral, length, matrosov=False):
    """(4 I(h/2) - I(h)) / 3 for the trapezoid sum I(h) = integral(offsets, weights).

    h is 1e-3 snapped to divide length. The h^2 error terms cancel, leaving
    O(h^4 nu^3) for an integrand of frequency nu.
    """
    m = max(1, int(round(length / 1e-3)))
    coarse, fine = (integral(*oracle_nodes(length, length / k, matrosov)) for k in (m, 2 * m))
    return (4.0 * fine - coarse) / 3.0


def entry_scale(signal, total_weight):
    """A priori bound on |Gram_ij|: integral of |w| times (|o_i| + |a_i|)(|o_j| + |a_j|)."""
    bound = np.abs(signal.offsets) + np.abs(signal.amplitudes)
    return total_weight * np.outer(bound, bound)


def floats(low, high):
    return st.floats(low, high, allow_subnormal=False)


@st.composite
def mixes(draw, near_pairs=False):
    n = draw(st.integers(1, 6))

    def entries(values):
        return st.lists(st.one_of(st.just(0.0), values), min_size=n, max_size=n)

    offsets = draw(entries(floats(-3.0, 3.0)))
    amplitudes = draw(entries(floats(0.0, 3.0)))
    frequencies = draw(entries(floats(0.0, 5.0)))
    if near_pairs and n > 1 and draw(st.booleans()):
        # a near-equal pair: its difference frequency is close to 0
        frequencies[1] = frequencies[0] + draw(floats(0.0, 1e-3))
    phases = draw(st.lists(floats(-math.pi, math.pi), min_size=n, max_size=n))
    return make_sinusoid_mix(n, offsets, amplitudes, frequencies, phases, np.zeros(n))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    signal=mixes(),
    length=floats(0.05, 40.0),
    nodes=st.integers(1, 3000),
    starts=st.lists(floats(0.0, 200.0), min_size=1, max_size=8),
    matrosov=st.booleans(),
)
def test_window_grams_match_per_node_trapezoid(signal, length, nodes, starts, matrosov):
    """L(t) M L(t)' equals the per-node sum for M summed from the same nodes, with
    trapezoid weights or e^{-tau}-weighted ones."""
    offsets, weights = oracle_nodes(length, length / nodes, matrosov)
    grams = _window_grams(signal, np.array(starts), node_moments(signal, offsets, weights))
    assert grams.shape == (len(starts), signal.dimension, signal.dimension)
    # Where bound_i bound_j is subnormal the relative bound underflows to 0, but
    # each product that underflows still rounds by up to half a subnormal ulp:
    # one per node on the oracle's side, one per column of L M on the other, and
    # one more for each side's symmetrization. Subnormal sums are exact.
    terms = offsets.shape[0] + 2 * signal.dimension + 1
    tolerance = (RELATIVE * entry_scale(signal, weights.sum())
                 + (terms + 1) * np.finfo(float).smallest_subnormal)
    for start, gram in zip(starts, grams):
        assert np.array_equal(gram, gram.T)
        assert (np.abs(gram - oracle_gram(signal, start, offsets, weights)) <= tolerance).all()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(signal=mixes(near_pairs=True), length=floats(0.05, 40.0))
def test_exact_moments_match_the_extrapolated_trapezoid(signal, length):
    """The closed-form moments of the window [0, T] and of e^{-tau} on [0, inf)
    agree with a Richardson-extrapolated trapezoid within 1e-10 of |M_ij| <= integral w."""
    integral = lambda offsets, weights: node_moments(signal, offsets, weights)  # noqa: E731
    window = _window_moments(signal, length)
    assert np.abs(window - richardson(integral, length)).max() <= RELATIVE * length
    decay = _matrosov_moments(signal)
    oracle = richardson(integral, MATROSOV_TRUNCATION, matrosov=True)
    assert np.abs(decay - oracle).max() <= RELATIVE


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    signal=mixes(),
    T=floats(0.05, 12.0),
    scan_fraction=floats(0.05, 1.0),
    extra_windows=st.integers(0, 40),
)
def test_check_pe_takes_the_smallest_oracle_eigenvalue(signal, T, scan_fraction,
                                                        extra_windows):
    scan_step = scan_fraction * T
    report = check_pe(signal, T, T + scan_step * (extra_windows + 0.5), scan_step)
    starts = scan_step * np.arange(extra_windows + 1)
    smallest = np.array([np.linalg.eigvalsh(pe_gram(signal, s, T))[0] for s in starts])
    tolerance = RELATIVE * entry_scale(signal, T).sum()
    assert report.windows == starts.shape[0]
    assert abs(report.delta_hat - max(smallest.min(), 0.0)) <= tolerance
    (worst,) = np.flatnonzero(starts == report.worst_window_start)
    assert smallest[worst] <= smallest.min() + tolerance
    # the last window's Gram against the extrapolated trapezoid, node by node
    oracle = richardson(lambda o, w: oracle_gram(signal, starts[-1], o, w), T)
    gram = pe_gram(signal, starts[-1], T)
    assert (np.abs(gram - oracle) <= RELATIVE * entry_scale(signal, T)).all()


def test_check_pe_reports_the_worst_window():
    """sin^2 over a unit window is least where the window straddles a zero of sin."""
    signal = make_sinusoid_mix(1, [0.0], [1.0], [1.0], [0.0], [1.0])
    report = check_pe(signal, T=1.0, scan_horizon=5.0, scan_step=0.01)
    starts = 0.01 * np.arange(401)
    grams = [pe_gram(signal, float(s), 1.0)[0, 0] for s in starts]
    assert report.windows == 401
    assert report.worst_window_start == starts[int(np.argmin(grams))]
    assert report.worst_window_start == pytest.approx(math.pi - 0.5, abs=0.005)
    assert report.delta_hat == pytest.approx(min(grams), rel=1e-12)
    summary = report.summary()
    assert summary.startswith("PE satisfied")
    assert "401 windows" in summary and "worst at t=2.64" in summary


def test_blocks_do_not_change_the_scan(monkeypatch):
    """Blocks of 3 starts give the report of one block of all."""
    signal = make_sinusoid_mix(3, [1, 0, 2], [0, 3, 1], [0, 1, 0.7], [0, 0.3, 1], [1, 1, 1])
    whole = check_pe(signal, T=2.0, scan_horizon=12.0, scan_step=0.25)
    monkeypatch.setattr(signals, "_GRAM_BLOCK", 3)
    blocked = check_pe(signal, T=2.0, scan_horizon=12.0, scan_step=0.25)
    assert whole.windows == 41
    assert blocked.windows == 41 and blocked.worst_window_start == whole.worst_window_start
    assert blocked.delta_hat == pytest.approx(whole.delta_hat, rel=1e-13)


@pytest.mark.parametrize("block", [3, 4096])
def test_windows_of_whole_periods_report_the_earliest_start(monkeypatch, block):
    """fig1's regressor has period 2 pi, so its windows of length 2 pi have equal
    Grams, whose smallest eigenvalues rounding spreads by 4.3e-16 relative. The report
    names the first of them, in blocks of any size."""
    signal = load_scenario(bundled_scenario_path("fig1")).signal
    monkeypatch.setattr(signals, "_GRAM_BLOCK", block)
    report = check_pe(signal, T=2.0 * math.pi, scan_horizon=4.0 * math.pi)
    assert report.windows == 9 and report.worst_window_start == 0.0
