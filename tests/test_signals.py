"""Sinusoid-mix regressors and the windowed excitation scan."""

import math

import numpy as np
import pytest

from hotuner import check_pe, make_constant, make_sinusoid_mix, pe_gram

PI = np.pi


def mix3():
    """Constant first component plus a sine/cosine pair in quadrature."""
    return make_sinusoid_mix(
        3, [1, 1, 1], [0, 3, 3], [0, 1, 1], [0, 0, PI / 2], [2.0, -1.0, 0.5]
    )


def test_phi_components():
    sig = mix3()
    phi = sig.phi(0.0)
    assert np.allclose(phi, [1.0, 1.0, 4.0], atol=1e-15)
    phi = sig.phi(PI / 2)
    assert np.allclose(phi, [1.0, 4.0, 1.0], atol=1e-12)


def test_eval_consistency():
    sig = mix3()
    phi, y = sig.eval(0.7)
    assert y == pytest.approx(float(phi @ sig.theta_star), abs=0.0)
    ts = np.linspace(0.0, 10.0, 57)
    phis, ys = sig.eval_grid(ts)
    for k, t in enumerate(ts):
        assert np.allclose(phis[k], sig.phi(float(t)), atol=1e-14)
        assert abs(ys[k] - sig.eval(float(t))[1]) < 1e-12


def test_constant_signal():
    sig = make_constant([2.0, -3.0], [1.0, 1.0])
    for t in (0.0, 1.0, 123.4):
        assert np.array_equal(sig.phi(t), [2.0, -3.0])
        assert sig.eval(t)[1] == -1.0


def test_norm_bound_dominates_samples():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        sig = make_sinusoid_mix(
            n,
            rng.uniform(-2, 2, n),
            rng.uniform(0, 3, n),
            rng.uniform(0, 4, n),
            rng.uniform(-PI, PI, n),
            rng.uniform(-1, 1, n),
        )
        bound = sig.norm_bound()
        ts = rng.uniform(0.0, 50.0, 200)
        phis, _ = sig.eval_grid(ts)
        assert np.sqrt((phis**2).sum(axis=1)).max() <= bound + 1e-9


def test_shifted_matches_time_offset():
    sig = mix3()
    shifted = sig.shifted(2.5)
    for t in np.linspace(0.0, 12.0, 25):
        assert np.allclose(shifted.phi(t), sig.phi(t + 2.5), atol=1e-12)


def test_construction_validation():
    with pytest.raises(ValueError):
        make_sinusoid_mix(2, [1.0], [0, 0], [0, 0], [0, 0], [0, 0])
    with pytest.raises(ValueError, match="finite"):
        make_sinusoid_mix(1, [np.nan], [0.0], [0.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        make_sinusoid_mix(0, [], [], [], [], [])


def test_signal_arrays_immutable():
    sig = mix3()
    with pytest.raises(ValueError):
        sig.offsets[0] = 9.0


def test_pe_gram_constant_closed_form():
    # phi = [sqrt(2)] gives phi phi' = 2, so the window integral is 2 T.
    sig = make_constant([np.sqrt(2.0)], [1.0])
    gram = pe_gram(sig, 0.0, 1.0)
    assert gram.shape == (1, 1)
    assert abs(gram[0, 0] - 2.0) < 1e-12


def test_pe_gram_full_period_closed_form():
    """One full period of mix3 integrates to 2*pi*ones + 9*pi*diag(0,1,1)."""
    sig = mix3()
    gram = pe_gram(sig, 0.0, 2.0 * PI)
    exact = 2.0 * PI * np.ones((3, 3)) + 9.0 * PI * np.diag([0.0, 1.0, 1.0])
    assert np.abs(gram - exact).max() < 1e-9
    min_eig = float(np.linalg.eigvalsh(exact)[0])
    assert abs(min_eig - PI * (15.0 - np.sqrt(153.0)) / 2.0) < 1e-12


def test_pe_gram_symmetric_psd():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        sig = make_sinusoid_mix(
            n,
            rng.uniform(-2, 2, n),
            rng.uniform(0, 2, n),
            rng.uniform(0, 3, n),
            rng.uniform(-PI, PI, n),
            np.zeros(n),
        )
        gram = pe_gram(sig, float(rng.uniform(0, 5)), float(rng.uniform(0.5, 4)))
        assert np.array_equal(gram, gram.T)
        assert float(np.linalg.eigvalsh(gram)[0]) > -1e-12


def test_pe_gram_periodic_window_invariance():
    sig = mix3()
    a = pe_gram(sig, 0.0, 2.0 * PI)
    b = pe_gram(sig, 2.0 * PI, 2.0 * PI)
    assert np.abs(a - b).max() < 1e-9


def test_pe_gram_hand_value():
    """integral_0^1 sin^2 = 1/2 - sin(2)/4; the trapezoid at step 1e-3 was off by 2.8e-7."""
    sig = make_sinusoid_mix(1, [0.0], [1.0], [1.0], [0.0], [1.0])
    exact = 0.5 - math.sin(2.0) / 4.0
    assert abs(pe_gram(sig, 0.0, 1.0)[0, 0] - exact) <= 1e-14 * exact


def test_pe_gram_validation():
    sig = mix3()
    with pytest.raises(ValueError):
        pe_gram(sig, 0.0, 0.0)
    with pytest.raises(ValueError):
        pe_gram(sig, 0.0, math.inf)


def test_check_pe_reference_values(reference):
    """Excitation scan over the bundled regressor reproduces the frozen numbers."""
    sig = mix3()
    report = check_pe(sig, T=2.0 * PI, scan_horizon=4.0 * PI)
    assert abs(report.delta_hat - reference["pe"]["delta_hat"]) < 1e-9
    assert abs(report.M_hat - reference["pe"]["M_hat"]) < 1e-9
    assert report.satisfied()
    # amplitude peak is sqrt(12 + 6 sqrt(2)); the dense grid sits just below it
    exact_m = float(np.sqrt(12.0 + 6.0 * np.sqrt(2.0)))
    assert report.M_hat <= exact_m + 1e-12
    assert report.M_hat > exact_m - 1e-5
    assert report.M_hat <= sig.norm_bound()
    assert "satisfied" in report.summary()


def test_check_pe_rank_deficient():
    # two identical components can never excite the difference direction
    sig = make_sinusoid_mix(2, [0, 0], [1, 1], [1, 1], [0, 0], [1.0, 1.0])
    report = check_pe(sig, T=2.0 * PI, scan_horizon=4.0 * PI)
    assert report.delta_hat == 0.0
    assert not report.satisfied()
    assert "NOT satisfied" in report.summary()


def test_check_pe_validation():
    sig = mix3()
    with pytest.raises(ValueError):
        check_pe(sig, T=4.0, scan_horizon=2.0)
    with pytest.raises(ValueError):
        check_pe(sig, T=1.0, scan_horizon=2.0, scan_step=0.0)


def test_check_pe_names_the_bad_argument():
    """T is checked before scan_step, which defaults to T / 8."""
    sig = mix3()
    with pytest.raises(ValueError, match="window length T must be positive"):
        check_pe(sig, T=-1.0, scan_horizon=2.0)
    with pytest.raises(ValueError, match="window length T must be positive"):
        check_pe(sig, T=float("nan"), scan_horizon=2.0)
    with pytest.raises(ValueError, match="window length T must be positive and finite"):
        check_pe(sig, T=math.inf, scan_horizon=math.inf, scan_step=0.0)
