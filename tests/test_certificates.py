"""Energy functions, decrease bounds, the auxiliary check, and the rate fit."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotuner import (
    KINDS,
    DataBuffer,
    Gains,
    SimConfig,
    SystemKind,
    Trajectory,
    TunerState,
    check_decrease_along,
    check_decrease_pointwise,
    check_pe,
    energy_matrix,
    estimate_decay_rate,
    lyapunov_along,
    make_sinusoid_mix,
    matrosov_check,
    p_matrix,
    simulate,
    simulate_with_buffer,
)
from hotuner import integrator
from hotuner.certificates import _certificate_rows, _upper_envelope
from hotuner.databuffer import data_aggregates
from oracles import (
    CERTIFIED_GAINS,
    consistent_buffer,
    decrease_margin,
    make_constant,
    maybe_record,
    mix3,
    phi_at,
    rhs,
)

PI = np.pi


def energy(kind, x, gains, p_mu=None):
    """V = x' Q x at x = (theta_tilde, p), Q the kind's energy matrix."""
    return float(x @ energy_matrix(kind, gains, x.shape[0] // 2, p_mu) @ x)


def error_state(theta, vartheta, theta_star):
    """The error state x = (theta - theta*, vartheta - theta)."""
    return np.concatenate((theta - theta_star, vartheta - theta))


def error_field(kind, x, t, signal, gains, buffer=None):
    """rhs at theta = theta* + theta_tilde and vartheta = theta + p, seen in error
    coordinates: (dtheta, dvartheta - dtheta) as one (2n,) array."""
    n = signal.dimension
    theta = signal.theta_star + x[:n]
    d_theta, d_vartheta = rhs(kind, TunerState(theta, theta + x[n:]), t, signal, buffer, gains)
    return np.concatenate((d_theta, d_vartheta - d_theta))


def synthetic_trajectory(t, err):
    m = t.shape[0]
    return Trajectory(
        t=t,
        theta=np.zeros((m, 1)),
        vartheta=np.zeros((m, 1)),
        err_norm=np.asarray(err, dtype=float),
        p_norm=np.zeros(m),
        n_samples=np.zeros(m, dtype=int),
    )


def test_energy_hand_values():
    x = np.array([1.0, 0.0, 0.0, 2.0])  # theta_tilde (1, 0), p (0, 2)
    gains = Gains(beta=4.0, gamma=0.5, mu=0.2)
    assert energy(SystemKind.HT, x, gains) == 18.0
    p_mu = np.diag([2.0, 1.0])
    assert energy(SystemKind.HT_CL, x, gains, p_mu) == 19.0
    assert energy(SystemKind.HT_B, x, gains, p_mu) == 4.75
    with pytest.raises(ValueError, match="no certified energy"):
        energy_matrix(SystemKind.BASIC, gains, 2)
    with pytest.raises(ValueError, match="needs the data matrix"):
        energy_matrix(SystemKind.HT_CL, gains, 2)


# Closed-form references in error coordinates (theta_tilde, p), with
# e_y = phi' theta_tilde, N_t = 1 + mu |phi|^2 and P = P_mu of data consistent
# with theta*. They are written out independently of the kind table.
SOFT_BASE = {
    SystemKind.HT_CL_SOFTRESET: SystemKind.HT_CL,
    SystemKind.HT_NORMALIZED_CL_SOFTRESET: SystemKind.HT_NORMALIZED_CL,
}


def closed_form_error_field(kind, theta_tilde, p, phi, gains, p_mu):
    """Error field of a pointwise kind; for a soft-reset kind, of its base kind."""
    beta, gamma = gains.beta, gains.gamma
    grad = phi * float(phi @ theta_tilde)
    nt = 1.0 + gains.mu * float(phi @ phi)
    kind = SOFT_BASE.get(kind, kind)
    if kind is SystemKind.HT:
        return beta * nt * p, -beta * nt * p - gamma * grad
    if kind is SystemKind.HT_NORMALIZED:
        return beta * p, -beta * p - (gamma / nt) * grad
    if kind is SystemKind.HT_CL:
        drive = gamma * (grad + nt * (p_mu @ theta_tilde))
        return beta * nt * p, -beta * nt * p - drive
    if kind is SystemKind.HT_NORMALIZED_CL:
        drive = gamma * (grad / nt + p_mu @ theta_tilde)
        return beta * p, -beta * p - drive
    assert kind is SystemKind.HT_B
    return beta * p, -beta * p - gamma * (p_mu @ theta_tilde)


def closed_form_pull(kind, theta_tilde, p, phi, gains):
    """(soft-reset indicator, pull on theta when it is on): 2 beta_r p, times N_t
    for the unnormalized kind; the indicator p' grad L is over N_t for the other."""
    nt = 1.0 + gains.mu * float(phi @ phi)
    indicator = float(p @ phi) * float(phi @ theta_tilde)
    pull = 2.0 * gains.beta_r * p
    if kind is SystemKind.HT_CL_SOFTRESET:
        return indicator, nt * pull
    return indicator / nt, pull


def closed_form_energy(kind, theta_tilde, p, gains, p_mu):
    s = theta_tilde + p
    base = float(s @ s + p @ p)
    if kind in (SystemKind.HT, SystemKind.HT_NORMALIZED):
        return base / gains.gamma
    quad = float(theta_tilde @ (p_mu @ theta_tilde))
    if kind is SystemKind.HT_B:
        return 0.5 * base + gains.gamma * quad / gains.beta
    return base / gains.gamma + 2.0 * quad / gains.beta


@st.composite
def error_field_cases(draw):
    """A sinusoid-mix signal, gains, an error state, a time and consistent data."""
    n = draw(st.integers(1, 4))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    sig = make_sinusoid_mix(n, vec(-2, 2), vec(0, 3), vec(0, 5), vec(0, 2 * PI),
                            vec(-3, 3))
    gains = Gains(beta=draw(st.floats(0.1, 5.0)), gamma=draw(st.floats(0.01, 2.0)),
                  mu=draw(st.floats(0.0, 2.0)), beta_r=draw(st.floats(0.0, 5.0)))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6))
    buffer = consistent_buffer(sig, np.cumsum(gaps))
    x = np.concatenate((vec(-3, 3), vec(-3, 3)))
    return sig, gains, buffer, x, draw(st.floats(0.0, 20.0))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(error_field_cases())
def test_error_field_matches_state_field(case):
    """The error field derived from rhs equals the closed forms in error coordinates,
    and each energy matrix equals its closed-form quadratic."""
    sig, gains, buffer, x, t = case
    phi = phi_at(sig, t)
    p_mu = p_matrix(buffer, gains.mu)
    theta_tilde, p = x[:sig.dimension], x[sig.dimension:]
    for kind in (SystemKind.HT, SystemKind.HT_NORMALIZED, SystemKind.HT_CL,
                 SystemKind.HT_NORMALIZED_CL, SystemKind.HT_B, *SOFT_BASE):
        got = error_field(kind, x, t, sig, gains, buffer)
        want = np.concatenate(closed_form_error_field(kind, theta_tilde, p, phi, gains,
                                                      p_mu))
        wants = [want]
        if kind in SOFT_BASE:
            indicator, pull = closed_form_pull(kind, theta_tilde, p, phi, gains)
            on = want + np.concatenate((pull, -pull))
            # within rounding of the switching surface either side is right
            near = abs(indicator) <= 1e-9 * (1.0 + float(phi @ phi)) * (
                1.0 + float(p @ p) + float(theta_tilde @ theta_tilde))
            wants = [want, on] if near else [on] if indicator > 0.0 else [want]
        tol = 1e-9 * (1.0 + max(np.abs(w).max() for w in wants))
        assert any(np.allclose(got, w, rtol=0.0, atol=tol) for w in wants), kind
        if kind in SOFT_BASE:
            assert np.array_equal(energy_matrix(kind, gains, sig.dimension, p_mu),
                                  energy_matrix(SOFT_BASE[kind], gains, sig.dimension,
                                                p_mu))
            continue
        want_v = closed_form_energy(kind, theta_tilde, p, gains, p_mu)
        assert abs(energy(kind, x, gains, p_mu) - want_v) <= 1e-12 * (1.0 + abs(want_v))


def test_decrease_margin_zero_at_origin():
    sig = mix3()
    buffer = consistent_buffer(sig, (0.0, 1.0, 2.2))
    for kind, data in ((SystemKind.HT, None), (SystemKind.HT_CL, buffer),
                       (SystemKind.HT_B, buffer)):
        lhs, bound = decrease_margin(kind, np.zeros(6), 0.4, sig, CERTIFIED_GAINS, buffer=data)
        assert lhs == 0.0 and bound == 0.0


def test_decrease_margin_rejects_a_misshapen_state():
    for x in (np.zeros(3), np.zeros(7), np.zeros((2, 6))):
        with pytest.raises(ValueError, match=r"x must be the \(6,\) error state"):
            decrease_margin(SystemKind.HT, x, 0.4, mix3(), CERTIFIED_GAINS)


def test_decrease_margin_matches_directional_difference():
    """The analytic <grad V, f> agrees with a central difference of V along f."""
    sig = mix3()
    buffer = consistent_buffer(sig, (0.0, 1.0, 2.2))
    p_mu = p_matrix(buffer, CERTIFIED_GAINS.mu)
    rng = np.random.default_rng(8)
    delta = 1e-6
    for kind in (SystemKind.HT, SystemKind.HT_NORMALIZED, SystemKind.HT_CL,
                 SystemKind.HT_NORMALIZED_CL, SystemKind.HT_B):
        needs_data = kind in (SystemKind.HT_CL, SystemKind.HT_NORMALIZED_CL,
                              SystemKind.HT_B)
        data = buffer if needs_data else None
        for _ in range(25):
            theta_tilde, p = rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3)
            x = np.concatenate((theta_tilde, p))
            t = float(rng.uniform(0, 12))
            lhs, _ = decrease_margin(kind, x, t, sig, CERTIFIED_GAINS, buffer=data)
            f = error_field(kind, x, t, sig, CERTIFIED_GAINS, data)
            plus, minus = x + delta * f, x - delta * f
            fd = (energy(kind, plus, CERTIFIED_GAINS, p_mu)
                  - energy(kind, minus, CERTIFIED_GAINS, p_mu)) / (2.0 * delta)
            assert abs(fd - lhs) <= 1e-6 * max(1.0, abs(lhs))


def test_decrease_holds_on_small_sweep():
    sig = mix3()
    buffer = consistent_buffer(sig, (0.0, 1.0, 2.2, 3.7))
    for kind in (SystemKind.HT, SystemKind.HT_NORMALIZED, SystemKind.HT_CL,
                 SystemKind.HT_NORMALIZED_CL, SystemKind.HT_B):
        report = check_decrease_pointwise(kind, sig, buffer, CERTIFIED_GAINS,
                                          sample_count=500, seed=3)
        assert report.checked_points == 500
        assert report.passed, (kind, report.worst_margin)
        assert report.worst_margin <= report.tolerance


def test_decrease_rejects_unproven_gains():
    sig = mix3()
    buffer = consistent_buffer(sig, (0.0, 1.0, 2.2))
    weak = Gains(beta=1.0, gamma=0.3, mu=0.2)  # needs beta >= 3
    with pytest.raises(ValueError, match="beta >= 2 gamma / mu"):
        check_decrease_pointwise(SystemKind.HT, sig, None, weak, sample_count=10)
    # the data-only tuner carries no rate condition
    report = check_decrease_pointwise(SystemKind.HT_B, sig, buffer, weak,
                                      sample_count=200)
    assert report.passed


def test_decrease_pointwise_guards():
    sig = mix3()
    with pytest.raises(ValueError, match="no pointwise decrease bound"):
        check_decrease_pointwise(SystemKind.BASIC, sig, None, CERTIFIED_GAINS)
    with pytest.raises(ValueError, match="nonempty buffer"):
        check_decrease_pointwise(SystemKind.HT_CL, sig, None, CERTIFIED_GAINS)


@pytest.mark.parametrize("argument,value", [("t_points", 0), ("t_points", -3),
                                            ("sample_count", 0)])
def test_decrease_pointwise_rejects_empty_samples(argument, value):
    """Zero times used to fail inside max(), and zero states gave a check that could not fail."""
    with pytest.raises(ValueError, match=argument):
        check_decrease_pointwise(SystemKind.HT, mix3(), None, CERTIFIED_GAINS,
                                 **{argument: value})


UNFAILABLE_SWEEPS = [
    ("radius", 0.0), ("radius", -5.0), ("radius", math.nan), ("radius", math.inf),
]


@pytest.mark.parametrize("argument,value", UNFAILABLE_SWEEPS)
def test_sweeps_refuse_settings_under_which_they_cannot_fail(argument, value):
    """Each of these used to pass: a radius of 0 samples only the origin, a NaN or
    infinite one only NaN margins, and NaN margins were never counted."""
    sig = mix3()
    with pytest.raises(ValueError, match=argument):
        check_decrease_pointwise(SystemKind.HT, sig, None, CERTIFIED_GAINS, sample_count=20,
                                 **{argument: value})
    with pytest.raises(ValueError, match=argument):
        matrosov_check(sig, T=1.0, delta=1.0, sample_count=20, **{argument: value})


def test_sweep_report_counts_non_finite_margins():
    from hotuner.certificates import _sweep_report

    margins = np.array([-1.0, math.nan, -math.inf, math.inf, 2e-9, 0.0])
    report = _sweep_report(margins)  # POINTWISE_TOLERANCE is 1e-9
    assert report.checked_points == 6 and report.violations == 4
    assert math.isnan(report.worst_margin)
    assert _sweep_report(np.array([-1.0, 1e-9])).to_csv_line() == "2,0,1e-09,1e-09"


def test_sweeps_count_overflowing_points_as_violations():
    """At radius 1e200 every margin overflows. NaN margins used to be skipped, and
    the bound's Python square raised OverflowError."""
    sig = mix3()
    buffer = consistent_buffer(sig, (0.0, 1.0, 2.2))
    with np.errstate(all="ignore"):
        for kind, data in ((SystemKind.HT, None), (SystemKind.HT_CL, buffer)):
            report = check_decrease_pointwise(kind, sig, data, CERTIFIED_GAINS,
                                              sample_count=50, radius=1e200)
            assert report.violations == 50, kind
            assert math.isnan(report.worst_margin), kind
        report = matrosov_check(sig, T=1.0, delta=1.0, sample_count=50, radius=1e200)
    assert report.checked_points == 66 and report.violations == 66


def test_lyapunov_along_plain_kind_is_v0():
    sig = mix3()
    sim = SimConfig(t_end=3.0, step_h=1e-3, record_every=10)
    for kind in (SystemKind.HT, SystemKind.HT_NORMALIZED):
        traj, _ = simulate(kind, sig, CERTIFIED_GAINS, sim,
                           TunerState.from_theta0([1.0, -2.0, 0.0]))
        values = lyapunov_along(kind, traj, sig, CERTIFIED_GAINS)
        for k in range(traj.n_rows):
            x = error_state(traj.theta[k], traj.vartheta[k], sig.theta_star)
            assert abs(values[k] - energy(kind, x, CERTIFIED_GAINS)) < 1e-12, kind


def test_lyapunov_along_uses_samples_recorded_so_far():
    sig = mix3()
    sim = SimConfig(t_end=8.0, step_h=1e-3, record_every=7)
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2, beta_r=4.0)
    for kind in (SystemKind.HT_CL, SystemKind.HT_NORMALIZED_CL,
                 SystemKind.HT_CL_SOFTRESET, SystemKind.HT_NORMALIZED_CL_SOFTRESET):
        traj, buffer = simulate(kind, sig, gains, sim,
                                TunerState.from_theta0([1.0, 1.0, 1.0]),
                                epsilon=1.0, N_bar=4)
        assert len(buffer) == 4
        values = lyapunov_along(kind, traj, sig, gains, buffer)
        for k in range(traj.n_rows):
            m = int(traj.n_samples[k])
            prefix = DataBuffer.from_samples(buffer.phi[:m], buffer.y_star[:m],
                                             times=buffer.t[:m])
            x = error_state(traj.theta[k], traj.vartheta[k], sig.theta_star)
            want = energy(kind, x, gains, p_matrix(prefix, gains.mu))
            assert abs(values[k] - want) < 1e-10, kind


def test_lyapunov_along_weighs_samples_as_the_field():
    """Row r's energy is x' Q(P_m) x with P_m summed in sample order from the
    data_aggregates weights, which the field and p_matrix use too, also where
    |phi_k|^2 as a dot product rounds to another weight."""
    rng = np.random.default_rng(2)
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.7, beta_r=4.0)
    buffer = DataBuffer.empty()
    for k in range(16):
        buffer, kept = maybe_record(buffer, float(k), rng.uniform(-3.0, 3.0, 3), float(k),
                                    16, 1e-6)
        assert kept
    dot_weights = [1.0 / (1.0 + gains.mu * float(phi @ phi)) for phi in buffer.phi]
    assert np.any(data_aggregates(buffer, gains.mu)[2] != dot_weights)
    # 20 rows at each fill level m = 1..16
    counts = np.repeat(np.arange(1, len(buffer) + 1), 20)
    rows = counts.shape[0]
    theta = rng.uniform(-2.0, 2.0, (rows, 3))
    vartheta = rng.uniform(-2.0, 2.0, (rows, 3))
    traj = Trajectory(t=np.arange(rows, dtype=float), theta=theta,
                      vartheta=vartheta, err_norm=np.zeros(rows), p_norm=np.zeros(rows),
                      n_samples=counts)
    x = np.hstack((theta - sig.theta_star, vartheta - theta))
    p_ms = {}
    for m in range(1, len(buffer) + 1):
        weights = data_aggregates(buffer, gains.mu, m)[2]
        p_ms[m] = np.zeros((3, 3))
        for k in range(m):
            p_ms[m] = p_ms[m] + weights[k] * np.outer(buffer.phi[k], buffer.phi[k])
    for kind in (SystemKind.HT_CL, SystemKind.HT_NORMALIZED_CL, SystemKind.HT_B,
                 SystemKind.HT_CL_SOFTRESET):
        values = lyapunov_along(kind, traj, sig, gains, buffer)
        for r, m in enumerate(counts):
            q = energy_matrix(kind, gains, 3, p_ms[m])
            assert values[r] == np.einsum("ri,ij,rj->r", x[r:r + 1], q, x[r:r + 1])[0]


def test_lyapunov_along_data_only_kind():
    sig = mix3()
    buffer = consistent_buffer(sig, (0.0, 1.0, 2.2))
    traj = simulate_with_buffer(SystemKind.HT_B, sig, CERTIFIED_GAINS,
                                SimConfig(t_end=2.0, record_every=100),
                                TunerState.from_theta0([0.0, 0.0, 0.0]), buffer)
    values = lyapunov_along(SystemKind.HT_B, traj, sig, CERTIFIED_GAINS, buffer)
    p_mu = p_matrix(buffer, CERTIFIED_GAINS.mu)
    for k in range(traj.n_rows):
        x = error_state(traj.theta[k], traj.vartheta[k], sig.theta_star)
        assert abs(values[k] - energy(SystemKind.HT_B, x, CERTIFIED_GAINS, p_mu)) < 1e-12


def test_lyapunov_along_guards():
    sig = mix3()
    sim = SimConfig(t_end=1.0, record_every=100)
    traj, buffer = simulate(SystemKind.HT_CL, sig, CERTIFIED_GAINS, sim,
                            TunerState.from_theta0([1.0, 0.0, 0.0]),
                            epsilon=1.0, N_bar=4)
    with pytest.raises(ValueError, match="no certified energy"):
        lyapunov_along(SystemKind.BASIC, traj, sig, CERTIFIED_GAINS)
    with pytest.raises(ValueError, match="needs the buffer"):
        lyapunov_along(SystemKind.HT_CL, traj, sig, CERTIFIED_GAINS, None)
    short = consistent_buffer(sig, (0.0,))
    if traj.n_samples.max() > 1:
        with pytest.raises(ValueError, match="more samples"):
            lyapunov_along(SystemKind.HT_CL, traj, sig, CERTIFIED_GAINS, short)


def test_check_decrease_along_flags_growth():
    t = np.array([0.0, 1e-3, 2e-3])
    traj = synthetic_trajectory(t, np.zeros(3))
    v = np.array([1.0, 1.0, 5.0])
    report = check_decrease_along(traj, v, 1e-3)
    assert report.checked_points == 2
    assert report.violations == 1
    assert abs(report.worst_margin - (4.0 - 0.02)) < 1e-12


def test_check_decrease_along_needs_one_v_per_row():
    traj = synthetic_trajectory(np.array([0.0, 1e-3, 2e-3]), np.zeros(3))
    with pytest.raises(ValueError, match="one V value per trajectory row"):
        check_decrease_along(traj, np.ones(2), 1e-3)


def test_check_decrease_along_exempts_recording_steps():
    t = np.array([0.0, 1e-3, 2e-3])
    traj = synthetic_trajectory(t, np.zeros(3))
    traj.n_samples = np.array([0, 0, 1])  # the jump coincides with a new sample
    v = np.array([1.0, 1.0, 5.0])
    report = check_decrease_along(traj, v, 1e-3)
    assert report.checked_points == 1
    assert report.violations == 0


def test_check_decrease_along_on_real_run():
    sig = mix3()
    sim = SimConfig(t_end=5.0, step_h=1e-3)
    traj, _ = simulate(SystemKind.HT, sig, CERTIFIED_GAINS, sim,
                       TunerState.from_theta0([2.0, -1.0, 3.0]))
    values = lyapunov_along(SystemKind.HT, traj, sig, CERTIFIED_GAINS)
    report = check_decrease_along(traj, values, sim.step_h)
    assert report.passed
    tiny = synthetic_trajectory(np.array([0.0]), np.array([1.0]))
    empty = check_decrease_along(tiny, np.array([1.0]), 1e-3)
    assert empty.checked_points == 0 and not empty.passed


def test_matrosov_constant_signal_closed_form():
    """For constant phi the auxiliary integral collapses to |phi|^2 exactly."""
    sig = make_constant([2.0], [1.0])
    # window T = 1 gives excitation level |phi|^2 T = 4
    report = matrosov_check(sig, T=1.0, delta=4.0, sample_count=64, t_points=4)
    assert report.passed
    assert report.worst_margin <= report.tolerance


def test_matrosov_periodic_signal():
    sig = mix3()
    from hotuner import check_pe

    pe = check_pe(sig, T=2.0 * PI, scan_horizon=4.0 * PI)
    report = matrosov_check(sig, T=pe.window_T, delta=pe.delta_hat, sample_count=100,
                            t_points=8)
    assert report.passed


def test_matrosov_validation():
    sig = mix3()
    with pytest.raises(ValueError):
        matrosov_check(sig, T=0.0, delta=1.0)
    with pytest.raises(ValueError):
        matrosov_check(sig, T=1.0, delta=-1.0)


@pytest.mark.parametrize("t_points", [0, -3])
def test_matrosov_rejects_an_empty_time_grid(t_points):
    """t_points = 0 used to raise ZeroDivisionError from the sample loop."""
    with pytest.raises(ValueError, match="t_points"):
        matrosov_check(mix3(), T=1.0, delta=1.0, t_points=t_points)


CERTIFICATE_PLANS = {
    SystemKind.HT: ("pointwise", "trajectory", "auxiliary"),
    SystemKind.HT_NORMALIZED: ("pointwise", "trajectory", "auxiliary"),
    SystemKind.HT_CL: ("pointwise", "trajectory"),
    SystemKind.HT_NORMALIZED_CL: ("pointwise", "trajectory"),
    SystemKind.HT_B: ("pointwise", "trajectory"),
    SystemKind.HT_CL_SOFTRESET: ("trajectory",),
    SystemKind.HT_NORMALIZED_CL_SOFTRESET: ("trajectory",),
}


@pytest.mark.parametrize("kind", list(KINDS), ids=lambda kind: kind.value)
def test_certificate_rows_follow_the_kind(kind, monkeypatch):
    """Each high-order kind gets its rows in the order certify writes them, read
    off the run it is handed; a baseline kind has no certified energy."""
    sig = mix3()
    sim = SimConfig(t_end=1.0, step_h=1e-3, record_every=10)
    trajectory, buffer = simulate(kind, sig, CERTIFIED_GAINS, sim,
                                  TunerState.from_theta0([2.0, -1.0, 3.0]),
                                  epsilon=0.1, N_bar=10)
    pe = check_pe(sig, T=2.0 * PI, scan_horizon=4.0 * PI)

    def no_simulation(*args, **kwargs):
        raise AssertionError("the certificate rows simulated a run")

    monkeypatch.setattr(integrator, "_run", no_simulation)
    if kind not in CERTIFICATE_PLANS:
        with pytest.raises(ValueError, match="no certified energy"):
            _certificate_rows(kind, trajectory, buffer, sig, CERTIFIED_GAINS, pe, sim)
        return
    rows = _certificate_rows(kind, trajectory, buffer, sig, CERTIFIED_GAINS, pe, sim)
    assert tuple(check for check, _ in rows) == CERTIFICATE_PLANS[kind]
    assert all(report.checked_points > 0 for _, report in rows)


def test_decay_rate_exact_exponential():
    t = np.linspace(0.0, 20.0, 2001)
    traj = synthetic_trajectory(t, 3.0 * np.exp(-0.5 * t))
    alpha, c, quality = estimate_decay_rate(traj)
    assert abs(alpha - 0.5) < 1e-9
    assert abs(c - 3.0) < 1e-9
    assert quality > 1.0 - 1e-12


def test_decay_rate_oscillating_envelope():
    t = np.linspace(0.0, 30.0, 3001)
    traj = synthetic_trajectory(t, np.exp(-0.3 * t) * (1.0 + 0.5 * np.sin(5.0 * t)))
    alpha, _, quality = estimate_decay_rate(traj)
    assert abs(alpha - 0.3) < 0.03
    assert quality > 0.95


def test_decay_rate_guards():
    t = np.linspace(0.0, 1.0, 5)
    traj = synthetic_trajectory(t, np.exp(-t))
    with pytest.raises(ValueError, match="too few"):
        estimate_decay_rate(traj)


def scan_envelope(times, values, window):
    """Running maximum over [t, t + window] by a forward scan with a monotone deque."""
    count = times.shape[0]
    envelope = np.empty(count)
    indices = deque()
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


@st.composite
def envelope_cases(draw):
    """Random or uniform time grids, nonzero values, windows from 0 to past the grid."""
    count = draw(st.integers(1, 300))
    if draw(st.booleans()):
        step = draw(st.floats(1e-3, 2.0))
        times = draw(st.floats(-10.0, 10.0)) + np.arange(count) * step
    else:
        gaps = draw(st.lists(st.floats(1e-6, 3.0), min_size=count, max_size=count))
        times = np.cumsum(gaps)
        step = min(gaps)
    values = np.array(draw(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False),
                                    min_size=count, max_size=count)))
    values[values == 0.0] = 1.0  # the two zeros are equal but not the same bits
    if draw(st.booleans()):
        values = np.round(values)  # ties
    window = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99 * step),
                            st.floats(0.0, 2.0 * (times[-1] - times[0]) + 1.0)))
    return times, values, window


@settings(derandomize=True, deadline=None, max_examples=300)
@given(envelope_cases())
def test_upper_envelope_matches_the_scan_bitwise(case):
    times, values, window = case
    assert _upper_envelope(times, values, window).tobytes() == \
        scan_envelope(times, values, window).tobytes()


def test_certificate_report_csv():
    from hotuner import CertificateReport

    report = CertificateReport(checked_points=10, violations=0,
                               worst_margin=-0.5, tolerance=1e-9)
    assert report.passed
    assert report.to_csv_line() == "10,0,-0.5,1e-09"
