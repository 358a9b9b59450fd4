"""Twelve acceptance checks, one test per criterion, each with a runtime budget.

The heavy full-resolution reference runs (fig1_runs, fig2_runs) are built once
per session. Criterion 5 is their first consumer and its budget covers the
build; the later criteria that reuse them fetch the cached fixtures before
starting their own timers, so each budget measures the check itself.
"""

import time

import numpy as np

from hotuner import (
    BASELINE_KINDS,
    BUFFER_KINDS,
    DataBuffer,
    Gains,
    SimConfig,
    SystemKind,
    Trajectory,
    TunerState,
    check_decrease_along,
    check_decrease_pointwise,
    estimate_decay_rate,
    lyapunov_along,
    make_constant,
    make_sinusoid_mix,
    p_matrix,
    richness,
    rhs,
    simulate,
)
from hotuner.certificates import POINTWISE_TOLERANCE, SLACK_COEFF
from hotuner.databuffer import data_aggregates, data_term

PI = np.pi
CERTIFIED_GAINS = Gains(beta=1.0, gamma=0.1, mu=0.2)
GRID_STEP = 1e-3  # reference-run step; "within 2 grid steps" means 2e-3


def bundled_mix():
    return make_sinusoid_mix(
        3, [1, 1, 1], [0, 3, 3], [0, 1, 1], [0, 0, PI / 2], [2.0, -1.0, 0.5]
    )


def consistent_buffer(sig, times):
    phis = [sig.phi(float(t)) for t in times]
    ys = [float(p @ sig.theta_star) for p in phis]
    return DataBuffer.from_samples(phis, ys, times=list(times))


def first_crossing(trajectory, fraction):
    """First trajectory time at which err_norm falls to fraction of row 0."""
    target = fraction * trajectory.err_norm[0]
    hits = np.nonzero(trajectory.err_norm <= target)[0]
    return None if hits.shape[0] == 0 else float(trajectory.t[hits[0]])


def rank_by_elimination(mat, tol=1e-10):
    """Row-reduction rank with partial pivoting; independent of any SVD."""
    work = np.array(mat, dtype=float)
    rank = 0
    for col in range(work.shape[1]):
        if rank == work.shape[0]:
            break
        pivot = rank + int(np.argmax(np.abs(work[rank:, col])))
        if abs(work[pivot, col]) <= tol:
            continue
        work[[rank, pivot]] = work[[pivot, rank]]
        work[rank] = work[rank] / work[rank, col]
        for row in range(work.shape[0]):
            if row != rank:
                work[row] = work[row] - work[row, col] * work[rank]
        rank += 1
    return rank


def finish(num, label, start, budget):
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget:g}s)"
    print(f"criterion {num} ({label}): PASS in {elapsed:.2f}s (budget {budget:g}s)")


def test_criterion_01_equilibrium_invariance():
    start = time.perf_counter()
    sig = bundled_mix()
    buffer = consistent_buffer(sig, (0.0, 1.0, 2.0, 3.3, 4.1))
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2, beta_r=4.0)
    state = TunerState(theta=sig.theta_star.copy(), vartheta=sig.theta_star.copy())
    for kind in SystemKind:
        for t in np.linspace(0.0, 20.0, 100):
            d_theta, d_vartheta = rhs(kind, state, float(t), sig, buffer, gains)
            worst = max(np.abs(d_theta).max(), np.abs(d_vartheta).max())
            assert worst <= 1e-12, (kind, float(t), worst)
    finish(1, "equilibrium invariance", start, 1.0)


def test_criterion_02_rank_eigenvalue_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    theta_star = np.array([1.0, 2.0, 3.0])
    for _ in range(1000):
        count = int(rng.integers(1, 7))
        phis = rng.uniform(-1.0, 1.0, (count, 3))
        buffer = DataBuffer.from_samples(phis, phis @ theta_star)
        full_rank = rank_by_elimination(phis) == 3
        for mu in (0.0, 0.2, 1.0):
            min_eig = float(np.linalg.eigvalsh(p_matrix(buffer, mu))[0])
            assert (min_eig > 1e-10) == full_rank, (count, mu, min_eig)
    finish(2, "rank and eigenvalue tests agree", start, 5.0)


def test_criterion_03_data_term_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        count = int(rng.integers(1, 7))
        theta_star = rng.uniform(-3.0, 3.0, 3)
        phis = rng.uniform(-1.0, 1.0, (count, 3))
        buffer = DataBuffer.from_samples(phis, phis @ theta_star)
        theta = rng.uniform(-5.0, 5.0, 3)
        mu = float(rng.uniform(0.0, 2.0))
        want = p_matrix(buffer, mu) @ (theta - theta_star)
        got = data_term(data_aggregates(buffer, mu), theta)
        assert np.abs(got - want).max() <= 1e-10
    finish(3, "data term equals P times error", start, 5.0)


def test_criterion_04_pointwise_certificate_sweep():
    start = time.perf_counter()
    sig = bundled_mix()
    buffer = consistent_buffer(sig, (0.0, 1.0, 2.0, 3.3, 4.1))
    kinds = (SystemKind.HT, SystemKind.HT_NORMALIZED, SystemKind.HT_CL,
             SystemKind.HT_NORMALIZED_CL, SystemKind.HT_B)
    for kind in kinds:
        needs_data = kind in BUFFER_KINDS
        report = check_decrease_pointwise(
            kind, sig, buffer if needs_data else None, CERTIFIED_GAINS,
            sample_count=10_000,
        )
        assert report.checked_points == 10_000
        assert report.tolerance == POINTWISE_TOLERANCE == 1e-9
        assert report.violations == 0, (kind, report.worst_margin)
    finish(4, "pointwise decrease sweep", start, 30.0)


def test_criterion_05_trajectory_monotonicity(request, fig1_scenario, fig2_scenario):
    start = time.perf_counter()
    pairs = (
        (fig1_scenario, request.getfixturevalue("fig1_runs")),
        (fig2_scenario, request.getfixturevalue("fig2_runs")),
    )
    checked = 0
    for scenario, results in pairs:
        for kind in scenario.systems:
            if kind in BASELINE_KINDS:
                continue
            trajectory, buffer = results[kind]
            values = lyapunov_along(
                kind, trajectory, scenario.signal, scenario.gains,
                buffer if kind in BUFFER_KINDS else None,
            )
            report = check_decrease_along(trajectory, values, scenario.sim.step_h)
            assert report.violations == 0, (kind, report.worst_margin)
            checked += report.checked_points
    assert SLACK_COEFF == 10.0
    assert checked >= 6 * 99_000  # six high-order systems at full resolution
    finish(5, "energy monotone along trajectories", start, 60.0)


def test_criterion_06_gradient_matches_finite_differences():
    start = time.perf_counter()
    sig = bundled_mix()
    rng = np.random.default_rng(11)
    delta = 1e-6

    def loss(phi, y_star, theta):
        r = float(phi @ theta) - y_star
        return 0.5 * r * r

    for _ in range(100):
        t = float(rng.uniform(0.0, 20.0))
        theta = rng.uniform(-5.0, 5.0, 3)
        phi, y_star = sig.eval(t)
        # basic's field is -1.0 times the loss gradient, exactly
        dtheta, _ = rhs(SystemKind.BASIC, TunerState.from_theta0(theta), t, sig, None,
                        CERTIFIED_GAINS)
        grad = -dtheta
        fd = np.empty(3)
        for i in range(3):
            bump = np.zeros(3)
            bump[i] = delta
            fd[i] = (loss(phi, y_star, theta + bump)
                     - loss(phi, y_star, theta - bump)) / (2.0 * delta)
        err = float(np.linalg.norm(fd - grad))
        assert err <= 1e-6 * max(1.0, float(np.linalg.norm(grad)))
    finish(6, "gradient matches finite differences", start, 1.0)


def test_criterion_07_euler_scalar_closed_form():
    start = time.perf_counter()
    sig = make_constant([1.0], [0.0])
    traj, _ = simulate(SystemKind.BASIC, sig, CERTIFIED_GAINS,
                       SimConfig(t_end=1.0, step_h=1e-3),
                       TunerState.from_theta0([1.0]))
    theta = traj.theta[:, 0]
    # the exact discrete solution, computed with the same elementary operations
    x = 1.0
    for k in range(traj.n_rows):
        assert theta[k] == x
        x = x + 1e-3 * (-x)
    powers = (1.0 - 1e-3) ** np.arange(traj.n_rows)
    assert np.abs(theta - powers).max() <= 1e-12
    assert abs(theta[-1] - np.exp(-1.0)) <= 1e-3
    finish(7, "Euler matches scalar closed form", start, 1.0)


def test_criterion_08_soft_reset_reduces_at_zero_gain():
    start = time.perf_counter()
    sig = bundled_mix()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2, beta_r=0.0)
    sim = SimConfig(t_end=100.0, step_h=1e-3, record_every=1)
    init = TunerState.from_theta0([1.0, -2.0, 4.0])
    plain, buf_a = simulate(SystemKind.HT_CL, sig, gains, sim, init,
                            epsilon=1.0, N_bar=10)
    soft, buf_b = simulate(SystemKind.HT_CL_SOFTRESET, sig, gains, sim, init,
                           epsilon=1.0, N_bar=10)
    for name in ("t", "theta", "vartheta", "err_norm", "p_norm", "n_samples"):
        assert np.array_equal(getattr(plain, name), getattr(soft, name)), name
    from hotuner import buffer_csv

    assert buffer_csv(buf_a) == buffer_csv(buf_b)
    thin_plain = Trajectory(SystemKind.HT_CL, plain.t[::100], plain.theta[::100],
                            plain.vartheta[::100], plain.err_norm[::100],
                            plain.p_norm[::100], plain.n_samples[::100])
    thin_soft = Trajectory(SystemKind.HT_CL, soft.t[::100], soft.theta[::100],
                           soft.vartheta[::100], soft.err_norm[::100],
                           soft.p_norm[::100], soft.n_samples[::100])
    assert thin_plain.to_csv() == thin_soft.to_csv()
    finish(8, "soft reset reduces at zero gain", start, 10.0)


def test_criterion_09_recorded_data_speeds_convergence(request, reference,
                                                       fig1_scenario, fig2_scenario):
    fig1 = request.getfixturevalue("fig1_runs")
    fig2 = request.getfixturevalue("fig2_runs")
    start = time.perf_counter()
    tol = 2.0 * GRID_STEP + 1e-9
    crossing = {}
    for name, scenario, runs in (("fig1", fig1_scenario, fig1),
                                 ("fig2", fig2_scenario, fig2)):
        for kind in scenario.systems:
            trajectory, _ = runs[kind]
            for fraction, key in ((1e-1, "t_to_1e-1"), (1e-2, "t_to_1e-2"),
                                  (1e-3, "t_to_1e-3")):
                reached = first_crossing(trajectory, fraction)
                want = reference[name][kind.value][key]
                assert reached is not None, (kind, fraction)
                assert abs(reached - want) <= tol, (kind, key, reached, want)
                crossing[kind, fraction] = reached
    assert crossing[SystemKind.HT_CL, 1e-2] <= crossing[SystemKind.HT, 1e-2]
    assert crossing[SystemKind.BASIC_CL, 1e-2] <= crossing[SystemKind.BASIC, 1e-2]
    assert (crossing[SystemKind.HT_NORMALIZED_CL, 1e-2]
            <= crossing[SystemKind.HT_NORMALIZED, 1e-2])
    assert (crossing[SystemKind.BASIC_NORMALIZED_CL, 1e-2]
            <= crossing[SystemKind.BASIC_NORMALIZED, 1e-2])
    finish(9, "recorded data speeds convergence", start, 60.0)


def test_criterion_10_start_time_uniformity():
    start = time.perf_counter()
    sig = bundled_mix()
    theta0 = sig.theta_star + 3.0  # same initial error at every start time
    elapsed_times = []
    for t_start in (0.0, 25.0, 50.0):
        sim = SimConfig(t_end=t_start + 50.0, t_start=t_start, step_h=1e-3)
        traj, _ = simulate(SystemKind.HT, sig, CERTIFIED_GAINS, sim,
                           TunerState.from_theta0(theta0))
        reached = first_crossing(traj, 1e-2)
        assert reached is not None, t_start
        elapsed_times.append(reached - t_start)
    spread = (max(elapsed_times) - min(elapsed_times)) / min(elapsed_times)
    assert spread <= 0.20, elapsed_times
    finish(10, "convergence time is start-time uniform", start, 30.0)


def test_criterion_11_decay_rate_fit(request, fig1_scenario):
    fig1 = request.getfixturevalue("fig1_runs")
    start = time.perf_counter()
    for kind in (SystemKind.HT, SystemKind.HT_CL, SystemKind.HT_CL_SOFTRESET):
        trajectory, _ = fig1[kind]
        alpha, _, quality = estimate_decay_rate(trajectory)
        assert alpha > 0.0, (kind, alpha)
        assert quality >= 0.8, (kind, quality)
    t = np.linspace(0.0, 20.0, 2001)
    synthetic = Trajectory(
        kind=SystemKind.HT,
        t=t,
        theta=np.zeros((t.shape[0], 1)),
        vartheta=np.zeros((t.shape[0], 1)),
        err_norm=np.exp(-0.5 * t),
        p_norm=np.zeros(t.shape[0]),
        n_samples=np.zeros(t.shape[0], dtype=int),
    )
    alpha, _, _ = estimate_decay_rate(synthetic)
    assert abs(alpha - 0.5) <= 1e-3
    finish(11, "exponential rate fit", start, 10.0)


def test_criterion_12_online_recording_freezes(request, reference):
    fig1 = request.getfixturevalue("fig1_runs")
    start = time.perf_counter()
    trajectory, buffer = fig1[SystemKind.HT_CL]
    assert len(buffer) == 10
    report = richness(buffer, CERTIFIED_GAINS.mu)
    assert report.sufficient and report.rank_D == 3
    want = reference["fig1"]["ht_cl"]["freeze_t_k"]
    assert abs(buffer.t[-1] - want) <= 2.0 * GRID_STEP + 1e-9
    assert int(trajectory.n_samples[-1]) == 10
    finish(12, "online recording freezes the buffer", start, 10.0)
