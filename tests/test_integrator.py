"""Fixed-step integration: exact recursions, convergence order, output plumbing."""

import math

import numpy as np
import pytest

from hotuner import (
    DataBuffer,
    Gains,
    NumericalDivergence,
    SimConfig,
    SystemKind,
    Trajectory,
    TunerState,
    make_constant,
    make_sinusoid_mix,
    simulate,
    simulate_with_buffer,
)
from test_kernel import reference_run

PI = np.pi


def mix3():
    return make_sinusoid_mix(
        3, [1, 1, 1], [0, 3, 3], [0, 1, 1], [0, 0, PI / 2], [2.0, -1.0, 0.5]
    )


def test_sim_config():
    sim = SimConfig(t_end=1.0, step_h=1e-3)
    assert sim.num_steps == 1000
    assert SimConfig(t_end=5.0, t_start=5.0).num_steps == 0
    with pytest.raises(ValueError):
        SimConfig(t_end=1.0, step_h=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=0.0, t_start=1.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=1.0, record_every=0)


def test_scalar_gradient_recursion_is_exact():
    """Pure decay theta' = -theta reproduces the float recursion bit for bit."""
    sig = make_constant([1.0], [0.0])
    gains = Gains(beta=1.0, gamma=1.0, mu=0.0)
    sim = SimConfig(t_end=1.0, step_h=1e-3)
    traj, _ = simulate(SystemKind.BASIC, sig, gains, sim, TunerState.from_theta0([1.0]))
    x = 1.0
    h = 1e-3
    for k in range(traj.n_rows):
        assert traj.theta[k, 0] == x
        x = x + h * (-x)
    assert abs(traj.theta[-1, 0] - (1.0 - h) ** 1000) < 1e-12
    assert abs(traj.theta[-1, 0] - np.exp(-1.0)) < 1e-3


def test_equilibrium_stays_put():
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2, beta_r=4.0)
    sim = SimConfig(t_end=2.0, step_h=1e-3)
    init = TunerState.from_theta0(sig.theta_star)
    for kind in (SystemKind.BASIC, SystemKind.HT, SystemKind.HT_CL_SOFTRESET):
        traj, _ = simulate(kind, sig, gains, sim, init,
                           epsilon=1.0, N_bar=5)
        assert np.abs(traj.theta - sig.theta_star).max() < 1e-9
        assert traj.err_norm.max() < 1e-9
        assert traj.p_norm.max() < 1e-9


def test_simulation_is_deterministic():
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2)
    sim = SimConfig(t_end=3.0, step_h=1e-3)
    init = TunerState.from_theta0([0.0, 1.0, -2.0])
    a, _ = simulate(SystemKind.HT_CL, sig, gains, sim, init,
                    epsilon=1.0, N_bar=10)
    b, _ = simulate(SystemKind.HT_CL, sig, gains, sim, init,
                    epsilon=1.0, N_bar=10)
    assert a.to_csv() == b.to_csv()


def test_soft_reset_with_zero_strength_is_identical():
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2, beta_r=0.0)
    sim = SimConfig(t_end=5.0, step_h=1e-3)
    init = TunerState.from_theta0([1.0, -1.0, 2.0])
    a, _ = simulate(SystemKind.HT_CL, sig, gains, sim, init,
                    epsilon=1.0, N_bar=10)
    b, _ = simulate(SystemKind.HT_CL_SOFTRESET, sig, gains, sim, init,
                    epsilon=1.0, N_bar=10)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.vartheta, b.vartheta)
    assert a.to_csv() == b.to_csv()


def test_euler_first_order_convergence():
    """Halving the step roughly halves the endpoint error against a fine run."""
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.5, mu=0.2)
    init = TunerState.from_theta0([0.0, 0.0, 0.0])

    def endpoint(h):
        sim = SimConfig(t_end=1.0, step_h=h, record_every=max(1, round(1.0 / h)))
        traj, _ = simulate(SystemKind.HT, sig, gains, sim, init)
        return np.concatenate([traj.theta[-1], traj.vartheta[-1]])

    fine = endpoint(1e-5)
    err_coarse = np.linalg.norm(endpoint(1e-2) - fine)
    err_half = np.linalg.norm(endpoint(5e-3) - fine)
    assert err_coarse > 0.0
    assert 1.5 < err_coarse / err_half < 2.5


def test_constant_signal_start_time_is_irrelevant():
    sig = make_constant([1.0, -2.0], [0.5, 0.5])
    gains = Gains(beta=1.0, gamma=0.3, mu=0.1)
    init = TunerState.from_theta0([2.0, 2.0])
    a, _ = simulate(SystemKind.HT, sig, gains, SimConfig(t_end=4.0), init)
    b, _ = simulate(SystemKind.HT, sig, gains,
                    SimConfig(t_start=7.0, t_end=11.0), init)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.vartheta, b.vartheta)
    assert b.t[0] == 7.0


def test_shifted_signal_matches_shifted_start():
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2)
    init = TunerState.from_theta0([1.0, 0.0, -1.0])
    a, _ = simulate(SystemKind.HT, sig, gains,
                    SimConfig(t_start=5.0, t_end=7.0), init)
    b, _ = simulate(SystemKind.HT, sig.shifted(5.0), gains,
                    SimConfig(t_end=2.0), init)
    assert np.abs(a.theta - b.theta).max() < 1e-9
    assert np.abs(a.vartheta - b.vartheta).max() < 1e-9


def test_data_only_flow_leaves_null_directions_alone():
    """ht_b with rank-deficient data never moves the unexcited component."""
    sig = make_constant([1.0, 0.0], [0.0, 0.0])
    buffer = DataBuffer.from_samples([[1.0, 0.0]], [0.0])
    gains = Gains(beta=1.0, gamma=0.5, mu=0.2)
    init = TunerState.from_theta0([3.0, 4.0])
    traj = simulate_with_buffer(SystemKind.HT_B, sig, gains,
                                SimConfig(t_end=10.0), init, buffer)
    assert np.abs(traj.theta[:, 1] - 4.0).max() < 1e-10
    assert np.abs(traj.theta[-1, 0]) < 0.1  # excited component does converge


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_raises():
    sig = make_constant([1.0], [0.0])
    gains = Gains(beta=1e8, gamma=1e8, mu=0.0)
    sim = SimConfig(t_end=1.0, step_h=1e-3)
    with pytest.raises(NumericalDivergence, match="non-finite"):
        simulate(SystemKind.HT, sig, gains, sim, TunerState.from_theta0([1.0]))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("every", [1, 100])
def test_divergence_report_names_the_first_non_finite_step(every):
    sig = make_constant([1.0], [0.0])
    gains = Gains(beta=1e8, gamma=1e8, mu=0.0)
    sim = SimConfig(t_end=1.0, record_every=every)
    with pytest.raises(NumericalDivergence) as caught:
        simulate(SystemKind.HT, sig, gains, sim, TunerState.from_theta0([1.0]))
    assert str(caught.value) == "non-finite state for 'ht' at t=0.062 (after step 62)"


DIVERGING = {
    # ht on the pinned case above: both halves of the state step together.
    SystemKind.HT: (1.0, Gains(beta=1e8, gamma=1e8, mu=0.0)),
    # basic steps the theta half only: theta <- theta (1 - h phi^2) blows up.
    SystemKind.BASIC: (1e3, Gains(beta=1.0, gamma=1.0, mu=0.0)),
    # ht_cl reads the data term of the sample recorded at step 0.
    SystemKind.HT_CL: (1.0, Gains(beta=1e8, gamma=1e8, mu=0.0)),
}


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("every", [1, 100])
@pytest.mark.parametrize("kind", list(DIVERGING), ids=lambda k: k.value)
def test_divergence_report_matches_the_reference_stepper(kind, every):
    """The report names the step at which the per-step reference first leaves the finite."""
    phi, gains = DIVERGING[kind]
    sig = make_constant([phi], [0.0])
    init = TunerState.from_theta0([1.0])
    epsilon, n_bar = 1.0, 4
    reference = SimConfig(t_end=1.0)
    (t, theta, vartheta, *_), _ = reference_run(
        kind, sig, gains, reference, init, DataBuffer.empty(), policy=(n_bar, epsilon)
    )
    finite = np.isfinite(theta).all(axis=1) & np.isfinite(vartheta).all(axis=1)
    assert not finite.all()
    step = int(np.argmin(finite))
    expected = (f"non-finite state for '{kind.value}' at "
                f"t={t[step - 1] + reference.step_h:.6g} (after step {step})")
    sim = SimConfig(t_end=1.0, record_every=every)
    with pytest.raises(NumericalDivergence) as caught:
        simulate(kind, sig, gains, sim, init, epsilon=epsilon, N_bar=n_bar)
    assert str(caught.value) == expected


def test_horizon_must_be_whole_number_of_steps():
    with pytest.raises(ValueError, match=r"1\.05.* 0\.1 .*10\.5"):
        SimConfig(t_end=1.05, step_h=0.1)
    with pytest.raises(ValueError, match="whole number of steps"):
        SimConfig(t_end=1.0005, step_h=1e-3)
    # Rounding noise in the quotient is not an error.
    assert SimConfig(t_end=10.3, t_start=0.3, step_h=1e-3).num_steps == 10000
    assert SimConfig(t_end=15.0, step_h=1e-3).num_steps == 15000
    assert SimConfig(t_end=0.3, step_h=0.1).num_steps == 3


def test_simulate_argument_guards():
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2)
    sim = SimConfig(t_end=1.0)
    init = TunerState.from_theta0([0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="epsilon and N_bar.*simulate_with_buffer"):
        simulate(SystemKind.HT_CL, sig, gains, sim, init)
    with pytest.raises(ValueError, match="nonempty"):
        simulate_with_buffer(SystemKind.HT_CL, sig, gains, sim, init,
                             DataBuffer.empty())
    with pytest.raises(ValueError, match="dimension"):
        simulate(SystemKind.HT, sig, gains, sim, TunerState.from_theta0([0.0]))
    # A NaN threshold used to keep only the unconditional first sample.
    with pytest.raises(ValueError, match="epsilon must be positive"):
        simulate(SystemKind.HT_CL, sig, gains, sim, init, epsilon=math.nan, N_bar=5)


def test_online_recording_freezes_at_capacity():
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2)
    sim = SimConfig(t_end=10.0, step_h=1e-3)
    init = TunerState.from_theta0([0.0, 0.0, 0.0])
    traj, buffer = simulate(SystemKind.HT_CL, sig, gains, sim, init,
                            epsilon=1.0, N_bar=4)
    assert len(buffer) == 4
    assert traj.n_samples[0] == 1  # unconditional first record at t_start
    assert traj.n_samples[-1] == 4
    diffs = np.diff(traj.n_samples)
    assert diffs.min() >= 0 and diffs.max() <= 1


def test_record_every_decimates_only_output():
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2)
    init = TunerState.from_theta0([1.0, 1.0, 1.0])
    full, _ = simulate(SystemKind.HT_CL, sig, gains,
                       SimConfig(t_end=2.0, record_every=1), init,
                       epsilon=1.0, N_bar=10)
    thin, _ = simulate(SystemKind.HT_CL, sig, gains,
                       SimConfig(t_end=2.0, record_every=10), init,
                       epsilon=1.0, N_bar=10)
    assert thin.n_rows == full.n_rows // 10 + 1
    assert np.array_equal(thin.theta, full.theta[::10])
    assert np.array_equal(thin.n_samples, full.n_samples[::10])


def test_single_row_run():
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2)
    traj, _ = simulate(SystemKind.HT, sig, gains,
                       SimConfig(t_end=3.0, t_start=3.0),
                       TunerState.from_theta0([1.0, 2.0, 3.0]))
    assert traj.n_rows == 1
    assert traj.t[0] == 3.0
    assert np.array_equal(traj.theta[0], [1.0, 2.0, 3.0])


def test_csv_round_trip():
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2)
    traj, _ = simulate(SystemKind.HT, sig, gains,
                       SimConfig(t_end=0.5, record_every=100),
                       TunerState.from_theta0([1.0, -1.0, 0.5]))
    lines = traj.to_csv().strip().split("\n")
    head = lines[0].split(",")
    assert head == ["t", "theta_1", "theta_2", "theta_3",
                    "vartheta_1", "vartheta_2", "vartheta_3",
                    "err_norm", "p_norm", "n_samples"]
    assert len(lines) == traj.n_rows + 1
    for k, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert float(cells[0]) == traj.t[k]
        assert [float(c) for c in cells[1:4]] == list(traj.theta[k])
        assert float(cells[7]) == traj.err_norm[k]
        assert int(cells[9]) == traj.n_samples[k]


def test_trajectory_time_grid():
    sig = mix3()
    gains = Gains(beta=1.0, gamma=0.1, mu=0.2)
    traj, _ = simulate(SystemKind.HT, sig, gains,
                       SimConfig(t_end=1.0, step_h=1e-3, record_every=100),
                       TunerState.from_theta0([0.0, 0.0, 0.0]))
    assert traj.n_rows == 11
    assert abs(traj.t[-1] - 1.0) < 1e-9
    assert np.allclose(np.diff(traj.t), 0.1, atol=1e-12)
