"""The grid-precomputed Euler kernel against a plain step-by-step reference.

The reference below evaluates the signal, and the one-step recording rule and
rhs of oracles.py, once per step, the way the integrator did before it
precomputed its inputs. The kernel must reproduce it bit for bit, and the CLI
outputs for the bundled scenarios must keep their recorded sha256. rhs is the
numpy closure of oracles.py (reference_field) at one point, which shares no
code with the kernel's generated loop, so a change in how that loop's field
rounds fails here as well as in the golden hashes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from hotuner import (
    BUFFER_KINDS,
    DataBuffer,
    Gains,
    RegressorSignal,
    SignalGrid,
    SimConfig,
    SystemKind,
    TunerState,
    buffer_csv,
    simulate,
    simulate_with_buffer,
)
from hotuner.cli import bundled_scenario_path, main
from oracles import eval_at, maybe_record, rhs

FIXTURES = Path(__file__).parent / "fixtures"
GAINS = Gains(beta=1.0, gamma=0.1, mu=0.2, beta_r=4.0)
THETA0 = [0.5, -2.0, 1.0, 3.0]


def signal4():
    return RegressorSignal(
        [1, 1, 1, 0.5], [0, 3, 3, 2], [0, 4, 4, 9], [0, 0, np.pi / 2, 1.0],
        [2.0, -1.0, 0.5, 1.5],
    )


def reference_run(kind, signal, gains, sim, init, buffer, policy=None):
    """Euler with per-step signal evaluation, recording and rhs calls.

    policy is the (capacity, epsilon) of online recording, None for a fixed buffer.
    A kind without a data term counts no samples, whatever the buffer holds.
    """
    h, num_steps = sim.step_h, sim.num_steps
    theta, vartheta = init.theta.copy(), init.vartheta.copy()
    records = policy is not None and kind in BUFFER_KINDS
    rows = []
    for k in range(num_steps + 1):
        t = sim.t_start + k * h
        if records and k < num_steps and len(buffer) < policy[0]:
            phi, y_star = eval_at(signal, t)
            buffer, _ = maybe_record(buffer, t, phi, y_star, *policy)
        if k % sim.record_every == 0 or k == num_steps:
            rows.append((
                t, theta, vartheta,
                np.linalg.norm(theta - signal.theta_star),
                np.linalg.norm(vartheta - theta),
                len(buffer) if kind in BUFFER_KINDS else 0,
            ))
        if k == num_steps:
            break
        dtheta, dvartheta = rhs(kind, TunerState(theta, vartheta), t, signal, buffer, gains)
        theta = theta + h * dtheta
        vartheta = vartheta + h * dvartheta
    return [np.array(column) for column in zip(*rows)], buffer


def assert_same(trajectory, columns):
    mine = (trajectory.t, trajectory.theta, trajectory.vartheta, trajectory.err_norm,
            trajectory.p_norm, trajectory.n_samples)
    for name, got, want in zip(("t", "theta", "vartheta", "err_norm", "p_norm",
                                "n_samples"), mine, columns):
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("epsilon,n_bar", [(1.0, 6), (0.05, 1000)],
                         ids=["freezing", "growing"])
@pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
def test_online_kernel_matches_reference_bitwise(kind, epsilon, n_bar, every):
    signal = signal4()
    sim = SimConfig(t_end=1.5, record_every=every)
    init = TunerState.from_theta0(THETA0)
    trajectory, buffer = simulate(kind, signal, GAINS, sim, init,
                                  epsilon=epsilon, N_bar=n_bar)
    columns, ref_buffer = reference_run(kind, signal, GAINS, sim, init,
                                        DataBuffer.empty(), policy=(n_bar, epsilon))
    assert_same(trajectory, columns)
    assert len(buffer) == len(ref_buffer)
    assert buffer_csv(buffer) == buffer_csv(ref_buffer)
    if kind in BUFFER_KINDS:
        # The cases cover a buffer that freezes mid-run and one that keeps growing.
        assert (len(buffer) == n_bar) == (n_bar == 6)
        assert len(buffer) >= 6


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
def test_prefilled_kernel_matches_reference_bitwise(kind, every):
    signal = signal4()
    times = [0.1, 0.35, 0.8, 1.3, 2.9]
    phis, y_stars = signal.eval_grid(np.array(times))
    buffer = DataBuffer.from_samples(phis, y_stars, times=times)
    sim = SimConfig(t_end=1.5, record_every=every)
    init = TunerState.from_theta0(THETA0)
    trajectory = simulate_with_buffer(kind, signal, GAINS, sim, init, buffer)
    columns, _ = reference_run(kind, signal, GAINS, sim, init, buffer)
    assert_same(trajectory, columns)


def test_shared_grid_must_match_the_run():
    signal = signal4()
    sim = SimConfig(t_end=1.0)
    grid = SignalGrid(signal, sim)
    init = TunerState.from_theta0(THETA0)
    shared, _ = simulate(SystemKind.HT, signal, GAINS, sim, init, grid=grid)
    alone, _ = simulate(SystemKind.HT, signal, GAINS, sim, init)
    assert shared.to_csv() == alone.to_csv()
    with pytest.raises(ValueError, match="another signal or time grid"):
        simulate(SystemKind.HT, signal, GAINS, SimConfig(t_end=2.0), init, grid=grid)


def test_run_outputs_keep_golden_hashes(tmp_path):
    golden = json.loads((FIXTURES / "golden_run.json").read_text())
    for name in ("fig1", "fig2"):
        argv = ["run", str(bundled_scenario_path(name)), "--out-dir", str(tmp_path)]
        assert main(argv + golden["argv"]) == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(golden["files"])
    for filename, digest in golden["files"].items():
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest, filename


def test_recording_outputs_keep_golden_hashes(tmp_path):
    """ht_b and both soft-reset kinds on a buffer that keeps growing, every row written."""
    golden = json.loads((FIXTURES / "golden_recording.json").read_text())
    scenario = tmp_path / "recording.json"
    scenario.write_text(json.dumps(golden["scenario"]))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out-dir", str(out)] + golden["argv"]) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(golden["files"])
    for filename, digest in golden["files"].items():
        assert hashlib.sha256((out / filename).read_bytes()).hexdigest() == digest, filename
