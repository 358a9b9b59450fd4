"""Shared fixtures: bundled scenarios, full-resolution reference runs, frozen values."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hotuner import SimConfig, TunerState, simulate
from hotuner.cli import bundled_scenario_path, load_scenario

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def time_to_fraction(trajectory, fraction):
    """First trajectory time at which err_norm falls to fraction of its start value."""
    target = fraction * trajectory.err_norm[0]
    hits = np.nonzero(trajectory.err_norm <= target)[0]
    return None if hits.shape[0] == 0 else float(trajectory.t[hits[0]])


def run_all(scenario):
    """Rerun every system of a scenario at per-step output resolution."""
    sim = SimConfig(
        t_end=scenario.sim.t_end,
        t_start=scenario.sim.t_start,
        step_h=scenario.sim.step_h,
        record_every=1,
        seed=scenario.sim.seed,
    )
    results = {}
    for kind in scenario.systems:
        results[kind] = simulate(
            kind,
            scenario.signal,
            scenario.gains,
            sim,
            TunerState.from_theta0(scenario.init_theta0),
            epsilon=scenario.cl_epsilon,
            N_bar=scenario.cl_N_bar,
        )
    return results


@pytest.fixture(scope="session")
def reference():
    return json.loads((FIXTURE_DIR / "reference_times.json").read_text())


@pytest.fixture(scope="session")
def fig1_scenario():
    return load_scenario(bundled_scenario_path("fig1"))


@pytest.fixture(scope="session")
def fig2_scenario():
    return load_scenario(bundled_scenario_path("fig2"))


@pytest.fixture(scope="session")
def fig1_runs(fig1_scenario):
    return run_all(fig1_scenario)


@pytest.fixture(scope="session")
def fig2_runs(fig2_scenario):
    return run_all(fig2_scenario)


# finish() in test_acceptance.py prints the first on success; its budget
# assertion carries the second on failure.
_TIMING = (
    re.compile(r"PASS in (\d\S*s) \(budget ([^)]*)\)"),
    re.compile(r"took (\d\S*s) \(budget ([^)]*)\)"),
)


def _timing(rep) -> str:
    """' in 0.31s (budget 1s)' from a criterion's call report, or '' if it has none."""
    texts = (getattr(rep, "capstdout", ""), str(getattr(rep, "longrepr", "") or ""))
    for pattern, text in zip(_TIMING, texts):
        match = pattern.search(text)
        if match:
            return f" in {match.group(1)} (budget {match.group(2)})"
    return ""


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one line per acceptance criterion so the verdicts are easy to scan."""
    outcomes: dict[int, tuple[str, bool | None, str]] = {}
    for reports in terminalreporter.stats.values():
        for rep in reports:
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            tail = nodeid.split("::test_criterion_", 1)[1]
            num = int(tail.split("_", 1)[0])
            label = tail.split("_", 1)[1].replace("_", " ")
            failed = getattr(rep, "outcome", "") == "failed"
            called = getattr(rep, "when", None) == "call"
            _, ok, timing = outcomes.get(num, (label, None, ""))
            if failed:
                ok = False
            elif called and ok is None:
                ok = True
            if called:
                timing = _timing(rep)
            outcomes[num] = (label, ok, timing)
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(outcomes):
        label, ok, timing = outcomes[num]
        # Deselected or skipped criteria have no call report: they did not run.
        verdict = "not run" if ok is None else "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} ({label}): {verdict}{timing}")
