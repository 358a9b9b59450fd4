"""Contract for `certify` and `pe-check`: exit codes, certificate rows and PE figures.

tests/fixtures/golden_certify.json holds what both commands reported on fig1 and
fig2 at t_end 15 (seeds 0 and 3) and on fig1 with the bench `recording` edits at
a short horizon. Exit codes, the M_hat cell and each row's (system, check,
checked_points, violations) must match exactly; worst_margin and delta_hat may
move by rounding only (1e-12 relative), since the moment matrices may round
differently.

To re-record after a deliberate change of the certificates:

    PYTHONPATH=src python tests/test_golden_certify.py
"""

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from hotuner.cli import bundled_scenario_path, main

FIXTURE = Path(__file__).parent / "fixtures" / "golden_certify.json"
RELATIVE = 1e-12

# fig1 with the bench `recording` workload's edits; the horizon comes from argv.
RECORDING = {
    "name": "recording",
    "systems": ["ht_b", "ht_normalized_cl_softreset", "ht_cl_softreset"],
    "cl": {"epsilon": 0.05, "N_bar": 1000, "online": True},
    "sim": {"record_every": 1},
    "pe": {"scan_horizon": 32.0 * math.pi, "scan_step": 0.1},
}

CASES = [
    (name, ["--t-end", "15", "--seed", str(seed)]) for name in ("fig1", "fig2") for seed in (0, 3)
] + [("recording", ["--t-end", "3", "--seed", str(seed)]) for seed in (0, 3)]


def _scenario_file(name: str, work: Path) -> Path:
    if name != "recording":
        return bundled_scenario_path(name)
    scenario = json.loads(bundled_scenario_path("fig1").read_text())
    for key, value in RECORDING.items():
        scenario[key] = {**scenario[key], **value} if key == "sim" else value
    path = work / "recording.json"
    path.write_text(json.dumps(scenario))
    return path


def _rows(path: Path) -> list[dict]:
    with path.open() as handle:
        return list(csv.DictReader(handle))


def outcome(name: str, argv: list[str], work: Path) -> dict:
    """Run certify and pe-check once and collect the contracted values."""
    config = str(_scenario_file(name, work))
    certify_out, pe_out = work / "certify", work / "pe"
    certify_exit = main(["certify", config, "--out-dir", str(certify_out)] + argv)
    pe_exit = main(["pe-check", config, "--out-dir", str(pe_out)] + argv)
    stem = Path(config).stem
    rows = [
        [row["system"], row["check"], int(row["checked_points"]), int(row["violations"]),
         float(row["worst_margin"])]
        for row in _rows(certify_out / f"{stem}_certificates.csv")
    ]
    (pe_row,) = _rows(pe_out / f"{stem}_pe.csv")
    return {
        "certify_exit": certify_exit,
        "rows": rows,
        "pe_exit": pe_exit,
        "delta_hat": float(pe_row["delta_hat"]),
        "M_hat": pe_row["M_hat"],
    }


def _close(got: float, want: float) -> bool:
    if got == want:
        return True
    return math.isfinite(want) and abs(got - want) <= RELATIVE * abs(want)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name,argv", CASES, ids=[f"{n}-seed{a[-1]}" for n, a in CASES])
def test_certify_and_pe_check_keep_the_recorded_contract(golden, name, argv, tmp_path, capsys):
    want = golden["cases"][f"{name} {' '.join(argv)}"]
    got = outcome(name, argv, tmp_path)
    capsys.readouterr()
    assert got["certify_exit"] == want["certify_exit"]
    assert got["pe_exit"] == want["pe_exit"]
    assert got["M_hat"] == want["M_hat"]
    assert _close(got["delta_hat"], want["delta_hat"]), (got["delta_hat"], want["delta_hat"])
    assert [row[:4] for row in got["rows"]] == [row[:4] for row in want["rows"]]
    for mine, theirs in zip(got["rows"], want["rows"]):
        assert _close(mine[4], theirs[4]), (mine, theirs)


def record() -> None:
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for index, (name, argv) in enumerate(CASES):
            work = Path(tmp) / str(index)
            work.mkdir()
            cases[f"{name} {' '.join(argv)}"] = outcome(name, argv, work)
    FIXTURE.write_text(json.dumps({
        "about": "certify and pe-check outcomes per case (scenario, then CLI flags): "
                 "exit codes, certificate rows [system, check, checked_points, "
                 "violations, worst_margin], delta_hat and the M_hat cell as written. "
                 "'recording' is fig1 with the bench recording workload's edits.",
        "cases": cases,
    }, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(record())
