"""Byte-identity cases of the command line: exit codes and output hashes.

Each case runs `python -m hotuner` in a fresh process, always with the same
--out-dir path, and records the exit code and the sha256 of stdout, stderr and
every file the command wrote, in one JSON file. Two trees that write the same
JSON file behave byte for byte the same on every case. pytest does not collect
this file. To compare a parent tree with a changed one, run from either tree:

    PYTHONPATH=<parent>/src python tests/identity_cases.py parent.json
    PYTHONPATH=<change>/src python tests/identity_cases.py change.json
    cmp parent.json change.json

Scenario files and outputs go under hotuner_identity/ in the temporary
directory, which is emptied first; the bundled scenarios are copied there, so
no output names the tree they came from.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from hotuner.cli import bundled_scenario_path
from test_golden_certify import RECORDING

WORK = Path(tempfile.gettempdir()) / "hotuner_identity"
OUT = WORK / "out"
VERBS = ("run", "certify", "pe-check")

# fig1 with both soft-reset kinds from a start whose square overflows.
HUGE_START = {
    "systems": ["ht_cl_softreset", "ht_normalized_cl_softreset"],
    "init": {"theta0": [1e160, 0.0, 0.0]},
}

# fig1 variants where a square overflows: the bound on |phi|, through an offset
# or an amplitude, the window Grams, and the window length in the moments.
OVERFLOWS = {
    "phi_square": ("signal", {"offsets": [1e155, 1.0, 1.0]}),
    "amplitude_square": ("signal", {"amplitudes": [0.0, 1e160, 1.0]}),
    "window_grams": ("signal", {"offsets": [1e154, 1.0, 1.0]}),
    "window_square": ("pe", {"window_T": 1e155, "scan_horizon": 1e155, "scan_step": 1e155}),
}

CASES = [
    (verb, name, extra)
    for name in ("fig1", "fig2")
    for extra in (["--t-end", "15"], ["--t-end", "100"], ["--t-end", "20", "--seed", "3"],
                  ["--t-end", "0.2", "--step", "0.002"])
    for verb in VERBS
] + [
    (verb, "recording", ["--t-end", "20", "--seed", str(seed)])
    for seed in (0, 3) for verb in VERBS
] + [
    ("run", "recording", ["--t-end", "100", "--system", "ht_cl_softreset"]),
    ("run", "huge_start", ["--t-end", "0.005"]),
    ("certify", "huge_start", ["--t-end", "0.005"]),
    ("certify", "fig1", ["--system", "ht_cl_softreset"]),
    ("certify", "fig1", ["--system", "basic"]),
] + [
    (verb, name, ["--t-end", "1"]) for name in OVERFLOWS for verb in VERBS
] + [
    ("run", "fig1", ["--t-end", "15", "--step", "0.3"]),
    ("run", "fig1", ["--system", "ht", "--system", "ht"]),
] + [
    (verb, "offline", ["--t-end", "1"]) for verb in VERBS
] + [
    ("certify", "fig1", ["--t-end", "0"]),
    ("run", "rate", ["--t-end", "15"]),
    ("certify", "rate", ["--t-end", "15"]),
    ("run", "repeated", ["--t-end", "1"]),
    ("run", "old_mode", ["--t-end", "1"]),
    ("run", "theta0", ["--t-end", "1"]),
    ("certify", "fig1", ["--t-end", "15.05"]),
    ("run", "stride", ["--t-end", "1"]),
    ("certify", "stride", ["--t-end", "1"]),
    ("run", "long_name", ["--t-end", "0.2"]),
    ("run", "surrogate", ["--t-end", "1"]),
]


def write_scenarios() -> None:
    """fig1, fig2 and their variants of CASES, as files in WORK."""
    fig1 = json.loads(bundled_scenario_path("fig1").read_text())
    fig2 = json.loads(bundled_scenario_path("fig2").read_text())
    recording = {**fig1, **RECORDING, "sim": {**fig1["sim"], **RECORDING["sim"]}}
    for name, scenario in (
        ("fig1", fig1),
        ("fig2", fig2),
        ("recording", recording),
        ("huge_start", {**fig1, **HUGE_START, "name": "huge_start"}),
        # a kind that reads no recorded data, with cl.online false
        ("offline", {**fig1, "name": "offline", "systems": ["ht"],
                     "cl": {**fig1["cl"], "online": False}}),
        # gains under which beta >= 2 gamma / mu fails
        ("rate", {**fig1, "name": "rate", "gains": {**fig1["gains"], "gamma": 0.9}}),
        # the retired init.mode, and the start given by init.theta0 alone
        ("old_mode", {**fig1, "name": "old_mode", "init": {"mode": "random"}}),
        ("theta0", {**fig1, "name": "theta0", "init": {"theta0": [4.0, -3.0, 2.5]}}),
        # a record_every beyond int64
        ("stride", {**fig1, "name": "stride", "sim": {**fig1["sim"], "record_every": 10**20}}),
        # a name one byte too long for the longest output file name, and one
        # that does not encode to UTF-8
        ("long_name", {**fig2, "name": "n" * 218}),
        ("surrogate", {**fig1, "name": "\ud800"}),
    ) + tuple(
        (name, {**fig1, "name": name, section: {**fig1.get(section, {}), **edits}})
        for name, (section, edits) in OVERFLOWS.items()
    ):
        (WORK / f"{name}.json").write_text(json.dumps(scenario))
    # a gains object set twice, the first with beta = 9
    text = json.dumps({**fig1, "name": "repeated"})
    (WORK / "repeated.json").write_text(
        text.replace('"gains": {', '"gains": {"beta": 9.0, "gamma": 0.1, "mu": 0.2}, "gains": {'))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(verb: str, name: str, extra: list[str]) -> dict:
    """Run one command in a fresh process on an empty OUT; hash what it left."""
    shutil.rmtree(OUT, ignore_errors=True)
    done = subprocess.run(
        [sys.executable, "-m", "hotuner", verb, f"{name}.json", "--out-dir", str(OUT), *extra],
        cwd=WORK, capture_output=True,
    )
    files = sorted(path for path in OUT.rglob("*") if path.is_file()) if OUT.exists() else []
    return {
        "exit": done.returncode,
        "stdout": sha256(done.stdout),
        "stderr": sha256(done.stderr),
        "files": {path.relative_to(OUT).as_posix(): sha256(path.read_bytes()) for path in files},
    }


def main(target: str) -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    write_scenarios()
    results = {" ".join((verb, name, *extra)): run_case(verb, name, extra)
               for verb, name, extra in CASES}
    shutil.rmtree(WORK)
    Path(target).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"{len(results)} cases written to {target}")


if __name__ == "__main__":
    main(sys.argv[1])
