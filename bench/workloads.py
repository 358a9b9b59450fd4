"""Workload definitions, seeded scenario files and output checks.

Each workload is a list of CLI commands run one at a time. Scenario files are
derived from the bundled fig1/fig2 scenarios of the checkout and written to the
work directory; the seed reaches the program only as the CLI's `--seed` flag,
which picks the random initial estimate theta0.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# Kinds whose trajectory output depends on a recorded-data buffer.
BUFFER_KINDS = frozenset({
    "basic_cl", "basic_normalized_cl", "ht_cl", "ht_normalized_cl", "ht_b",
    "ht_cl_softreset", "ht_normalized_cl_softreset",
})
ALL_KINDS = (
    "basic", "basic_normalized", "basic_cl", "basic_normalized_cl",
    "ht", "ht_normalized", "ht_cl", "ht_normalized_cl", "ht_b",
    "ht_cl_softreset", "ht_normalized_cl_softreset",
)
GOLDEN_FILE = Path(__file__).resolve().parent / "golden_paper.json"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: scenario edits, command order and expectations."""

    name: str
    why: str
    # Bundled scenario name -> edits applied to its JSON (top-level keys).
    scenarios: tuple[tuple[str, dict], ...]
    t_end: float
    # (system, check) pairs that certify is known to fail on at this commit.
    known_failures: frozenset[tuple[str, str]] = frozenset()
    # Seed of the iteration whose run outputs are compared with golden hashes.
    golden_seed: int | None = None
    # pe-check commands per iteration; a cheap scan is repeated for a steadier median.
    pe_checks: int = 1
    notes: str = ""


WORKLOADS = {
    "paper": Workload(
        name="paper",
        why="bundled fig1+fig2 (10 kinds) at t_end 15: run, certify and pe-check "
            "where the per-step Euler loop dominates and buffers freeze at t=5.3 s",
        scenarios=(("fig1", {}), ("fig2", {})),
        t_end=15.0,
        golden_seed=0,
        pe_checks=3,
    ),
    "recording": Workload(
        name="recording",
        why="ht_b and both soft-reset kinds at t_end 20, epsilon 0.05, N_bar 1000, "
            "record_every 1, PE scan 32pi at step 0.1: recording on every step, "
            "every-row outputs, fine check_pe",
        scenarios=(("fig1", {
            "name": "recording",
            "systems": ["ht_b", "ht_normalized_cl_softreset", "ht_cl_softreset"],
            "cl": {"epsilon": 0.05, "N_bar": 1000, "online": True},
            "sim": {"record_every": 1},
            "pe": {"scan_horizon": 32.0 * math.pi, "scan_step": 0.1},
        }),),
        # At t_end 15 the normalized soft-reset kind still passes on some seeds;
        # from t_end 20 on it fails on every seed tried, as at the full horizon.
        t_end=20.0,
        known_failures=frozenset({
            ("ht_normalized_cl_softreset", "trajectory"),
            ("ht_cl_softreset", "trajectory"),
        }),
        pe_checks=2,
        notes="certify exits 4: both soft-reset kinds diverge on a buffer that "
              "keeps growing (documented finding, counted in fail_ratio)",
    ),
}


def write_scenarios(workload: Workload, root: Path, work: Path,
                    t_end: float | None = None) -> list[Path]:
    """Write the workload's scenario files into work and return their paths."""
    paths = []
    for bundled, edits in workload.scenarios:
        source = root / "src" / "hotuner" / "scenarios" / f"{bundled}.json"
        scenario = json.loads(source.read_text())
        for key, value in edits.items():
            if key == "sim":
                scenario[key] = {**scenario[key], **value}
            else:
                scenario[key] = value
        scenario["sim"] = {**scenario["sim"], "t_end": t_end or workload.t_end}
        path = work / f"{scenario['name']}.json"
        path.write_text(json.dumps(scenario, indent=1) + "\n")
        paths.append(path)
    return paths


@dataclass
class Command:
    """One CLI invocation of an iteration."""

    verb: str              # run, certify or pe-check
    scenario: Path
    seed: int
    out_dir: Path
    golden: bool = False   # compare run outputs with the golden hashes

    def argv(self) -> list[str]:
        return [self.verb, str(self.scenario), "--out-dir", str(self.out_dir),
                "--seed", str(self.seed)]


def iteration_commands(workload: Workload, scenarios: list[Path], seed: int,
                       out_root: Path, index: int | None = None) -> list[Command]:
    """run every scenario, then certify every scenario, then pe-check the first.

    `index` is the iteration's position in an untraced run. Its first iteration,
    if the workload has golden hashes and the scenarios keep the workload's own
    horizon, runs at the golden seed instead of `seed` and compares its run
    outputs with the golden hashes.
    """
    golden = (index == 0 and workload.golden_seed is not None
              and all(_t_end(path) == workload.t_end for path in scenarios))
    if golden:
        seed = workload.golden_seed
    commands = []
    for verb in ("run", "certify"):
        for path in scenarios:
            commands.append(Command(verb, path, seed, out_root / f"{path.stem}_{verb}",
                                    golden=golden and verb == "run"))
    for _ in range(workload.pe_checks):
        commands.append(Command("pe-check", scenarios[0], seed,
                                out_root / f"{scenarios[0].stem}_pe-check"))
    return commands


@dataclass
class Outcome:
    """What one command did and what the checks found wrong with it."""

    command: Command
    exit_code: int
    problems: list[str] = field(default_factory=list)
    known: bool = False    # every problem is a documented finding

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines]


def _nonfinite(rows: list[list[str]], skip: int = 0) -> int:
    """Count non-finite numeric cells below the header, ignoring `skip` label columns."""
    bad = 0
    for row in rows[1:]:
        for cell in row[skip:]:
            if cell and not math.isfinite(float(cell)):
                bad += 1
    return bad


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_FILE.read_text())["files"]


def check(workload: Workload, command: Command, exit_code: int, stdout: str,
          golden: dict[str, str] | None = None) -> Outcome:
    """Apply every output check to one finished command."""
    outcome = Outcome(command, exit_code)
    problems = outcome.problems
    scenario = json.loads(command.scenario.read_text())
    name = scenario["name"]
    out = command.out_dir
    known_exit = {0, 4} if workload.known_failures and command.verb == "certify" else {0}
    if exit_code not in known_exit:
        problems.append(f"unexpected exit code {exit_code}")
    if command.verb == "run":
        expected_rows = _num_steps(scenario) // scenario["sim"].get("record_every", 1) + 1
        files = [f"{name}_{kind}.csv" for kind in scenario["systems"]]
        files += [f"{name}_{kind}_buffer.csv" for kind in scenario["systems"]
                  if kind in BUFFER_KINDS]
        files.append(f"{name}_report.csv")
        for filename in files:
            path = out / filename
            if not path.is_file():
                problems.append(f"missing {filename}")
                continue
            try:
                rows = _csv_rows(path)
                bad = _nonfinite(rows, skip=1 if filename.endswith("_report.csv") else 0)
            except ValueError as exc:
                problems.append(f"unparsable cell in {filename}: {exc}")
                continue
            if bad:
                problems.append(f"{bad} non-finite cells in {filename}")
            if filename.endswith("_report.csv") or filename.endswith("_buffer.csv"):
                continue
            if len(rows) - 1 != expected_rows:
                problems.append(f"{filename} has {len(rows) - 1} rows, "
                                f"expected {expected_rows}")
        if command.golden:
            golden = load_golden() if golden is None else golden
            mine = {f: d for f, d in golden.items() if f.startswith(f"{name}_")}
            if not mine:
                problems.append(f"no golden hashes for scenario {name}")
            for filename, digest in mine.items():
                path = out / filename
                if not path.is_file() or sha256_of(path) != digest:
                    problems.append(f"sha256 of {filename} differs from the golden hash")
    elif command.verb == "certify":
        if not (out / f"{name}_certificates.csv").is_file():
            problems.append(f"missing {name}_certificates.csv")
        if "all certificates passed" not in stdout:
            failing = set()
            for line in stdout.splitlines():
                parts = line.split()
                if len(parts) >= 3 and parts[2] == "FAIL":
                    failing.add((parts[0], parts[1]))
            problems.append("certify did not pass: "
                            + (", ".join(f"{s}/{c}" for s, c in sorted(failing))
                               or "no result lines"))
            outcome.known = (len(problems) == 1 and exit_code in known_exit
                             and bool(failing) and failing <= workload.known_failures)
    else:
        path = out / f"{name}_pe.csv"
        if not path.is_file():
            problems.append(f"missing {name}_pe.csv")
        else:
            try:
                if _nonfinite(_csv_rows(path)):
                    problems.append(f"non-finite cells in {name}_pe.csv")
            except ValueError as exc:
                problems.append(f"unparsable cell in {name}_pe.csv: {exc}")
        if "PE satisfied" not in stdout:
            problems.append("pe-check did not report PE satisfied")
    return outcome


def _t_end(scenario_path: Path) -> float:
    return json.loads(scenario_path.read_text())["sim"]["t_end"]


def _num_steps(scenario: dict) -> int:
    """Euler steps of one system, computed as SimConfig.num_steps does."""
    sim = scenario["sim"]
    return int(round((sim["t_end"] - sim.get("t_start", 0.0)) / sim["step_h"]))


def expected_steps(scenario_path: Path) -> int:
    """Euler steps summed over the systems of one scenario file."""
    scenario = json.loads(scenario_path.read_text())
    return _num_steps(scenario) * len(scenario["systems"])
