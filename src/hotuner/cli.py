"""Command-line front end: scenario runs, certificate checks, excitation scans.

Scenarios are JSON files read through one key table, _SECTIONS, that refuses
repeated keys, unknown ones, missing ones and values of the wrong type. The
`run` command simulates every listed system, writes one trajectory CSV per
system plus a comparison report; `certify` evaluates the stability
certificates for the high-order systems; `pe-check` scans the scenario's
regressor for persistent excitation.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 certificate violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import certificates
from .databuffer import DataBuffer, buffer_csv, richness
from .dynamics import (
    HIGH_ORDER_KINDS,
    RATE_CONDITION_KINDS,
    Gains,
    SystemKind,
    TunerState,
)
from .integrator import (
    NumericalDivergence,
    SignalGrid,
    SimConfig,
    Trajectory,
    _simulate_kinds,
)
from .signals import PEReport, RegressorSignal, check_pe

__all__ = [
    "ConfigError",
    "EXIT_CERTIFICATE",
    "EXIT_CONFIG",
    "EXIT_NUMERIC",
    "EXIT_OK",
    "Scenario",
    "bundled_scenario_path",
    "comparison_report",
    "load_scenario",
    "main",
    "run_certificates",
    "run_pe_check",
    "run_scenario",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_CERTIFICATE = 4

THRESHOLD_FRACTIONS = (1e-1, 1e-2, 1e-3)
# Output files are named <name><suffix>, the longest suffix _<kind>_buffer.csv,
# and a file name holds at most 255 bytes on common file systems.
_NAME_BYTES = 255 - max(len(f"_{kind.value}_buffer.csv") for kind in SystemKind)


class ConfigError(ValueError):
    """Scenario file failed validation."""


@dataclass
class Scenario:
    """Validated scenario: systems to run plus everything they share."""

    name: str
    systems: list[SystemKind]
    signal: RegressorSignal
    gains: Gains
    sim: SimConfig
    cl_epsilon: float
    cl_N_bar: int
    init: dict[str, list[float] | float | None]  # theta0 (None: drawn), range
    pe: dict[str, float | None]  # window_T, scan_horizon, scan_step (None: T / 8)

    @functools.cached_property
    def init_theta0(self) -> np.ndarray:
        """init.theta0 when given, else the draw seeded by sim.seed, uniform on
        [-range, range]^n. Drawn on first read: pe-check never loads numpy.random."""
        if self.init["theta0"] is not None:
            return np.array(self.init["theta0"])
        rng = np.random.default_rng(self.sim.seed)
        return rng.uniform(-self.init["range"], self.init["range"], self.signal.dimension)


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario file shipped with the package (e.g. 'fig1')."""
    path = Path(__file__).parent / "scenarios" / f"{name}.json"
    if not path.exists():
        raise FileNotFoundError(f"no bundled scenario named '{name}'")
    return path


_REQUIRED = object()

# Readers take a value and its dotted key, and return the value read or raise.

def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{key}' must be a number")
    # NaN fails every comparison; an integer beyond the float range fails this one.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"'{key}' must be a finite number")
    return float(value)


def _exact(kind: type, noun: str):
    """Reader of one JSON type, refusing the empty string.

    JSON values have exact types, so a bool is no int here.
    """
    def read(value, key: str):
        if type(value) is not kind or value == "":
            raise ConfigError(f"'{key}' must be {noun}")
        return value
    return read


_integer = _exact(int, "an integer")
_boolean = _exact(bool, "a boolean")
_text = _exact(str, "a nonempty string")


def _numbers(value, key: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"'{key}' must be a list of numbers")
    return [_number(entry, f"{key}.{i}") for i, entry in enumerate(value)]


def _systems(value, key: str) -> list[SystemKind]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{key}' must be a nonempty list")
    kinds = []
    for entry in value:
        try:
            kinds.append(SystemKind(entry))
        except ValueError:
            valid = ", ".join(k.value for k in SystemKind)
            raise ConfigError(f"unknown system '{entry}' in '{key}' (valid: {valid})")
        if kinds.count(kinds[-1]) > 1:
            raise ConfigError(f"duplicate system '{entry}' in '{key}'")
    return kinds


def _checked(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), whose ValueError becomes a ConfigError naming section."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}")


class _Object(dict):
    """A JSON object and the first key it repeats (None if none): json.loads keeps the last."""

    def __init__(self, pairs: list[tuple[str, object]]) -> None:
        super().__init__(pairs)
        seen: set[str] = set()
        self.repeated = next((key for key, _ in pairs if key in seen or seen.add(key)), None)


def _section(raw, name: str) -> dict:
    """Read one section of a scenario file ("" is the top level) through _SECTIONS.

    Refuses a non-object, repeated keys, unknown keys and missing required
    ones; reads every key present and fills in the defaults of the absent ones.
    A default is read like a given value, so an absent section is the section
    of its defaults; a None default stays None.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"'{name}' must be an object" if name else
                          "scenario must be a JSON object")
    keys = _SECTIONS[name]
    prefix = f"{name}." if name else ""
    if getattr(raw, "repeated", None) is not None:
        raise ConfigError(f"duplicate key '{prefix}{raw.repeated}'")
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown key '{prefix}{key}'")
    read = {}
    for key, (reader, default) in keys.items():
        if key in raw:
            read[key] = reader(raw[key], prefix + key)
        elif default is _REQUIRED:
            raise ConfigError(f"missing key '{prefix}{key}'")
        else:
            read[key] = None if default is None else reader(default, prefix + key)
    return read


# Every key of a scenario file: section -> key -> (reader, default or _REQUIRED).
# README.md's key table lists the same keys.
_SECTIONS: dict[str, dict[str, tuple]] = {
    "": {
        "name": (_text, _REQUIRED),
        "systems": (_systems, _REQUIRED),
        **dict.fromkeys(("signal", "gains", "sim", "cl"), (_section, _REQUIRED)),
        **dict.fromkeys(("init", "pe"), (_section, {})),
    },
    "signal": {
        **dict.fromkeys(("offsets", "amplitudes", "frequencies", "phases", "theta_star"),
                        (_numbers, _REQUIRED)),
    },
    "gains": {
        **dict.fromkeys(("beta", "gamma", "mu"), (_number, _REQUIRED)),
        "beta_r": (_number, 0.0),
    },
    "sim": {
        "step_h": (_number, _REQUIRED),
        "t_start": (_number, 0.0),
        "t_end": (_number, _REQUIRED),
        "record_every": (_integer, 1),
        "seed": (_integer, 0),
    },
    "cl": {
        "epsilon": (_number, _REQUIRED),
        "N_bar": (_integer, _REQUIRED),
        "online": (_boolean, True),
    },
    "init": {
        "theta0": (_numbers, None),
        "range": (_number, 5.0),
    },
    "pe": {
        "window_T": (_number, 2.0 * math.pi),
        "scan_horizon": (_number, 4.0 * math.pi),
        "scan_step": (_number, None),
    },
}


def load_scenario(
    path: str | Path,
    seed: int | None = None,
    step_h: float | None = None,
    t_end: float | None = None,
    systems: list[str] | None = None,
) -> Scenario:
    """Parse and validate a scenario file, applying any command-line overrides."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(), object_pairs_hook=_Object)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}")
    top = _section(raw, "")
    name, kinds = top["name"], top["systems"]
    cl, init, pe = top["cl"], top["init"], top["pe"]
    # Output files are named <name>_<kind>.csv inside the out dir.
    if any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
        raise ConfigError(f"'name' must not contain a path separator (got {name!r})")
    if "\0" in name:
        raise ConfigError(f"'name' must not contain a NUL character (got {name!r})")
    try:
        size = len(name.encode())
    except UnicodeEncodeError:
        raise ConfigError(f"'name' must encode to UTF-8 (got {name!r})")
    if size > _NAME_BYTES:
        raise ConfigError(f"'name' must be at most {_NAME_BYTES} bytes in UTF-8 (got {size})")

    signal = _checked("signal", RegressorSignal, **top["signal"])
    gains = _checked("gains", Gains, **top["gains"])
    overrides = {"seed": seed, "step_h": step_h, "t_end": t_end}
    sim = _checked("sim", SimConfig,
                   **top["sim"] | {k: v for k, v in overrides.items() if v is not None})

    # A scenario file cannot supply a prefilled buffer, so data is recorded online.
    if not cl["online"]:
        raise ConfigError("'cl.online' must be true: no prefilled buffer can be supplied "
                          "through a scenario file")
    if cl["epsilon"] <= 0.0:
        raise ConfigError("'cl.epsilon' must be positive")
    if cl["N_bar"] < signal.dimension:
        raise ConfigError("'cl.N_bar' must be at least the signal dimension")

    if init["theta0"] is not None and len(init["theta0"]) != signal.dimension:
        raise ConfigError("'init.theta0' must match the signal dimension")
    # rng.uniform needs the width 2 * range to be finite.
    if not 0.0 < init["range"] <= sys.float_info.max / 2.0:
        raise ConfigError("'init.range' must be positive and at most half the largest float")

    if pe["window_T"] <= 0.0:
        raise ConfigError("'pe.window_T' must be positive")
    if pe["scan_horizon"] < pe["window_T"]:
        raise ConfigError("'pe.scan_horizon' must be at least 'pe.window_T'")
    if pe["scan_step"] is not None and pe["scan_step"] <= 0.0:
        raise ConfigError("'pe.scan_step' must be positive")

    if systems:
        chosen = _systems(systems, "--system")
        missing = [k.value for k in chosen if k not in kinds]
        if missing:
            raise ConfigError(f"--system names not in scenario: {', '.join(missing)}")
        kinds = [k for k in kinds if k in chosen]

    return Scenario(
        name=name,
        systems=kinds,
        signal=signal,
        gains=gains,
        sim=sim,
        cl_epsilon=cl["epsilon"],
        cl_N_bar=cl["N_bar"],
        init=init,
        pe=pe,
    )


def _simulate_systems(
    scenario: Scenario, kinds: list[SystemKind], grid: SignalGrid
) -> Iterator[tuple[SystemKind, tuple[Trajectory, DataBuffer]]]:
    """(kind, (trajectory, buffer)) for each of kinds in order, from one pass
    over grid (see integrator._run); the iterator raises NumericalDivergence
    at the first of kinds whose run leaves the finite."""
    return zip(kinds, _simulate_kinds(
        kinds,
        grid,
        scenario.gains,
        scenario.sim.record_every,
        TunerState.from_theta0(scenario.init_theta0),
        epsilon=scenario.cl_epsilon,
        N_bar=scenario.cl_N_bar,
    ))


def _first_time(trajectory: Trajectory, mask: np.ndarray) -> str:
    """The report cell of the first row time at which mask holds: "" if at none."""
    hits = np.flatnonzero(mask)
    return repr(float(trajectory.t[hits[0]])) if hits.shape[0] else ""


def comparison_report(
    scenario: Scenario, results: dict[SystemKind, tuple[Trajectory, DataBuffer]]
) -> tuple[str, str]:
    """Build the cross-system summary; returns (csv_text, printable table)."""
    header = ["system", "final_err_norm"]
    header += [f"t_to_{f:g}" for f in THRESHOLD_FRACTIONS]
    header += ["decay_rate", "fit_quality", "buffer_fill_time"]
    csv_lines = [",".join(header)]
    table_rows = [header]
    for kind in scenario.systems:
        trajectory, buffer = results[kind]
        errors = trajectory.err_norm
        cells: list[str] = [kind.value, repr(float(errors[-1]))]
        # A start that is not finite has no fraction to fall to.
        reachable = math.isfinite(errors[0])
        cells += [_first_time(trajectory, reachable & (errors <= fraction * errors[0]))
                  for fraction in THRESHOLD_FRACTIONS]
        try:
            alpha, _, quality = certificates.estimate_decay_rate(trajectory)
            cells.append(repr(alpha))
            cells.append(repr(quality))
        except ValueError:
            cells += ["", ""]
        cells.append(_first_time(trajectory, trajectory.n_samples >= scenario.cl_N_bar))
        csv_lines.append(",".join(cells))
        table_rows.append([cell if cell else "-" for cell in cells])
    widths = [max(len(row[i]) for row in table_rows) for i in range(len(header))]
    table = "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in table_rows
    )
    return "\n".join(csv_lines) + "\n", table


def _unproven_kinds(scenario: Scenario) -> str:
    """Names of the scenario's kinds whose certificates need beta >= 2 gamma / mu,
    joined by ", ", when the gains break it; "" when they keep it or none needs it."""
    if scenario.gains.rate_condition_ok:
        return ""
    return ", ".join(k.value for k in scenario.systems if k in RATE_CONDITION_KINDS)


def _warn_step(scenario: Scenario, stream) -> None:
    """Warn when the step is too large for explicit Euler on the theta row.

    The theta row of a high-order kind contracts theta - vartheta at a rate of
    at most (beta + 2 beta_r)(1 + mu M^2), M the signal's amplitude bound; once
    h times that reaches 1 an Euler step overshoots. Simulation still runs.
    """
    kinds = [k.value for k in scenario.systems if k in HIGH_ORDER_KINDS]
    gains, h = scenario.gains, scenario.sim.step_h
    m_bound = scenario.signal.norm_bound()
    product = h * (gains.beta + 2.0 * gains.beta_r) * (1.0 + gains.mu * m_bound**2)
    if kinds and product >= 1.0:
        print(
            f"warning: step h={h!r} gives h (beta + 2 beta_r)(1 + mu M^2) = "
            f"{product:.4g} >= 1 with |phi| <= M = {m_bound:.4g}; explicit Euler "
            f"may overshoot or diverge for {', '.join(kinds)}",
            file=stream,
        )


def _signal_grid(scenario: Scenario) -> SignalGrid:
    """The scenario's SignalGrid; a horizon too long to hold is a config error."""
    try:
        return SignalGrid(scenario.signal, scenario.sim)
    except MemoryError:
        sim = scenario.sim
        raise ConfigError(
            f"sim: horizon t_end - t_start = {sim.t_end - sim.t_start!r} at step_h = "
            f"{sim.step_h!r} needs {sim.num_steps} steps, more than fit in memory"
        )


def _out_path(out_dir: str | Path) -> Path:
    """out_dir as a Path; one that cannot be a directory is a config error.

    Called before any work, so that a file in the way is refused before the
    simulations or the PE scan rather than after them. os.path.exists reads an
    unreadable path as absent (Path.exists raises), so the nearest ancestor
    that can be seen is tested and mkdir reports the rest.
    """
    out = Path(out_dir)
    existing = next(path for path in (out, *out.parents) if os.path.exists(path))
    if not os.path.isdir(existing):
        raise ConfigError(f"--out-dir {str(out)!r} cannot be made: {str(existing)!r} exists "
                          "and is not a directory")
    return out


def _make_out_dir(out: Path) -> None:
    """Create out and its parents; an OSError is a config error that names the path."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir {str(out)!r}: {exc.strerror or exc}")


def run_scenario(scenario: Scenario, out_dir: str | Path) -> int:
    """Simulate every system in the scenario and write CSV outputs."""
    out = _out_path(out_dir)
    grid = _signal_grid(scenario)
    _make_out_dir(out)
    if unproven := _unproven_kinds(scenario):
        print(f"warning: beta >= 2 gamma / mu does not hold; decrease guarantees "
              f"for {unproven} are not certified", file=sys.stderr)
    _warn_step(scenario, sys.stderr)
    results: dict[SystemKind, tuple[Trajectory, DataBuffer]] = {}
    for kind, (trajectory, buffer) in _simulate_systems(scenario, scenario.systems, grid):
        results[kind] = (trajectory, buffer)
        with (out / f"{scenario.name}_{kind.value}.csv").open("w") as stream:
            stream.writelines(trajectory.csv_blocks())
        if len(buffer):
            (out / f"{scenario.name}_{kind.value}_buffer.csv").write_text(
                buffer_csv(buffer)
            )
    csv_text, table = comparison_report(scenario, results)
    (out / f"{scenario.name}_report.csv").write_text(csv_text)
    print(table)
    print(f"wrote {len(scenario.systems)} trajectories to {out}")
    return EXIT_OK


def _scan_pe(scenario: Scenario) -> PEReport:
    """check_pe on the scenario's regressor with its pe settings; a scan that
    check_pe refuses, such as one too large to hold, is a config error."""
    pe = scenario.pe
    return _checked("pe", check_pe, scenario.signal, T=pe["window_T"],
                    scan_horizon=pe["scan_horizon"], scan_step=pe["scan_step"])


def run_pe_check(scenario: Scenario, out_dir: str | Path) -> int:
    """Scan the scenario's regressor for persistent excitation."""
    out = _out_path(out_dir)
    report = _scan_pe(scenario)
    _make_out_dir(out)
    lines = [
        "window_T,delta_hat,M_hat,scan_horizon,quadrature_step",
        f"{repr(report.window_T)},{repr(report.delta_hat)},{repr(report.M_hat)},"
        f"{repr(report.scan_horizon)},{repr(report.quadrature_step)}",
    ]
    (out / f"{scenario.name}_pe.csv").write_text("\n".join(lines) + "\n")
    print(report.summary())
    return EXIT_OK


def run_certificates(scenario: Scenario, out_dir: str | Path) -> int:
    """Simulate each high-order system and write the certificate rows of its run.

    Which rows a kind gets is decided in certificates._certificate_rows.
    Baseline gradient systems are skipped (they carry no certified energy
    function here). Refuses gain sets violating beta >= 2 gamma / mu when a
    kind that needs the condition is present, and a horizon of no step, which
    leaves the trajectory check no row pair and a data-driven kind no sample.
    """
    high_order = [k for k in scenario.systems if k in HIGH_ORDER_KINDS]
    if not high_order:
        print("no high-order systems in scenario; nothing to certify")
        return EXIT_OK
    if unproven := _unproven_kinds(scenario):
        gains = scenario.gains
        raise ConfigError(f"gains: beta >= 2 gamma / mu is required to certify {unproven} "
                          f"(beta={gains.beta}, gamma={gains.gamma}, mu={gains.mu})")
    sim = scenario.sim
    if sim.num_steps == 0:
        raise ConfigError(f"sim: horizon t_end - t_start = {sim.t_end - sim.t_start!r} at "
                          f"step_h = {sim.step_h!r} is 0 steps; there is no step to certify")
    out = _out_path(out_dir)
    grid = _signal_grid(scenario)
    pe_report = _scan_pe(scenario)
    _warn_step(scenario, sys.stderr)
    _make_out_dir(out)
    print(pe_report.summary())
    skipped = [k.value for k in scenario.systems if k not in high_order]
    if skipped:
        print(f"skipping baseline systems without certificates: {', '.join(skipped)}")
    lines = ["system,check,checked_points,violations,worst_margin,tolerance"]
    violated, unchecked = False, []
    for kind, (trajectory, buffer) in _simulate_systems(scenario, high_order, grid):
        if len(buffer):
            rich = richness(buffer, scenario.gains.mu)
            if not rich.sufficient:
                print(
                    f"{kind.value:>28s}  note: recorded data is rank-deficient "
                    f"(rank {rich.rank_D} of {scenario.signal.dimension}); the "
                    "decrease bound is not strictly negative in every direction"
                )
        for check, report in certificates._certificate_rows(
            kind, trajectory, buffer, scenario.signal, scenario.gains, pe_report, sim
        ):
            status = "pass" if report.passed else "FAIL"
            print(
                f"{kind.value:>28s}  {check:<10s} {status}  "
                f"({report.checked_points} points, worst margin {report.worst_margin:.3e})"
            )
            lines.append(f"{kind.value},{check},{report.to_csv_line()}")
            violated = violated or report.violations > 0
            if not report.checked_points:
                unchecked.append(f"{kind.value} {check}")
    (out / f"{scenario.name}_certificates.csv").write_text("\n".join(lines) + "\n")
    if violated:
        print("certificate violations found")
    if unchecked:
        print(f"no point to check: {', '.join(unchecked)}")
    if violated or unchecked:
        return EXIT_CERTIFICATE
    print("all certificates passed")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hotuner",
        description="Simulate and certify high-order parameter tuners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("run", "simulate a scenario and write trajectory CSVs plus a report"),
        ("certify", "evaluate stability certificates for a scenario"),
        ("pe-check", "scan the scenario's regressor for persistent excitation"),
    ):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("config", help="path to a scenario JSON file")
        cmd.add_argument("--out-dir", default="out", help="output directory")
        cmd.add_argument("--seed", type=int, help="override sim.seed")
        cmd.add_argument("--step", type=float, help="override sim.step_h")
        cmd.add_argument("--t-end", type=float, help="override sim.t_end")
        cmd.add_argument(
            "--system",
            action="append",
            metavar="KIND",
            help="restrict to one system kind (repeatable)",
        )
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(
            args.config,
            seed=args.seed,
            step_h=args.step,
            t_end=args.t_end,
            systems=args.system,
        )
        if args.command == "run":
            return run_scenario(scenario, args.out_dir)
        if args.command == "certify":
            return run_certificates(scenario, args.out_dir)
        return run_pe_check(scenario, args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalDivergence as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def console_main() -> None:
    raise SystemExit(main())
