"""Command-line front end: scenario runs, certificate checks, excitation scans.

Scenarios are JSON files read through one key table, _SECTIONS, that refuses
unknown keys, missing ones and values of the wrong type. The
`run` command simulates every listed system, writes one trajectory CSV per
system plus a comparison report; `certify` evaluates the stability
certificates for the high-order systems; `pe-check` scans the scenario's
regressor for persistent excitation.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 certificate violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import certificates
from .databuffer import DataBuffer, buffer_csv, richness
from .dynamics import (
    BASELINE_KINDS,
    BUFFER_KINDS,
    HIGH_ORDER_KINDS,
    POINTWISE_KINDS,
    RATE_CONDITION_KINDS,
    Gains,
    SystemKind,
    TunerState,
)
from .integrator import NumericalDivergence, SignalGrid, SimConfig, Trajectory, simulate
from .signals import PEReport, RegressorSignal, check_pe, make_sinusoid_mix

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
    init_theta0: np.ndarray
    pe: dict[str, float | None]  # window_T, scan_horizon, scan_step (None: T / 8)


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario file shipped with the package (e.g. 'fig1')."""
    candidate = resources.files("hotuner") / "scenarios" / f"{name}.json"
    with resources.as_file(candidate) as path:
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
    return kinds


def _section(raw, name: str) -> dict:
    """Read one section of a scenario file ("" is the top level) through _SECTIONS.

    Refuses a non-object, unknown keys and missing required ones; reads every
    key present and fills in the defaults of the absent ones. A default is read
    like a given value, so an absent section is the section of its defaults;
    a None default stays None.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"'{name}' must be an object" if name else
                          "scenario must be a JSON object")
    keys = _SECTIONS[name]
    prefix = f"{name}." if name else ""
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
        **dict.fromkeys(("signal", "gains", "sim", "cl", "init"), (_section, _REQUIRED)),
        "pe": (_section, {}),
    },
    "signal": {
        "dimension": (_integer, _REQUIRED),
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
        "mode": (_text, _REQUIRED),
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
        raw = json.loads(path.read_text())
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

    try:
        signal = make_sinusoid_mix(**top["signal"])
    except ValueError as exc:
        raise ConfigError(f"signal: {exc}")
    try:
        gains = Gains(**top["gains"])
    except ValueError as exc:
        raise ConfigError(f"gains: {exc}")
    overrides = {"seed": seed, "step_h": step_h, "t_end": t_end}
    try:
        sim = SimConfig(**top["sim"] | {k: v for k, v in overrides.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}")

    if cl["epsilon"] <= 0.0:
        raise ConfigError("'cl.epsilon' must be positive")
    if cl["N_bar"] < signal.dimension:
        raise ConfigError("'cl.N_bar' must be at least the signal dimension")

    if init["theta0"] is not None and len(init["theta0"]) != signal.dimension:
        raise ConfigError("'init.theta0' must match the signal dimension")
    # rng.uniform needs the width 2 * range to be finite.
    if not 0.0 < init["range"] <= sys.float_info.max / 2.0:
        raise ConfigError("'init.range' must be positive and at most half the largest float")
    if init["mode"] == "fixed":
        if init["theta0"] is None:
            raise ConfigError("missing key 'init.theta0' (required for fixed mode)")
        theta0 = np.array(init["theta0"])
    elif init["mode"] == "random":
        rng = np.random.default_rng(sim.seed)
        theta0 = rng.uniform(-init["range"], init["range"], signal.dimension)
    else:
        raise ConfigError("'init.mode' must be 'fixed' or 'random'")

    if pe["window_T"] <= 0.0:
        raise ConfigError("'pe.window_T' must be positive")
    if pe["scan_horizon"] < pe["window_T"]:
        raise ConfigError("'pe.scan_horizon' must be at least 'pe.window_T'")
    if pe["scan_step"] is not None and pe["scan_step"] <= 0.0:
        raise ConfigError("'pe.scan_step' must be positive")

    if systems:
        chosen = []
        for entry in systems:
            try:
                chosen.append(SystemKind(entry))
            except ValueError:
                raise ConfigError(f"unknown system '{entry}' in --system filter")
        missing = [k.value for k in chosen if k not in kinds]
        if missing:
            raise ConfigError(f"--system names not in scenario: {', '.join(missing)}")
        kinds = [k for k in kinds if k in chosen]
    # A scenario file cannot supply a prefilled buffer, so a buffer-driven
    # kind can only record online.
    offline = [k.value for k in kinds if k in BUFFER_KINDS and not cl["online"]]
    if offline:
        raise ConfigError(
            f"system '{offline[0]}' needs cl.online=true (no prefilled buffer "
            "can be supplied through a scenario file)"
        )

    return Scenario(
        name=name,
        systems=kinds,
        signal=signal,
        gains=gains,
        sim=sim,
        cl_epsilon=cl["epsilon"],
        cl_N_bar=cl["N_bar"],
        init_theta0=theta0,
        pe=pe,
    )


def _simulate_system(
    scenario: Scenario, kind: SystemKind, grid: SignalGrid
) -> tuple[Trajectory, DataBuffer]:
    init = TunerState.from_theta0(scenario.init_theta0)
    return simulate(
        kind,
        scenario.signal,
        scenario.gains,
        scenario.sim,
        init,
        epsilon=scenario.cl_epsilon,
        N_bar=scenario.cl_N_bar,
        grid=grid,
    )


def _time_to_fraction(trajectory: Trajectory, fraction: float) -> float | None:
    """First row time at which err_norm falls to fraction of its initial value."""
    if trajectory.n_rows == 0:
        return None
    target = fraction * trajectory.err_norm[0]
    hits = np.nonzero(trajectory.err_norm <= target)[0]
    if hits.shape[0] == 0:
        return None
    return float(trajectory.t[hits[0]])


def _fill_time(trajectory: Trajectory, n_bar: int) -> float | None:
    hits = np.nonzero(trajectory.n_samples >= n_bar)[0]
    if hits.shape[0] == 0:
        return None
    return float(trajectory.t[hits[0]])


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
        cells: list[str] = [kind.value]
        final = float(trajectory.err_norm[-1]) if trajectory.n_rows else math.nan
        cells.append(repr(final))
        for fraction in THRESHOLD_FRACTIONS:
            reach = _time_to_fraction(trajectory, fraction)
            cells.append("" if reach is None else repr(reach))
        try:
            alpha, _, quality = certificates.estimate_decay_rate(trajectory)
            cells.append(repr(alpha))
            cells.append(repr(quality))
        except ValueError:
            cells += ["", ""]
        fill = _fill_time(trajectory, scenario.cl_N_bar)
        cells.append("" if fill is None else repr(fill))
        csv_lines.append(",".join(cells))
        table_rows.append([cell if cell else "-" for cell in cells])
    widths = [max(len(row[i]) for row in table_rows) for i in range(len(header))]
    table = "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in table_rows
    )
    return "\n".join(csv_lines) + "\n", table


def _warn_gains(scenario: Scenario, stream) -> None:
    relevant = [k for k in scenario.systems if k in RATE_CONDITION_KINDS]
    if relevant and not scenario.gains.rate_condition_ok:
        names = ", ".join(k.value for k in relevant)
        print(
            f"warning: beta >= 2 gamma / mu does not hold; decrease guarantees "
            f"for {names} are not certified",
            file=stream,
        )


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


def run_scenario(scenario: Scenario, out_dir: str | Path) -> int:
    """Simulate every system in the scenario and write CSV outputs."""
    grid = _signal_grid(scenario)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _warn_gains(scenario, sys.stderr)
    _warn_step(scenario, sys.stderr)
    results: dict[SystemKind, tuple[Trajectory, DataBuffer]] = {}
    for kind in scenario.systems:
        trajectory, buffer = _simulate_system(scenario, kind, grid)
        results[kind] = (trajectory, buffer)
        (out / f"{scenario.name}_{kind.value}.csv").write_text(trajectory.to_csv())
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
    """check_pe on the scenario's regressor with its pe settings."""
    pe = scenario.pe
    return check_pe(scenario.signal, T=pe["window_T"], scan_horizon=pe["scan_horizon"],
                    scan_step=pe["scan_step"])


def run_pe_check(scenario: Scenario, out_dir: str | Path) -> int:
    """Scan the scenario's regressor for persistent excitation."""
    report = _scan_pe(scenario)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [
        "window_T,delta_hat,M_hat,scan_horizon,quadrature_step",
        f"{repr(report.window_T)},{repr(report.delta_hat)},{repr(report.M_hat)},"
        f"{repr(report.scan_horizon)},{repr(report.quadrature_step)}",
    ]
    (out / f"{scenario.name}_pe.csv").write_text("\n".join(lines) + "\n")
    print(report.summary())
    return EXIT_OK


def run_certificates(scenario: Scenario, out_dir: str | Path) -> int:
    """Evaluate pointwise, along-trajectory, and auxiliary certificates.

    Baseline gradient systems are skipped (they carry no certified energy
    function here). Refuses gain sets violating beta >= 2 gamma / mu when a
    kind that needs the condition is present.
    """
    high_order = [k for k in scenario.systems if k not in BASELINE_KINDS]
    if not high_order:
        print("no high-order systems in scenario; nothing to certify")
        return EXIT_OK
    needs_condition = [k for k in high_order if k in RATE_CONDITION_KINDS]
    if needs_condition and not scenario.gains.rate_condition_ok:
        raise ConfigError(
            "gains: beta >= 2 gamma / mu is required to certify "
            + ", ".join(k.value for k in needs_condition)
            + f" (beta={scenario.gains.beta}, gamma={scenario.gains.gamma}, "
            f"mu={scenario.gains.mu})"
        )
    recorders = [k.value for k in high_order if k in BUFFER_KINDS]
    if recorders and scenario.sim.num_steps == 0:
        raise ConfigError(
            f"system '{recorders[0]}' records no data over a horizon of 0 steps "
            f"(t_end = t_start = {scenario.sim.t_end!r}); certify needs t_end > t_start"
        )
    grid = _signal_grid(scenario)
    _warn_step(scenario, sys.stderr)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pe_report = _scan_pe(scenario)
    print(pe_report.summary())
    skipped = [k.value for k in scenario.systems if k in BASELINE_KINDS]
    if skipped:
        print(f"skipping baseline systems without certificates: {', '.join(skipped)}")
    lines = ["system,check,checked_points,violations,worst_margin,tolerance"]
    failed = False

    def note(kind: SystemKind, check: str, report: certificates.CertificateReport) -> None:
        nonlocal failed
        status = "pass" if report.passed else "FAIL"
        print(
            f"{kind.value:>28s}  {check:<10s} {status}  "
            f"({report.checked_points} points, worst margin {report.worst_margin:.3e})"
        )
        lines.append(f"{kind.value},{check},{report.to_csv_line()}")
        failed = failed or not report.passed

    for kind in scenario.systems:
        if kind in BASELINE_KINDS:
            continue
        trajectory, buffer = _simulate_system(scenario, kind, grid)
        if len(buffer):
            rich = richness(buffer, scenario.gains.mu)
            if not rich.sufficient:
                print(
                    f"{kind.value:>28s}  note: recorded data is rank-deficient "
                    f"(rank {rich.rank_D} of {scenario.signal.dimension}); the "
                    "decrease bound is not strictly negative in every direction"
                )
        if kind in POINTWISE_KINDS:
            report = certificates.check_decrease_pointwise(
                kind, scenario.signal, buffer, scenario.gains, sample_count=2000,
                seed=scenario.sim.seed,
            )
            note(kind, "pointwise", report)
        v_values = certificates.lyapunov_along(
            kind, trajectory, scenario.signal, scenario.gains, buffer
        )
        step = scenario.sim.step_h * scenario.sim.record_every
        note(kind, "trajectory",
             certificates.check_decrease_along(trajectory, v_values, step))
        # Without recorded data the V derivative is only semidefinite.
        if kind not in BUFFER_KINDS:
            report = certificates.matrosov_check(
                scenario.signal, T=pe_report.window_T, delta=pe_report.delta_hat,
                seed=scenario.sim.seed,
            )
            note(kind, "auxiliary", report)
    (out / f"{scenario.name}_certificates.csv").write_text("\n".join(lines) + "\n")
    if failed:
        print("certificate violations found")
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


if __name__ == "__main__":
    console_main()
