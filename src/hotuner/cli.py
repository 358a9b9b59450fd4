"""Command-line front end: scenario runs, certificate checks, excitation scans.

Scenarios are JSON files validated strictly (unknown keys are errors). The
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
import sys
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import certificates, signals
from .databuffer import DataBuffer, buffer_csv, richness
from .dynamics import (
    BASELINE_KINDS,
    BUFFER_KINDS,
    RATE_CONDITION_KINDS,
    SOFT_RESET_KINDS,
    Gains,
    SystemKind,
    TunerState,
)
from .integrator import NumericalDivergence, SignalGrid, SimConfig, Trajectory, simulate
from .signals import RegressorSignal, check_pe

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

_POINTWISE_KINDS = frozenset(
    {
        SystemKind.HT,
        SystemKind.HT_NORMALIZED,
        SystemKind.HT_CL,
        SystemKind.HT_NORMALIZED_CL,
        SystemKind.HT_B,
    }
)


class ConfigError(ValueError):
    """Scenario file failed validation."""


@dataclass(frozen=True)
class _PESettings:
    window_T: float = 2.0 * math.pi
    scan_horizon: float = 4.0 * math.pi
    scan_step: float | None = None
    quadrature_step: float = signals.DEFAULT_QUADRATURE_STEP


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
    cl_online: bool
    init_theta0: np.ndarray
    pe: _PESettings


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario file shipped with the package (e.g. 'fig1')."""
    candidate = resources.files("hotuner") / "scenarios" / f"{name}.json"
    with resources.as_file(candidate) as path:
        if not path.exists():
            raise FileNotFoundError(f"no bundled scenario named '{name}'")
        return path


def _check_keys(section: dict, allowed: dict[str, bool], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key '{where}{key}'")
    for key, required in allowed.items():
        if required and key not in section:
            raise ConfigError(f"missing key '{where}{key}'")


def _number(section: dict, key: str, where: str) -> float:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"'{where}{key}' must be a number")
    return float(value)


def _integer(section: dict, key: str, where: str) -> int:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{where}{key}' must be an integer")
    return value


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
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    _check_keys(
        raw,
        {"name": True, "systems": True, "signal": True, "gains": True,
         "sim": True, "cl": True, "init": True, "pe": False},
        "",
    )
    if not isinstance(raw["name"], str) or not raw["name"]:
        raise ConfigError("'name' must be a nonempty string")

    if not isinstance(raw["systems"], list) or not raw["systems"]:
        raise ConfigError("'systems' must be a nonempty list")
    kinds = []
    for entry in raw["systems"]:
        try:
            kinds.append(SystemKind(entry))
        except ValueError:
            valid = ", ".join(k.value for k in SystemKind)
            raise ConfigError(f"unknown system '{entry}' in 'systems' (valid: {valid})")

    sig_raw = dict(raw["signal"])
    try:
        signal = RegressorSignal.from_descriptor(sig_raw)
    except ValueError as exc:
        raise ConfigError(f"signal: {exc}")

    gains_raw = raw["gains"]
    _check_keys(gains_raw, {"beta": True, "gamma": True, "mu": True, "beta_r": False},
                "gains.")
    try:
        gains = Gains(
            beta=_number(gains_raw, "beta", "gains."),
            gamma=_number(gains_raw, "gamma", "gains."),
            mu=_number(gains_raw, "mu", "gains."),
            beta_r=_number(gains_raw, "beta_r", "gains.") if "beta_r" in gains_raw else 0.0,
        )
    except ValueError as exc:
        raise ConfigError(f"gains: {exc}")

    sim_raw = raw["sim"]
    _check_keys(
        sim_raw,
        {"step_h": True, "t_start": False, "t_end": True, "record_every": False,
         "seed": False},
        "sim.",
    )
    try:
        sim = SimConfig(
            step_h=step_h if step_h is not None else _number(sim_raw, "step_h", "sim."),
            t_start=_number(sim_raw, "t_start", "sim.") if "t_start" in sim_raw else 0.0,
            t_end=t_end if t_end is not None else _number(sim_raw, "t_end", "sim."),
            record_every=_integer(sim_raw, "record_every", "sim.")
            if "record_every" in sim_raw else 1,
            seed=seed if seed is not None else (
                _integer(sim_raw, "seed", "sim.") if "seed" in sim_raw else 0),
        )
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}")

    cl_raw = raw["cl"]
    _check_keys(cl_raw, {"epsilon": True, "N_bar": True, "online": True}, "cl.")
    cl_epsilon = _number(cl_raw, "epsilon", "cl.")
    cl_n_bar = _integer(cl_raw, "N_bar", "cl.")
    if not isinstance(cl_raw["online"], bool):
        raise ConfigError("'cl.online' must be a boolean")
    cl_online = cl_raw["online"]
    if cl_epsilon <= 0.0:
        raise ConfigError("'cl.epsilon' must be positive")
    if cl_n_bar < signal.dimension:
        raise ConfigError("'cl.N_bar' must be at least the signal dimension")

    init_raw = raw["init"]
    _check_keys(init_raw, {"mode": True, "theta0": False, "range": False}, "init.")
    mode = init_raw["mode"]
    if mode == "fixed":
        if "theta0" not in init_raw:
            raise ConfigError("missing key 'init.theta0' (required for fixed mode)")
        theta0 = np.asarray(init_raw["theta0"], dtype=float)
        if theta0.shape != (signal.dimension,):
            raise ConfigError("'init.theta0' must match the signal dimension")
    elif mode == "random":
        spread = _number(init_raw, "range", "init.") if "range" in init_raw else 5.0
        if spread <= 0.0:
            raise ConfigError("'init.range' must be positive")
        rng = np.random.default_rng(sim.seed)
        theta0 = rng.uniform(-spread, spread, signal.dimension)
    else:
        raise ConfigError("'init.mode' must be 'fixed' or 'random'")

    pe_settings = _PESettings()
    if "pe" in raw:
        pe_raw = raw["pe"]
        _check_keys(
            pe_raw,
            {"window_T": False, "scan_horizon": False, "scan_step": False,
             "quadrature_step": False},
            "pe.",
        )
        kwargs = {key: _number(pe_raw, key, "pe.") for key in pe_raw}
        pe_settings = replace(pe_settings, **kwargs)

    if systems:
        chosen = []
        for name in systems:
            try:
                chosen.append(SystemKind(name))
            except ValueError:
                raise ConfigError(f"unknown system '{name}' in --system filter")
        missing = [k.value for k in chosen if k not in kinds]
        if missing:
            raise ConfigError(f"--system names not in scenario: {', '.join(missing)}")
        kinds = [k for k in kinds if k in chosen]

    return Scenario(
        name=raw["name"],
        systems=kinds,
        signal=signal,
        gains=gains,
        sim=sim,
        cl_epsilon=cl_epsilon,
        cl_N_bar=cl_n_bar,
        cl_online=cl_online,
        init_theta0=theta0,
        pe=pe_settings,
    )


def _simulate_system(
    scenario: Scenario, kind: SystemKind, grid: SignalGrid
) -> tuple[Trajectory, DataBuffer]:
    init = TunerState.from_theta0(scenario.init_theta0)
    if kind in BUFFER_KINDS and not scenario.cl_online:
        raise ConfigError(
            f"system '{kind.value}' needs cl.online=true (no prefilled buffer "
            "can be supplied through a scenario file)"
        )
    return simulate(
        kind,
        scenario.signal,
        scenario.gains,
        scenario.sim,
        init,
        cl_online=scenario.cl_online,
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
        fill = _fill_time(trajectory, scenario.cl_N_bar) if kind in BUFFER_KINDS else None
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


def run_scenario(scenario: Scenario, out_dir: str | Path) -> int:
    """Simulate every system in the scenario and write CSV outputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _warn_gains(scenario, sys.stderr)
    results: dict[SystemKind, tuple[Trajectory, DataBuffer]] = {}
    grid = SignalGrid(scenario.signal, scenario.sim)
    for kind in scenario.systems:
        trajectory, buffer = _simulate_system(scenario, kind, grid)
        results[kind] = (trajectory, buffer)
        (out / f"{scenario.name}_{kind.value}.csv").write_text(trajectory.to_csv())
        if kind in BUFFER_KINDS and len(buffer):
            (out / f"{scenario.name}_{kind.value}_buffer.csv").write_text(
                buffer_csv(buffer)
            )
    csv_text, table = comparison_report(scenario, results)
    (out / f"{scenario.name}_report.csv").write_text(csv_text)
    print(table)
    print(f"wrote {len(scenario.systems)} trajectories to {out}")
    return EXIT_OK


def run_pe_check(scenario: Scenario, out_dir: str | Path) -> int:
    """Scan the scenario's regressor for persistent excitation."""
    pe = scenario.pe
    report = check_pe(
        scenario.signal,
        T=pe.window_T,
        scan_horizon=pe.scan_horizon,
        scan_step=pe.scan_step,
        quadrature_step=pe.quadrature_step,
    )
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pe = scenario.pe
    pe_report = check_pe(
        scenario.signal,
        T=pe.window_T,
        scan_horizon=pe.scan_horizon,
        scan_step=pe.scan_step,
        quadrature_step=pe.quadrature_step,
    )
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

    grid = SignalGrid(scenario.signal, scenario.sim)
    for kind in scenario.systems:
        if kind in BASELINE_KINDS:
            continue
        trajectory, buffer = _simulate_system(scenario, kind, grid)
        if kind in BUFFER_KINDS:
            rich = richness(buffer, scenario.gains.mu)
            if not rich.sufficient:
                print(
                    f"{kind.value:>28s}  note: recorded data is rank-deficient "
                    f"(rank {rich.rank_D} of {scenario.signal.dimension}); the "
                    "decrease bound is not strictly negative in every direction"
                )
        if kind in _POINTWISE_KINDS:
            report = certificates.check_decrease_pointwise(
                kind, scenario.signal, buffer if kind in BUFFER_KINDS else None,
                scenario.gains, sample_count=2000, seed=scenario.sim.seed,
            )
            note(kind, "pointwise", report)
        v_values = certificates.lyapunov_along(
            kind, trajectory, scenario.signal, scenario.gains,
            buffer if kind in BUFFER_KINDS else None,
        )
        step = scenario.sim.step_h * scenario.sim.record_every
        note(kind, "trajectory",
             certificates.check_decrease_along(trajectory, v_values, step))
        if kind in (SystemKind.HT, SystemKind.HT_NORMALIZED):
            report = certificates.matrosov_check(
                scenario.signal, scenario.gains, T=pe.window_T,
                delta=pe_report.delta_hat, M=pe_report.M_hat,
                seed=scenario.sim.seed,
                cross_coeff=(scenario.gains.beta * pe_report.M_hat**2
                             if kind is SystemKind.HT_NORMALIZED else None),
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
