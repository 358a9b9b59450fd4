"""Spans around the names hotuner's modules use to call the layer below.

The tracer replaces each such name (a module attribute or a class method) with
a wrapper that times the call, charges the time to the caller's open span, and
restores the original on exit. Nothing inside the program changes; a name that
a later version no longer has is recorded as absent.

Self time of a span is its duration minus the durations of the spans opened
while it was open. Busy time of a module is the time during which at least one
of its spans was open.
"""

from __future__ import annotations

import pathlib
import time
from collections import defaultdict

from workloads import ALL_KINDS

MODULES = ("signals", "databuffer", "dynamics", "integrator", "certificates", "cli")


def _kind_of(args) -> str:
    kind = args[0] if args else None
    return getattr(kind, "value", str(kind))


def _add(cell: list[int], elapsed: int, own: int) -> None:
    cell[0] += 1
    cell[1] += elapsed
    cell[2] += own


class Tracer:
    """Collects per-name call counts and inclusive/self nanoseconds."""

    def __init__(self) -> None:
        self.command = ""                          # verb of the CLI call in progress
        # name -> [calls, total ns, self ns]; per-kind and per-command cells are
        # stored under "name.kind" and "command:name".
        self.stats: dict[str, list[int]] = {}
        # module -> [calls, busy ns, self ns, open spans]
        self.modules = {module: [0, 0, 0, 0] for module in MODULES}
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._open: list[list[int]] = []           # child ns of each open span
        self._undo: list[tuple[object, str, object]] = []

    def cell(self, key: str) -> list[int]:
        return self.stats.setdefault(key, [0, 0, 0])

    def wrap(self, owner, attr: str, name: str, module: str,
             by_kind: bool = False, by_command: bool = False, after=None) -> None:
        """Replace owner.attr by a timing wrapper; record name as absent if missing."""
        original = getattr(owner, attr, None)
        if original is None:
            self.note_absent(name)
            return
        tracer = self
        clock = time.perf_counter_ns
        opened = self._open
        total = self.cell(name)
        mod = self.modules[module]
        kind_cells: dict[str, list[int]] = {}
        hook_failed = [False]

        def wrapper(*args, **kwargs):
            children = [0]
            opened.append(children)
            depth = mod[3]
            mod[3] = depth + 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                opened.pop()
                mod[3] = depth
                if opened:
                    opened[-1][0] += elapsed
                own = elapsed - children[0]
                _add(total, elapsed, own)
                if by_kind:
                    kind = _kind_of(args)
                    cell = kind_cells.get(kind)
                    if cell is None:
                        cell = kind_cells[kind] = tracer.cell(f"{name}.{kind}")
                    _add(cell, elapsed, own)
                if by_command:
                    _add(tracer.cell(f"{tracer.command}:{name}"), elapsed, own)
                mod[0] += 1
                mod[2] += own
                if not depth:
                    mod[1] += elapsed
            if after is not None:
                try:
                    after(tracer, args, result)
                except Exception as exc:  # a changed signature must not fail the run
                    if not hook_failed[0]:
                        hook_failed[0] = True
                        tracer.note_absent(f"{name} counters ({exc!r})")
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def note_absent(self, name: str) -> None:
        """Record a missing span once, however often the spans are installed."""
        if name not in self.absent:
            self.absent.append(name)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _after_maybe_record(tracer: Tracer, args, result) -> None:
    if result[1]:
        tracer.counters["kept"] += 1


def _after_simulate(tracer: Tracer, args, result) -> None:
    trajectory, buffer = result
    steps = args[3].num_steps
    tracer.counters["steps"] += steps
    tracer.counters[f"steps.{_kind_of(args)}"] += steps
    tracer.counters["rows"] += trajectory.n_rows
    tracer.counters["samples_final"] = max(tracer.counters["samples_final"], len(buffer))


def _after_to_csv(tracer: Tracer, args, result) -> None:
    tracer.counters["csv_bytes"] += len(result)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported hotuner package."""
    from hotuner import certificates, cli, dynamics, integrator, signals

    wrap = tracer.wrap
    # signals
    wrap(signals.RegressorSignal, "eval", "signals.eval", "signals")
    wrap(signals.RegressorSignal, "eval_grid", "signals.eval_grid", "signals")
    wrap(signals, "pe_gram", "signals.pe_gram", "signals")
    wrap(cli, "check_pe", "signals.check_pe", "signals")
    # databuffer
    wrap(integrator, "maybe_record", "databuffer.maybe_record", "databuffer",
         after=_after_maybe_record)
    wrap(dynamics, "b_term", "databuffer.b_term", "databuffer")
    wrap(cli, "richness", "databuffer.richness", "databuffer")
    wrap(cli, "buffer_csv", "databuffer.buffer_csv", "databuffer")
    # dynamics
    wrap(integrator, "_rhs_arrays", "dynamics.rhs", "dynamics", by_kind=True)
    # integrator
    wrap(cli, "simulate", "integrator.simulate", "integrator", by_kind=True,
         by_command=True, after=_after_simulate)
    wrap(integrator.Trajectory, "to_csv", "integrator.to_csv", "integrator",
         after=_after_to_csv)
    # certificates
    for attr in ("check_decrease_pointwise", "lyapunov_along", "check_decrease_along",
                 "matrosov_check", "estimate_decay_rate"):
        wrap(certificates, attr, f"certificates.{attr}", "certificates")
    # cli
    for attr in ("load_scenario", "run_scenario", "run_certificates", "run_pe_check",
                 "comparison_report"):
        wrap(cli, attr, f"cli.{attr}", "cli")
    wrap(pathlib.Path, "write_text", "cli.write_text", "cli")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for module in MODULES:
        names += [(f"{module}.calls", "count"), (f"{module}.busy_s", "s"),
                  (f"{module}.self_s", "s")]
    names += [
        ("signals.eval_calls", "count"), ("signals.eval_us", "us"),
        ("signals.eval_grid_s", "s"), ("signals.check_pe_s", "s"),
        ("signals.pe_windows", "count"),
        ("databuffer.maybe_record_calls", "count"), ("databuffer.maybe_record_us", "us"),
        ("databuffer.maybe_record_per_step", "calls/step"),
        ("databuffer.keep_ratio", "kept/attempted"),
        ("databuffer.samples_final", "count"), ("databuffer.buffer_csv_s", "s"),
        ("databuffer.b_term_calls", "count"), ("databuffer.b_term_us", "us"),
        ("databuffer.richness_s", "s"),
        ("dynamics.rhs_calls", "count"),
    ]
    names += [(f"dynamics.rhs_us.{kind}", "us") for kind in ALL_KINDS]
    names += [
        ("integrator.steps", "count"), ("integrator.rows", "count"),
        ("integrator.to_csv_s", "s"), ("integrator.csv_mb", "MB"),
        ("integrator.loop_self_us", "us/step"),
    ]
    names += [(f"integrator.step_us.{kind}", "us/step") for kind in ALL_KINDS]
    names += [
        ("certificates.lyapunov_along_s", "s"), ("certificates.check_along_s", "s"),
        ("certificates.decay_fit_s", "s"), ("certificates.pointwise_s", "s"),
        ("certificates.matrosov_s", "s"),
        ("cli.load_scenario_s", "s"), ("cli.report_s", "s"), ("cli.write_s", "s"),
        ("cli.certify_resim_share", "ratio"),
        ("trace.overhead_ratio", "ratio"), ("trace.absent_spans", "count"),
    ]
    return names


def per_layer_values(tracer: Tracer, iterations: int, overhead_ratio: float) -> dict:
    """Per-layer metrics, totals taken per traced iteration, as {name: value}."""
    n = max(iterations, 1)
    c = tracer.counters

    def calls(name: str) -> int:
        return tracer.stats.get(name, (0, 0, 0))[0]

    def total_ns(name: str) -> int:
        return tracer.stats.get(name, (0, 0, 0))[1]

    def per_iter_s(name: str) -> float:
        return total_ns(name) / n / 1e9

    def mean_us(name: str) -> float:
        return ratio(total_ns(name) / 1e3, calls(name))

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    values = {}
    for module in MODULES:
        module_calls, busy_ns, self_ns, _ = tracer.modules[module]
        values[f"{module}.calls"] = module_calls / n
        values[f"{module}.busy_s"] = busy_ns / n / 1e9
        values[f"{module}.self_s"] = self_ns / n / 1e9
    record_calls = calls("databuffer.maybe_record")
    values.update({
        "signals.eval_calls": calls("signals.eval") / n,
        "signals.eval_us": mean_us("signals.eval"),
        "signals.eval_grid_s": per_iter_s("signals.eval_grid"),
        "signals.check_pe_s": per_iter_s("signals.check_pe"),
        "signals.pe_windows": calls("signals.pe_gram") / n,
        "databuffer.maybe_record_calls": record_calls / n,
        "databuffer.maybe_record_us": mean_us("databuffer.maybe_record"),
        "databuffer.maybe_record_per_step": ratio(record_calls, c["steps"]),
        "databuffer.keep_ratio": ratio(c["kept"], record_calls),
        "databuffer.samples_final": c["samples_final"],
        "databuffer.buffer_csv_s": per_iter_s("databuffer.buffer_csv"),
        "databuffer.b_term_calls": calls("databuffer.b_term") / n,
        "databuffer.b_term_us": mean_us("databuffer.b_term"),
        "databuffer.richness_s": per_iter_s("databuffer.richness"),
        "dynamics.rhs_calls": calls("dynamics.rhs") / n,
    })
    for kind in ALL_KINDS:
        values[f"dynamics.rhs_us.{kind}"] = mean_us(f"dynamics.rhs.{kind}")
    values.update({
        "integrator.steps": c["steps"] / n,
        "integrator.rows": c["rows"] / n,
        "integrator.to_csv_s": per_iter_s("integrator.to_csv"),
        "integrator.csv_mb": c["csv_bytes"] / n / 1e6,
        "integrator.loop_self_us":
            ratio(tracer.stats.get("integrator.simulate", (0, 0, 0))[2] / 1e3, c["steps"]),
    })
    for kind in ALL_KINDS:
        values[f"integrator.step_us.{kind}"] = ratio(
            total_ns(f"integrator.simulate.{kind}") / 1e3,
            c[f"steps.{kind}"])
    values.update({
        "certificates.lyapunov_along_s": per_iter_s("certificates.lyapunov_along"),
        "certificates.check_along_s": per_iter_s("certificates.check_decrease_along"),
        "certificates.decay_fit_s": per_iter_s("certificates.estimate_decay_rate"),
        "certificates.pointwise_s": per_iter_s("certificates.check_decrease_pointwise"),
        "certificates.matrosov_s": per_iter_s("certificates.matrosov_check"),
        "cli.load_scenario_s": per_iter_s("cli.load_scenario"),
        "cli.report_s": per_iter_s("cli.comparison_report"),
        "cli.write_s": per_iter_s("cli.write_text"),
        "cli.certify_resim_share": ratio(
            total_ns("certify:integrator.simulate"), total_ns("cli.run_certificates")),
        "trace.overhead_ratio": overhead_ratio,
        "trace.absent_spans": len(tracer.absent),
    })
    return values
