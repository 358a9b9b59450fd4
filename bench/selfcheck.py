"""Self-check of the benchmark: smoke runs and proof that the correctness gate can fail.

Run with `python3 bench/run_bench.py --self-check`. Every workload runs at a
one-second horizon, untraced and traced, and each metric must be printed with
its unit. Then one `run` command is checked after its outputs are tampered
with, and one command is made to exit with an unexpected code; each must be
counted as a failed operation. Last, a run with a one-second hard limit must
stop with a failure and no metrics. Exit code 0 means every check held.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run_bench as rb
from workloads import WORKLOADS, Command, check, sha256_of, write_scenarios

SMOKE_T_END = 1.0


def _smoke(results: list[tuple[str, bool]]) -> None:
    for name in WORKLOADS:
        for trace in (False, True):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                result = rb.run_workload(name, seed=1, seconds=0.1, trace=trace,
                                         t_end=SMOKE_T_END)
            text = printed.getvalue()
            sys.stdout.write(text)
            missing = [
                metric for metric, unit in rb.metric_units(trace)
                if result["metrics"].get(metric, {}).get("unit") != unit
                or not any(metric in line and line.rstrip().endswith(unit)
                           for line in text.splitlines())
            ]
            label = f"{name} trace={int(trace)}: every metric printed with its unit"
            if missing:
                label += f" (missing: {', '.join(missing)})"
            results.append((label, not missing and result["correct"]))
            results.append((f"{name} trace={int(trace)}: fail_ratio printed",
                            "fail_ratio" in text))


def _gate(results: list[tuple[str, bool]]) -> None:
    workload = WORKLOADS["paper"]
    work = rb.WORK / "selfcheck"
    rb._fresh(work)
    scenario = write_scenarios(workload, rb.ROOT, work, t_end=SMOKE_T_END)[0]
    env = rb.child_env()

    def execute(command: Command) -> tuple[int, str]:
        rb._fresh(command.out_dir)
        argv = [sys.executable, "-m", "hotuner"] + command.argv()
        _, code, _, output = rb.run_child(argv, env, work / f"{command.verb}.log")
        return code, output

    run = Command("run", scenario, 0, work / "run")
    code, output = execute(run)
    outcomes = [check(workload, run, code, output)]
    results.append(("untampered run passes every check", not outcomes[0].failed))

    golden = {path.name: sha256_of(path) for path in run.out_dir.iterdir()}
    run.golden = True
    results.append(("matching output hashes pass",
                    not check(workload, run, code, output, golden).failed))
    changed = dict(golden, **{"fig1_ht.csv": "0" * 64})
    outcomes.append(check(workload, run, code, output, changed))
    results.append(("a changed output hash fails", outcomes[-1].failed))
    run.golden = False

    trajectory = run.out_dir / "fig1_ht.csv"
    original = trajectory.read_text()
    columns = original.splitlines()[0].count(",") + 1
    trajectory.write_text(original + ",".join(["nan"] * columns) + "\n")
    outcomes.append(check(workload, run, code, output))
    results.append(("an extra non-finite CSV row fails",
                    outcomes[-1].failed and any("non-finite" in p for p in
                                                outcomes[-1].problems)))
    trajectory.write_text("\n".join(original.splitlines()[:-1]) + "\n")
    outcomes.append(check(workload, run, code, output))
    results.append(("a CSV with a row missing fails",
                    any("rows, expected" in p for p in outcomes[-1].problems)))
    trajectory.unlink()
    outcomes.append(check(workload, run, code, output))
    results.append(("a missing CSV fails",
                    any("missing" in p for p in outcomes[-1].problems)))

    broken = work / "broken.json"
    raw = json.loads(scenario.read_text())
    raw["unexpected_key"] = 1
    broken.write_text(json.dumps(raw))
    bad = Command("run", broken, 0, work / "broken")
    code, output = execute(bad)
    outcomes.append(check(workload, bad, code, output))
    results.append((f"an unexpected exit code ({code}) fails",
                    any("unexpected exit code" in p for p in outcomes[-1].problems)))

    certify = Command("certify", scenario, 0, work / "certify")
    code, output = execute(certify)
    results.append(("untampered certify passes",
                    not check(workload, certify, code, output).failed))
    outcomes.append(check(workload, certify, code, output.replace(
        "all certificates passed", "")))
    results.append(("certify without 'all certificates passed' fails",
                    outcomes[-1].failed and not outcomes[-1].known))

    failed = sum(o.failed for o in outcomes)
    print(f"gate test fail_ratio {failed / len(outcomes):.3g} failed/attempted "
          f"({failed}/{len(outcomes)}), untampered 0/1")
    results.append(("tampering raises fail_ratio above 0", failed == len(outcomes) - 1))


def _hard_stop(results: list[tuple[str, bool]]) -> None:
    """A run that reaches the hard limit counts one failure and reports no metrics."""
    limit = rb.HARD_LIMIT_S
    rb.HARD_LIMIT_S = 1.0
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            result = rb.run_workload("paper", seed=1, seconds=60.0, trace=False,
                                     t_end=SMOKE_T_END)
    finally:
        rb.HARD_LIMIT_S = limit
    results.append(("a run stopped at the hard limit fails once, without metrics",
                    not result["correct"] and result["failed"] <= 2
                    and not result["metrics"]))


def _declared(results: list[tuple[str, bool]]) -> None:
    """BENCHMARK.json must name the workloads and metrics this code reports."""
    declared = json.loads((rb.ROOT / "BENCHMARK.json").read_text())
    results.append(("BENCHMARK.json workloads match the code", [
        (w["name"], w["why"]) for w in declared["workloads"]
    ] == [(w.name, w.why) for w in WORKLOADS.values()]))
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        results.append((f"BENCHMARK.json {key} metrics match the code", [
            (m["name"], m["unit"]) for m in declared[key]
        ] == rb.metric_units(trace)))


def main() -> int:
    rb.WORK.mkdir(exist_ok=True)
    results: list[tuple[str, bool]] = []
    _declared(results)
    _smoke(results)
    _gate(results)
    _hard_stop(results)
    print()
    for label, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return 0 if all(ok for _, ok in results) else 1
