#!/usr/bin/env python3
"""hotuner benchmark: seeded workloads through the real CLI, plus a traced run.

Usage, from the root of a checkout:

    python3 bench/run_bench.py --workload paper --seed 1 --seconds 60 --trace 0
    python3 bench/run_bench.py --self-check

With --trace 0 every command of the workload runs as its own
`python -m hotuner` subprocess, one at a time, and the end-to-end metrics are
printed. With --trace 1 the same commands run in this process through
`hotuner.cli.main`, with spans around each layer boundary (see spans.py), and
the per-layer metrics are printed. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, Outcome, Workload, check, expected_steps, \
    iteration_commands, write_scenarios

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# Fresh interpreters timed for setup_s before each iteration (after one
# untimed warm-up at the start of the run).
SETUP_PER_ITERATION = 3
# An untraced run starts no command after this many seconds, and kills one
# still running then, so the benchmark exits well inside 180 s.
HARD_LIMIT_S = 150.0
SETUP_CODE = (
    "import sys\n"
    "import hotuner.cli as cli\n"
    "for path in sys.argv[1:]:\n"
    "    cli.load_scenario(path)\n"
)
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("certify_s", "s"),
    ("pe_check_s", "s"),
    ("steps_per_s", "system-steps/s"),
    ("peak_rss_mb", "MB"),
)


def _probe() -> float:
    start = time.perf_counter()
    sum(i * i for i in range(100_000))
    return time.perf_counter() - start


def pin_to_fastest_cpu(cpus: set[int]) -> int:
    """Pin this process, and the children it starts next, to the fastest CPU now.

    On a shared virtual machine one CPU is often slowed by a neighbour, and a
    process the scheduler moves between CPUs then runs at two speeds. Each
    timed command therefore runs on the CPU that ran a short probe fastest
    just before it.
    """
    best_time, best_cpu = math.inf, min(cpus)
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        elapsed = min(_probe(), _probe())
        if elapsed < best_time:
            best_time, best_cpu = elapsed, cpu
    os.sched_setaffinity(0, {best_cpu})
    return best_cpu


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict[str, str], log_path: Path,
              cpus: set[int] | None = None, timeout: float = HARD_LIMIT_S
              ) -> tuple[float, int, float, str]:
    """Run one process to completion; return (wall s, exit code, max RSS MB, output).

    With cpus given, the process runs on whichever of them is fastest now. A
    process still running after timeout seconds is killed (exit code -9).
    """
    if cpus:
        pin_to_fastest_cpu(cpus)
    with open(log_path, "w+") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                                cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            code = os.waitstatus_to_exitcode(status)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            code = -9
            log.write(f"\nkilled after {timeout:.1f} s\n")
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = code
        log.flush()
        log.seek(0)
        output = log.read()
    return elapsed, code, usage.ru_maxrss / 1024.0, output


def measure_setup(scenarios: list[Path], env: dict[str, str], cpus: set[int],
                  repeats: int, times: list[float], hard_stop: float) -> list[str]:
    """Time `repeats` fresh interpreters importing hotuner and loading the scenarios.

    Appends each wall time to `times`; returns the problems found.
    """
    argv = [sys.executable, "-c", SETUP_CODE] + [str(p) for p in scenarios]
    for _ in range(repeats):
        elapsed, code, _, output = run_child(argv, env, WORK / "setup.log", cpus,
                                             hard_stop - time.perf_counter())
        if code != 0:
            return [f"setup exited {code}: {output.strip()[-200:]}"]
        times.append(elapsed)
    return []


def _fresh(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def run_untraced(workload: Workload, seed: int, seconds: float, scenarios: list[Path]
                 ) -> tuple[list[Outcome], dict]:
    """Closed loop of CLI subprocesses for `seconds`; returns outcomes and metrics."""
    env = child_env()
    cpus = os.sched_getaffinity(0)
    hard_stop = time.perf_counter() + HARD_LIMIT_S
    try:
        return _untraced_loop(workload, seed, seconds, scenarios, env, cpus, hard_stop)
    finally:
        os.sched_setaffinity(0, cpus)


def _untraced_loop(workload: Workload, seed: int, seconds: float, scenarios: list[Path],
                   env: dict[str, str], cpus: set[int], hard_stop: float
                   ) -> tuple[list[Outcome], dict]:
    outcomes: list[Outcome] = []
    # The first interpreter warms the file cache and is not timed.
    problems = measure_setup(scenarios, env, cpus, 1, [], hard_stop)
    setup_times: list[float] = []
    per_iteration: list[dict[str, float]] = []
    pe_checks: list[float] = []
    peak_rss = 0.0
    steps = sum(expected_steps(p) for p in scenarios)
    out_root = scenarios[0].parent / "out"
    deadline = time.perf_counter() + seconds
    index = 0
    while not problems:
        started = time.perf_counter()
        problems += measure_setup(scenarios, env, cpus, SETUP_PER_ITERATION, setup_times,
                                  hard_stop)
        totals = {"run_s": 0.0, "certify_s": 0.0}
        iteration_pe_checks = []
        for command in iteration_commands(workload, scenarios, seed, out_root, index):
            if problems or time.perf_counter() > hard_stop:
                break
            _fresh(command.out_dir)
            argv = [sys.executable, "-m", "hotuner"] + command.argv()
            log = command.out_dir.parent / f"{command.out_dir.name}.log"
            elapsed, code, rss, output = run_child(argv, env, log, cpus,
                                                   hard_stop - time.perf_counter())
            if command.verb == "pe-check":
                iteration_pe_checks.append(elapsed)
            else:
                totals[f"{command.verb}_s"] += elapsed
            peak_rss = max(peak_rss, rss)
            outcomes.append(check(workload, command, code, output))
        if time.perf_counter() > hard_stop:
            problems.append(f"stopped at the {HARD_LIMIT_S:.0f} s limit in iteration {index}")
        if problems:
            break
        totals["steps_per_s"] = steps / totals["run_s"]
        per_iteration.append(totals)
        pe_checks += iteration_pe_checks
        index += 1
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    values: dict = {"problems": problems, "iterations": per_iteration}
    if per_iteration:
        values.update({name: statistics.median(it[name] for it in per_iteration)
                       for name in ("run_s", "certify_s", "steps_per_s")})
        values["pe_check_s"] = statistics.median(pe_checks)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = peak_rss
    return outcomes, values


def _in_process_iteration(workload: Workload, scenarios: list[Path], seed: int,
                          cpus: set[int], tracer=None, verbs=("run", "certify", "pe-check")
                          ) -> tuple[list[Outcome], float]:
    """Run one iteration's `verbs` through hotuner.cli.main; return outcomes and run s."""
    import hotuner.cli as cli

    outcomes, run_s = [], 0.0
    for command in iteration_commands(workload, scenarios, seed,
                                      scenarios[0].parent / "out"):
        if command.verb not in verbs:
            continue
        _fresh(command.out_dir)
        pin_to_fastest_cpu(cpus)
        if tracer is not None:
            tracer.command = command.verb
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                code = cli.main(command.argv())
            except Exception:  # a crash is a failed operation, not a benchmark error
                traceback.print_exc(file=captured)
                code = -1
            elapsed = time.perf_counter() - start
        if command.verb == "run":
            run_s += elapsed
        outcomes.append(check(workload, command, code, captured.getvalue()))
    return outcomes, run_s


def run_traced(workload: Workload, seed: int, seconds: float, scenarios: list[Path]
               ) -> tuple[list[Outcome], dict]:
    """Alternate untraced `run`s and traced iterations in-process; returns per-layer metrics.

    Each traced iteration follows an untraced in-process pass over the same
    `run` commands at the same seed; trace.overhead_ratio is the median of
    traced over untraced run time across these pairs.
    """
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import spans

    deadline = time.perf_counter() + seconds
    cpus = os.sched_getaffinity(0)
    tracer = spans.Tracer()
    outcomes: list[Outcome] = []
    ratios = []
    try:
        while True:
            started = time.perf_counter()
            more, plain_run_s = _in_process_iteration(workload, scenarios, seed, cpus,
                                                      verbs=("run",))
            outcomes += more
            spans.install(tracer)
            try:
                more, run_s = _in_process_iteration(workload, scenarios, seed, cpus, tracer)
            finally:
                tracer.restore()
            outcomes += more
            ratios.append(run_s / plain_run_s)
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    if tracer.absent:
        print("absent spans (names this version no longer has): "
              + ", ".join(tracer.absent))
    return outcomes, spans.per_layer_values(tracer, len(ratios), statistics.median(ratios))


def metric_units(trace: bool) -> list[tuple[str, str]]:
    if trace:
        import spans

        return spans.per_layer_names()
    return list(END_TO_END)


def summarize(workload: Workload, trace: bool, outcomes: list[Outcome],
              values: dict) -> dict:
    """Print the human-readable report and return the result object."""
    problems = values.get("problems", [])
    for outcome in outcomes:
        if outcome.failed:
            tag = "known finding" if outcome.known else "FAILED"
            print(f"{tag}: {outcome.command.verb} {outcome.command.scenario.name}: "
                  + "; ".join(outcome.problems))
    for problem in problems:
        print(f"FAILED: {problem}")
    attempted = len(outcomes) + (1 if problems else 0)
    failed = sum(o.failed for o in outcomes) + (1 if problems else 0)
    correct = not problems and bool(outcomes) and all(
        o.known for o in outcomes if o.failed)
    metrics = {}
    if all(name in values for name, _ in metric_units(trace)):
        for name, unit in metric_units(trace):
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{workload.name:>10s}  {name:<40s} {values[name]:>14.6g} {unit}")
    for index, totals in enumerate(values.get("iterations", ())):
        print(f"{workload.name:>10s}  iteration {index}: " + ", ".join(
            f"{name} {value:.4g}" for name, value in totals.items()))
    print(f"{workload.name:>10s}  {'fail_ratio':<40s} "
          f"{failed / max(attempted, 1):>14.6g} failed/attempted ({failed}/{attempted})")
    if workload.notes:
        print(f"{workload.name:>10s}  note: {workload.notes}")
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 t_end: float | None = None) -> dict:
    workload = WORKLOADS[name]
    _fresh(WORK / name)
    scenarios = write_scenarios(workload, ROOT, WORK / name, t_end=t_end)
    runner = run_traced if trace else run_untraced
    outcomes, values = runner(workload, seed, seconds, scenarios)
    return summarize(workload, trace, outcomes, values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="short-horizon smoke run of every workload plus gate tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hotuner" / "__init__.py").is_file():
        print(f"no hotuner sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # A terminated benchmark still stops and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.self_check:
        import selfcheck

        return selfcheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    WORK.mkdir(exist_ok=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
