#!/usr/bin/env python3
"""perfbench command line.

Driver contract (one workload, one pass; last stdout line is the result)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Tools for people::

    python3 perfbench/run.py run [--seed 11] [--sets N] [--trace] [--workload NAME] [--out FILE]
    python3 perfbench/run.py compare A.json B.json
    python3 perfbench/run.py check [--seed 11]

Every workload runs in a fresh subprocess with ``PYTHONHASHSEED=0`` (the
program's stream generator seeds from ``hash()``), in its own session,
with its temporary files under ``perfbench/out/``.  The supervising
process reports the result only if the subprocess left no process and
no file behind.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if __name__ == "__main__":
    # Run as a script, sys.path[0] is perfbench/ itself: point it at the
    # repository root instead, so ``perfbench`` imports as a package and
    # perfbench/trace.py can never shadow the standard library's ``trace``.
    sys.path[0] = ROOT
OUT_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Child: one workload, one pass, in this process
# ---------------------------------------------------------------------------

def provenance(workload, seed: int, seconds: float) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "seed": seed,
        "seconds": seconds,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "round_ops": list(workload.round_ops),
        "driver_threads": workload.clients,
        "host_cores": len(os.sched_getaffinity(0)),
        "loadavg_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        "commit": commit,
    }


def child_main(args) -> int:
    from perfbench import harness, layers
    from perfbench.hostspeed import HostSpeed
    from perfbench.trace import Tracer

    workload = harness.WORKLOADS[args.workload]
    cores = len(os.sched_getaffinity(0))
    if workload.clients > cores:
        print(f"perfbench: {workload.name} needs {workload.clients} driver "
              f"threads but only {cores} cores are usable", file=sys.stderr)
        return 2
    stamp = provenance(workload, args.seed, args.seconds)
    work_dir = args.work_dir
    speed = HostSpeed()
    speed.start()       # forks: before any thread, client or tracer exists
    try:
        if not args.trace:
            run = harness.run_rounds(workload, args.seed, args.seconds, work_dir,
                                     scale=args.scale, speed=speed)
            metrics = harness.end_to_end_metrics(run)
            samples = harness.sample_counts(run)
            clean = True
        else:
            # One untraced reference round, then traced rounds for half the
            # seconds, then the probes: the pass as a whole measures for
            # about --seconds, like the untraced one.
            reference = harness.run_round(workload, args.seed, 0, work_dir,
                                          scale=args.scale, speed=speed)
            tracer = Tracer()
            tracer.install()
            try:
                run = harness.run_rounds(
                    workload, args.seed, args.seconds / 2, work_dir, tracer=tracer,
                    oracle=True, scale=args.scale, speed=speed)
            finally:
                tracer.uninstall()
            spans = tracer.write_spans(
                os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl"))
            probes = layers.run_probes(workload, args.seed, work_dir, args.scale, speed)
            host = speed.summary()
            metrics = layers.layer_metrics(
                run, tracer, reference.attempted / reference.window_s, probes,
                host["spin_p50_us"])
            mismatches = [m for r in run.rounds for m in r.mismatches]
            for mismatch in mismatches[:5]:
                print(f"oracle mismatch: {mismatch}", file=sys.stderr)
            clean = not mismatches and reference.failed == 0
            samples = {**harness.sample_counts(run), "spans_written": spans,
                       "self_time_s": layers.total_self_ns(run) / 1e9,
                       "clients": workload.clients, "probes": probes}
        samples["host_speed"] = speed.summary()
    except harness.BenchmarkViolation as exc:
        print(f"perfbench: violation: {exc}", file=sys.stderr)
        return 3
    finally:
        speed.stop()

    for name, (value, unit) in metrics.items():
        print(f"{workload.name:16s} {name:44s} {value:16.4f} {unit}")
    print(f"{workload.name:16s} attempted={run.attempted} failed={run.failed} "
          f"{json.dumps(samples)}")
    result = {
        "correct": clean and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump({**result, "workload": workload.name, "trace": args.trace,
                       "provenance": stamp, "samples": samples}, handle, indent=1)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Supervisor: fresh subprocess per workload, cleanliness gate
# ---------------------------------------------------------------------------

def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def supervise(workload: str, seed: int, seconds: float, trace: bool,
              scale: float = 1.0, report: str | None = None) -> tuple[int, str]:
    """Run one workload pass in a subprocess; ``(exit code, stdout)``.
    Non-zero when the child failed, hung, or left anything behind."""
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}-{workload}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = dict(os.environ, PYTHONHASHSEED="0", TMPDIR=work_dir)
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--scale", str(scale),
        "--work-dir", work_dir,
    ]
    if report:
        command += ["--report", report]
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        code = child.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {CHILD_TIMEOUT_S}s; killing it",
              file=sys.stderr)
        code, stdout = 4, ""
    strays = _group_alive(child.pid)    # anything left in the child's session?
    if strays:
        os.killpg(child.pid, signal.SIGKILL)
    child.wait()
    leftovers = os.listdir(work_dir)
    shutil.rmtree(work_dir, ignore_errors=True)
    if code == 0 and strays:
        print(f"perfbench: {workload} left processes behind", file=sys.stderr)
        code = 5
    if code == 0 and leftovers:
        print(f"perfbench: {workload} left files behind: {leftovers[:5]}",
              file=sys.stderr)
        code = 6
    return code, stdout


def driver_main(args) -> int:
    names = [w["name"] for w in load_benchmark()["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    code, stdout = supervise(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.scale, args.report)
    if code != 0:
        return code
    sys.stdout.write(stdout)
    return 0


# ---------------------------------------------------------------------------
# run / compare / check
# ---------------------------------------------------------------------------

def run_set(seed: int, seconds: float, trace_modes, workloads, scale: float = 1.0) -> dict:
    """One pass over ``workloads`` per trace mode; the merged report."""
    reports = []
    for name in workloads:
        for trace in trace_modes:
            report = os.path.join(OUT_DIR, f"report-{name}-trace{int(trace)}.json")
            code, stdout = supervise(name, seed, seconds, trace, scale, report)
            if code != 0:
                raise SystemExit(f"perfbench: {name} (trace={int(trace)}) failed "
                                 f"with exit code {code}; nothing reported")
            sys.stdout.write(stdout)
            with open(report, encoding="utf-8") as handle:
                reports.append(json.load(handle))
    return {"reports": reports}


def cmd_run(args) -> int:
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = [args.workload] if args.workload else names
    modes = [False, True] if args.trace else [False]
    scale = 0.05 if args.quick else 1.0
    # a quick run is one small round per pass, not run_seconds of them
    seconds = args.seconds or (0.1 if args.quick else benchmark["run_seconds"])
    merged = {"reports": []}
    for offset in range(args.sets):     # seeds seed, seed+1, ...: spread for compare
        merged["reports"] += run_set(
            args.seed + offset, seconds, modes, workloads, scale)["reports"]
    if any(not r["correct"] for r in merged["reports"]):
        print("perfbench: some operations failed; see the reports", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=1)
    return 0


def _end_to_end_values(document: dict) -> dict:
    """``(workload, metric) -> [values]`` of the untraced reports."""
    values: dict = {}
    for report in document["reports"]:
        if report["trace"]:
            continue
        for metric, entry in report["metrics"].items():
            values.setdefault((report["workload"], metric), []).append(entry["value"])
    return values


def _spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 if < 2 values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def compare(base: dict, other: dict, benchmark: dict) -> list:
    """Rows ``(workload, metric, base, other, ratio, verdict)``; the ratio's
    base is always the first file.  ``worse`` = other is beyond the
    metric's bound on the bad side; ``unresolved`` = it is, but the
    run-to-run spread of either side is wider than the bound."""
    rows = []
    base_values, other_values = _end_to_end_values(base), _end_to_end_values(other)
    for workload in (w["name"] for w in benchmark["workloads"]):
        for spec in benchmark["end_to_end"]:
            key = (workload, spec["name"])
            if key not in base_values or key not in other_values:
                continue
            a = statistics.median(base_values[key])
            b = statistics.median(other_values[key])
            ratio = b / a if a else float("inf")
            worsening = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
            verdict = "ok"
            if worsening > spec["bound"]:
                spread = max(_spread(base_values[key]), _spread(other_values[key]))
                verdict = "unresolved" if spread > spec["bound"] else "worse"
            rows.append((workload, spec["name"], a, b, ratio, verdict))
    return rows


def print_comparison(rows, base_label: str) -> None:
    print(f"{'workload':16s} {'metric':14s} {'base':>14s} {'other':>14s} "
          f"{'other/base':>10s}  verdict   (base = {base_label})")
    for workload, metric, a, b, ratio, verdict in rows:
        print(f"{workload:16s} {metric:14s} {a:14.4f} {b:14.4f} {ratio:10.3f}  {verdict}")


def cmd_compare(args) -> int:
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.other, encoding="utf-8") as handle:
        other = json.load(handle)
    rows = compare(base, other, load_benchmark())
    print_comparison(rows, args.base)
    return 1 if any(row[-1] == "worse" for row in rows) else 0


def cmd_check(args) -> int:
    """Two full untraced sets on the current tree must agree within bounds
    (in either direction: neither set may look like a regression of the other)."""
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    first = run_set(args.seed, benchmark["run_seconds"], [False], names)
    second = run_set(args.seed, benchmark["run_seconds"], [False], names)
    forward = compare(first, second, benchmark)
    backward = compare(second, first, benchmark)
    print_comparison(forward, "first set")
    disagree = [row for row in forward + backward if row[-1] != "ok"]
    failed = any(not r["correct"] for r in first["reports"] + second["reports"])
    for workload, metric, a, b, ratio, _ in disagree:
        print(f"DISAGREE {workload} {metric}: {a:.4f} vs {b:.4f} ({ratio:.3f}x)")
    return 1 if disagree or failed else 0


def main(argv) -> int:
    if argv and argv[0] in ("run", "compare", "check"):
        parser = argparse.ArgumentParser(prog="perfbench/run.py")
        commands = parser.add_subparsers(dest="command", required=True)
        run = commands.add_parser("run", help="run every workload, print every metric")
        run.add_argument("--seed", type=int, default=11)
        run.add_argument("--seconds", type=float, default=0.0,
                         help="timed seconds per workload (default: run_seconds)")
        run.add_argument("--trace", action="store_true",
                         help="also run the traced pass (per-layer metrics)")
        run.add_argument("--workload")
        run.add_argument("--out")
        run.add_argument("--sets", type=int, default=1,
                         help="repeat with seeds seed, seed+1, ... so that "
                              "compare can tell 'worse' from 'unresolved'")
        run.add_argument("--quick", action="store_true",
                         help="1/20-size rounds (self-test profile)")
        run.set_defaults(handler=cmd_run)
        cmp_parser = commands.add_parser("compare", help="compare two --out files")
        cmp_parser.add_argument("base")
        cmp_parser.add_argument("other")
        cmp_parser.set_defaults(handler=cmd_compare)
        check = commands.add_parser("check", help="two sets must agree within bounds")
        check.add_argument("--seed", type=int, default=11)
        check.set_defaults(handler=cmd_check)
        args = parser.parse_args(argv)
        return args.handler(args)
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--report", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return child_main(args) if args.child else driver_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
