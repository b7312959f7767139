#!/usr/bin/env python3
"""nfscan benchmark: whole CLI runs, timed end to end and split by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from any directory; the code under test is ``src/`` of the checkout
that holds this file.  Each workload runs in its own fresh interpreter
(perfbench/worker.py), which calls ``nfscan.cli.main`` in-process on
inputs generated from the seed and checks every output.  With --trace 0
it prints the end-to-end metrics, with --trace 1 the per-layer metrics of
BENCHMARK.json; the last stdout line is one JSON object.  Scratch files go
under .perfbench/ in the checkout and are removed, except trace files.
Exit code 1 means an output check failed, 2 that nothing could run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 175.0
SETUP_SAMPLES = 10


def child_env(workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    env["TMPDIR"] = workdir
    return env


def time_setup(env, samples):
    """Wall times of fresh interpreters importing nfscan.cli."""
    cmd = [sys.executable, "-c", "import nfscan.cli"]
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(name, seed, seconds, trace):
    started = time.perf_counter()
    workdir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}-{name}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        env = child_env(workdir)
        # Half the set-up samples before the workload and half after, so a
        # slow spell of a shared machine weighs less on their median.
        setup = [] if trace else time_setup(env, 1 + SETUP_SAMPLES // 2)[1:]
        result_path = os.path.join(workdir, "result.json")
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                        "--workdir", workdir, "--result", result_path],
                       env=env, check=True,
                       timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if not trace:
            setup += time_setup(env, SETUP_SAMPLES - len(setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = statistics.median(setup) if setup else None
    return result


def metric_values(result, trace):
    if trace:
        return result["per_layer"]
    attempted = result["attempted"]
    return {"setup_s": result["setup_s"], "wall_norm": result["wall_norm"],
            "cpu_norm": result["cpu_norm"], "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": (attempted - result["failed"]) / attempted}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that clean outputs pass and one corrupted map cell fails")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "nfscan", "cli.py")):
        print(f"error: no nfscan source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.self_test:
        workdir = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                                   "--self-test", "--workdir", workdir],
                                  env=child_env(workdir), timeout=DEADLINE_S).returncode
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    selected = names if args.workload == "all" else [args.workload]
    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in selected:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"error: workload {name} did not run: {exc}", file=sys.stderr)
            return 2
        values = metric_values(result, args.trace)
        attempted += result["attempted"]
        failed += result["failed"]
        correct &= result["failed"] == 0
        print(f"{name}  seed={args.seed}  passes={result['passes']}  "
              f"commands/pass={result['commands']}  "
              f"fail_ratio={result['failed'] / result['attempted']!r} "
              f"({result['failed']} of {result['attempted']} commands)")
        for err in result["errors"]:
            print(f"  check failed: {err}")
        for metric, unit in units.items():
            print(f"  {metric:26s} {values[metric]!r} {unit}")
        if not args.trace:
            for metric in ("wall_s", "cpu_s", "yardstick_s"):
                print(f"  {metric:26s} {result[metric]!r} s (raw, not normalised)")
        print(f"  env {json.dumps(result['env'], sort_keys=True)}")
        if args.trace:
            print(f"  spans written to {result['trace_file']}")
        prefix = "" if len(selected) == 1 else f"{name}."
        metrics.update({prefix + m: {"value": values[m], "unit": u} for m, u in units.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
