"""One workload in a fresh interpreter: build inputs, run passes, check outputs.

Started by run.py with ``src`` on PYTHONPATH, so the process holds only
this workload and its peak RSS belongs to it.  Writes a JSON result file.

Untraced run: one warm-up pass, then timed passes until --seconds have
gone by (at least MIN_PASSES).  The workload's yardstick runs before the
first command of each timed pass and after every command, outside the
command times; each pass is reported as raw time and as the sum of each
command's time over the yardstick times around it (see yardstick.py).
Traced run: one untraced pass, then traced and untraced passes in turn,
then (for workloads that scan) one plain ``--threads 1`` pass as the
single-thread baseline.  Every pass after the first must reproduce the
first pass's files and stdout byte for byte.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import tracing
import workloads
import yardstick
from nfscan import cli

MIN_PASSES = 3
HARD_LIMIT_S = 120.0  # start no pass after this, so a run ends within 180 s


def run_pass(plan, outdir, tracer=None, gauge=False):
    """(per-command times, stdouts, indices of commands that failed, yardstick times).

    Times are (wall s, cpu s) pairs.  With `gauge`, the yardstick runs
    before the first command and after each one.
    """
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    stdouts, failed = [], set()
    marks = [yardstick.timed(plan.yardstick)] if gauge else []
    times = []
    for i, argv in enumerate(plan.commands):
        buf = io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span(f"cmd.{argv[0]}"):
                        rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        stdouts.append(buf.getvalue())
        if rc != 0:
            failed.add(i)
        if gauge:
            marks.append(yardstick.timed(plan.yardstick))
    return times, stdouts, failed, marks


def normalised(times, marks):
    """(wall, cpu): each command's time over the mean of the yardstick times
    just before and after it, summed over the pass."""
    return tuple(sum(t[k] * 2 / (before[k] + after[k])
                     for t, before, after in zip(times, marks, marks[1:])) for k in (0, 1))


def digest(outdir, stdouts):
    out = {f"stdout[{i}]": hashlib.sha256(s.encode()).hexdigest() for i, s in enumerate(stdouts)}
    for base, _dirs, files in os.walk(outdir):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[path] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Runner:
    def __init__(self, plan, outdir):
        self.plan, self.outdir = plan, outdir
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, plan=None, tracer=None, gauge=False):
        """Run and check one pass; return (wall s, cpu s, per-command times, yardstick times)."""
        plan = plan or self.plan
        times, stdouts, failed, marks = run_pass(plan, self.outdir, tracer, gauge)
        wall, cpu = (sum(t[k] for t in times) for k in (0, 1))
        found = digest(self.outdir, stdouts)
        if self.reference is None:
            self.reference = found
            try:
                errors = plan.check(stdouts)
            except Exception:
                # Outputs the check cannot even read fail every command.
                msg = f"output check raised: {traceback.format_exc(limit=-1)}"
                errors = [(i, msg) for i in range(len(plan.commands))]
        else:
            errors = [(self._producer(key), f"{key}: differs from the first pass")
                      for key in sorted(set(found) | set(self.reference))
                      if found.get(key) != self.reference.get(key)]
        self.errors += [msg for _, msg in errors]
        failed |= {i for i, _ in errors}
        self.attempted += len(plan.commands)
        self.failed += len(failed)
        return wall, cpu, times, marks

    def _producer(self, key):
        if key.startswith("stdout["):
            return int(key[7:-1])
        i = self.plan.producer(key)
        return 0 if i is None else i


def effective_threads(outdir):
    """Thread count the CLI passes to the scan when --threads is not given."""
    doc = workloads.table3(np.random.default_rng(0))
    doc["grid"].update(x_max=-10.0, y_max=-12.5)
    os.makedirs(outdir, exist_ok=True)
    cfg = workloads.write_json(os.path.join(outdir, "one-point.json"), doc)
    tracer = tracing.Tracer()
    undo, _missing = tracing.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["simulate", "--config", cfg, "--out", os.path.join(outdir, "one-point")])
    finally:
        tracing.uninstall(undo)
    calls = tracer.counters["scan.calls"]
    return tracer.counters["scan.threads_sum"] // calls if calls else None


def environment(root, workdir):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_root = os.path.join(root, "src")
    paths = sorted(os.path.join(base, name) for base, _dirs, files in os.walk(src_root)
                   if "__pycache__" not in base for name in files)
    src = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            src.update(os.path.relpath(path, src_root).encode() + b"\0" + fh.read())
    fields = sys.modules["nfscan.fields"]
    return {"backend": fields.kernel_backend() if hasattr(fields, "kernel_backend") else None,
            "threads": effective_threads(os.path.join(workdir, "env")),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "src_sha256": src.hexdigest()}


def measure(runner, seconds):
    runner.run(gauge=True)  # warm-up: checked, not timed
    walls, cpus, refs, wall_norms, cpu_norms = [], [], [], [], []
    start = time.perf_counter()
    while True:
        wall, cpu, times, marks = runner.run(gauge=True)
        wall_norm, cpu_norm = normalised(times, marks)
        walls.append(wall)
        cpus.append(cpu)
        refs.append(statistics.fmean(m[0] for m in marks))
        wall_norms.append(wall_norm)
        cpu_norms.append(cpu_norm)
        spent = time.perf_counter() - start
        if (spent >= seconds and len(walls) >= MIN_PASSES) or spent >= HARD_LIMIT_S:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": len(walls) + 1, "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus), "yardstick_s": statistics.median(refs),
            "wall_norm": statistics.median(wall_norms), "cpu_norm": statistics.median(cpu_norms),
            "peak_rss_mb": rss_kb / 1024}


def measure_traced(runner, seconds, trace_path):
    plain = [runner.run()[0]]
    traced, layers, dumps = [], [], []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer()
        undo, missing = tracing.install(tracer)
        try:
            traced.append(runner.run(tracer=tracer)[0])
        finally:
            tracing.uninstall(undo)
        layers.append(tracing.layer_metrics(tracer))
        dumps.append({"spans": tracer.spans, "counters": dict(tracer.counters)})
        plain.append(runner.run()[0])
        spent = time.perf_counter() - start
        if spent >= seconds or spent >= HARD_LIMIT_S:
            break
    metrics = {k: statistics.median_low(m[k] for m in layers) for k in layers[0]}
    wall = statistics.median(plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - wall
    metrics["scan.thread_speedup"] = 0.0
    passes = len(plain) + len(traced)
    if runner.plan.runs_scan():
        metrics["scan.thread_speedup"] = runner.run(runner.plan.with_threads(1))[0] / wall
        passes += 1
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"missing_boundaries": missing, "passes": dumps}, fh)
    return {"passes": passes, "wall_s": wall, "per_layer": metrics}


def self_test(workdir):
    """Each workload's clean outputs pass; one corrupted map cell fails."""
    ok = True
    rng = random.Random(7)
    for name, build in workloads.WORKLOADS.items():
        indir, outdir = os.path.join(workdir, name, "in"), os.path.join(workdir, name, "out")
        os.makedirs(indir)
        plan = build(3, indir, outdir, small=True)
        _, stdouts, failed, _ = run_pass(plan, outdir)
        clean = plan.check(stdouts)
        maps = []
        for base, _dirs, files in os.walk(outdir):
            for fname in sorted(files):
                path = os.path.join(base, fname)
                with open(path, encoding="utf-8", errors="replace") as fh:
                    if fh.readline().strip() == "# nfscan-map 1":
                        maps.append(path)
        path = rng.choice(sorted(maps))
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        row = rng.choice([i for i, line in enumerate(lines) if line and line[0] != "#"])
        cells = lines[row].split(",")
        col = rng.randrange(len(cells))
        cells[col] = repr(float(cells[col]) + 0.01)
        lines[row] = ",".join(cells)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
        caught = plan.check(stdouts)
        good = not failed and not clean and bool(caught)
        ok &= good
        print(f"{name}: clean outputs {'pass' if not failed and not clean else 'FAIL'}; "
              f"corrupted cell ({os.path.basename(path)} row {row} col {col}) "
              f"{'detected' if caught else 'NOT detected'}: {caught[:1]}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if args.self_test:
        return 0 if self_test(args.workdir) else 1

    indir, outdir = os.path.join(args.workdir, "in"), os.path.join(args.workdir, "out")
    os.makedirs(indir)
    plan = workloads.WORKLOADS[args.workload](args.seed, indir, outdir)
    runner = Runner(plan, outdir)
    if args.trace:
        trace_dir = os.path.join(root, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
        result = measure_traced(runner, args.seconds, trace_path)
        result["trace_file"] = os.path.relpath(trace_path, root)
    else:
        result = measure(runner, args.seconds)
    result.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors[:20],
                  commands=len(plan.commands), env=environment(root, args.workdir))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
