"""Span recorder installed over nfscan's module boundaries for a traced run.

Wrappers replace public functions on the modules that call them (for
example ``cli.write_map_csv`` or ``scan.segment_fields``) and restore the
originals on uninstall, so nothing under ``src/`` changes and untraced
passes run the program untouched.  Spans (name, start, end, parent,
thread) and counters stay in memory until the benchmark writes them out.
"""

import collections
import contextlib
import functools
import sys
import threading
import time


class Tracer:
    def __init__(self):
        self.spans = []   # [name, t0, t1, parent index or -1, thread ident]
        self.counters = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        # A span opened on a pool thread has no stack of its own; it belongs
        # to whatever the main thread has open while it waits on the pool.
        stack = self._stack()
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1] if parent_stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, threading.get_ident()])
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, **amounts):
        with self._lock:
            self.counters.update(amounts)


def _kernel_counts(args, kwargs, out):
    starts, points = args[0], args[3]
    ns = len(starts)
    npts = len(points) if getattr(points, "ndim", 2) == 2 else 1
    # Computed from array sizes: segment endpoints and currents in, points
    # in, complex field out.  The temporaries of the kernel are not counted.
    return {"fields.seg_evals": ns * npts, "fields.kernel_calls": 1,
            "fields.bytes_computed": 8 * (8 * ns + 9 * npts)}


def _scan_counts(args, kwargs, out):
    return {"scan.threads_sum": kwargs.get("threads", 1), "scan.calls": 1}


def _write_map_counts(args, kwargs, out):
    return {"formats.write_map_cells": args[0].values.size, "formats.write_map_bytes": len(out)}


def _parse_map_counts(args, kwargs, out):
    return {"formats.parse_map_cells": out.values.size}


def _db_map_counts(args, kwargs, out):
    floor = kwargs.get("floor_db", args[1] if len(args) > 1 else -300.0)
    return {"cli.db_clipped_cells": int((out.values <= floor).sum())}


def _write_text_counts(args, kwargs, out):
    return {"cli.io_bytes": len(args[1]), "cli.files_written": 1}


def _read_text_counts(args, kwargs, out):
    return {"cli.read_bytes": len(out)}


# (module, attribute, span name, counter hook)
_BOUNDARIES = (
    ("cli", "load_config", "config.load", None),
    ("cli", "run_simulated_scan", "scan.run", _scan_counts),
    ("scan", "segment_fields", "fields.kernel", _kernel_counts),
    ("fields", "segment_fields", "fields.kernel", _kernel_counts),
    ("scan", "current_distribution", "fields.current", None),
    ("probe", "current_distribution", "fields.current", None),
    ("cli", "probe_transfer", "probe.transfer", None),
    ("cli", "calibrate", "calibration.calibrate", None),
    ("cli", "apply_calibration_to_scan", "scan.extract", None),
    ("cli", "extract_profile", "scan.profile", None),
    ("cli", "map_stats", "scan.stats", None),
    ("cli", "write_map_csv", "formats.write_map", _write_map_counts),
    ("cli", "parse_map_csv", "formats.parse_map", _parse_map_counts),
    ("cli", "parse_touchstone", "formats.touchstone", None),
    ("cli", "write_touchstone", "formats.touchstone", None),
    ("cli", "parse_cf_csv", "formats.cf", None),
    ("cli", "write_cf_csv", "formats.cf", None),
    ("cli", "render_pgm", "formats.render", None),
    ("cli", "write_profile_csv", "formats.profile_write", None),
    ("cli", "_db_map", "cli.db_map", _db_map_counts),
    ("cli", "_write_text", "cli.io", _write_text_counts),
    ("cli", "_read_text", "cli.read", _read_text_counts),
)


def _wrap(tracer, func, name, counts):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with tracer.span(name):
            out = func(*args, **kwargs)
        if counts is not None:
            tracer.count(**counts(args, kwargs, out))
        return out
    return traced


def install(tracer):
    """Wrap every boundary that exists; return the undo list and the misses."""
    undo, missing = [], []
    for mod_name, attr, name, counts in _BOUNDARIES:
        module = sys.modules.get(f"nfscan.{mod_name}")
        func = getattr(module, attr, None)
        if func is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        undo.append((module, attr, func))
        setattr(module, attr, _wrap(tracer, func, name, counts))
    return undo, missing


def uninstall(undo):
    for module, attr, func in reversed(undo):
        setattr(module, attr, func)


def _covered(intervals):
    """Length of the union of (t0, t1) intervals."""
    total, end = 0.0, -float("inf")
    for t0, t1 in sorted(intervals):
        if t1 > end:
            total += t1 - max(t0, end)
            end = t1
    return total


def layer_metrics(tracer):
    """Per-layer numbers of one traced pass (times in s, counts exact)."""
    spans = tracer.spans
    children = collections.defaultdict(list)
    busy = collections.Counter()
    for i, (name, t0, t1, parent, _tid) in enumerate(spans):
        busy[name] += t1 - t0
        if parent >= 0:
            children[parent].append(i)

    def self_time(i):
        t0, t1 = spans[i][1:3]
        kids = [(max(t0, spans[k][1]), min(t1, spans[k][2])) for k in children[i]]
        return (t1 - t0) - _covered([iv for iv in kids if iv[1] > iv[0]])

    commands = [i for i, s in enumerate(spans) if s[0].startswith("cmd.")]
    runs = [i for i, s in enumerate(spans) if s[0] == "scan.run"]
    cmd_wall = sum(spans[i][2] - spans[i][1] for i in commands)
    cli_self = sum(self_time(i) for i in commands)
    # Kernel spans under a scan: busy time per thread over the phase they span.
    pool = [spans[k] for i in runs for k in children[i] if spans[k][0] == "fields.kernel"]
    phase = _covered([(s[1], s[2]) for s in pool])
    pool_busy = sum(s[2] - s[1] for s in pool)
    c = tracer.counters
    threads = c["scan.threads_sum"] / c["scan.calls"] if c["scan.calls"] else 0
    kernel_s = busy["fields.kernel"]
    return {
        "fields.kernel_s": kernel_s,
        "fields.kernel_calls": c["fields.kernel_calls"],
        "fields.seg_evals": c["fields.seg_evals"],
        "fields.meval_per_s": c["fields.seg_evals"] / kernel_s / 1e6 if kernel_s else 0.0,
        "fields.bytes_computed": c["fields.bytes_computed"],
        "fields.current_s": busy["fields.current"],
        "probe.transfer_s": busy["probe.transfer"],
        "scan.run_s": busy["scan.run"],
        "scan.self_s": sum(self_time(i) for i in runs),
        "scan.threads": threads,
        "scan.pool_eff": pool_busy / (threads * phase) if phase and threads else 0.0,
        "scan.extract_s": busy["scan.extract"],
        "scan.profile_s": busy["scan.profile"],
        "scan.stats_s": busy["scan.stats"],
        "calibration.calibrate_s": busy["calibration.calibrate"],
        "formats.write_map_s": busy["formats.write_map"],
        "formats.write_map_cells": c["formats.write_map_cells"],
        "formats.write_map_bytes": c["formats.write_map_bytes"],
        "formats.parse_map_s": busy["formats.parse_map"],
        "formats.parse_map_cells": c["formats.parse_map_cells"],
        "formats.touchstone_s": busy["formats.touchstone"],
        "formats.cf_s": busy["formats.cf"],
        "formats.render_s": busy["formats.render"],
        "formats.profile_write_s": busy["formats.profile_write"],
        "cli.db_map_s": busy["cli.db_map"],
        "cli.db_clipped_cells": c["cli.db_clipped_cells"],
        "cli.io_s": busy["cli.io"],
        "cli.io_bytes": c["cli.io_bytes"],
        "cli.files_written": c["cli.files_written"],
        "cli.read_s": busy["cli.read"],
        "cli.read_bytes": c["cli.read_bytes"],
        "config.load_s": busy["config.load"],
        "cli.self_s": cli_self,
        "trace.unaccounted_ratio": cli_self / cmd_wall if cmd_wall else 0.0,
    }
