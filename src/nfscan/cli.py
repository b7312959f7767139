"""Command-line front end.

Subcommands: simulate, probe-transfer, calibrate, extract, profile,
stats, render.  Each reads its files by `config.read` and writes each
output by `_dump`.  Exit codes: 0 success, 2 usage/config/format error,
3 runtime numerical error (field singularity).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import json
import math
import os
import shutil
import sys

import numpy as np

from . import __version__
from .calibration import KERNELS, SIGN_MODES, calibrate
from .config import center_over_trace, load_config, path_error, read
from .errors import ConfigError, SingularityError
from .formats import (NetworkData, parse_cf_csv, parse_map_csv, parse_touchstone, render_pgm,
                      write_cf_csv, write_map_stack, write_profile_csv, write_touchstone)
from .scan import apply_calibration_to_scan, extract_profile, map_stats, probe_transfer, scan_grid


def _write_text(path, data):
    """Write `data` (str, as UTF-8, or bytes) to `path` atomically
    (`_write_chunks`)."""
    _write_chunks(path, [data.encode("utf-8") if isinstance(data, str) else data])


def _write_chunks(path, chunks):
    """Write the bytes `chunks` to `path` atomically: to a temporary file in
    its directory (`_dump`), which then replaces it (`_move`).  A failed
    write leaves the previous file, if any, as it was, and no temporary
    file; its ConfigError names `path`."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        _dump(tmp, chunks, path)
        _move(tmp, path)
    except ValueError:  # ConfigError included
        with contextlib.suppress(OSError, ValueError):  # ValueError: a NUL byte in tmp
            os.remove(tmp)
        raise


def _dump(path, chunks, shown):
    """Write the bytes `chunks` to `path`, one `write` each; a ConfigError
    names `shown` (see `config.path_error`)."""
    try:
        fh = open(path, "wb")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in path
        raise path_error("cannot write", shown, exc) from None
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise path_error("cannot write", shown, exc) from None


def _freq_tag(i, f_hz):
    return f"{i:03d}_{f_hz / 1e9:g}GHz"


#: Magnitude floor of a dB map: -300 dB.
_DB_FLOOR = 1e-15
_DB_FLOOR_DB = 20.0 * math.log10(_DB_FLOOR)


def _db_stack(out, values):
    """dB magnitudes of the complex array `values` into the float array
    `out` of its shape (|.| clipped to a representable floor), as
    np.copyto(out, values) stores them as they are: a block of a stack of
    maps, each double as a map on its own would get it."""
    np.abs(values, out=out)
    np.maximum(out, _DB_FLOOR, out=out)
    np.log10(out, out=out)
    np.multiply(20.0, out, out=out)


def _stage_dir(out):
    """Make the directory `simulate` writes into before it publishes to
    `out`; return it and the path to rename it onto, or None to rename its
    files into the existing directory `out`.

    A new `out` is staged beside itself, with any missing parents made; an
    existing one inside itself, so that its files move within one file
    system (a mount point too) and its parent need not be writable.  A
    ConfigError names `out` with the reason os.makedirs(out) would give.
    """
    try:
        target = None
        if not os.path.isdir(out):
            head, tail = os.path.split(out.rstrip(os.sep))
            if tail in ("", os.curdir, os.pardir):
                os.makedirs(out, exist_ok=True)  # "" fails; "a/.." is made as before
            elif os.path.lexists(out):
                raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST))
            else:
                target = os.path.join(head, tail)
        base = os.path.join(out, ".nfscan") if target is None else os.path.join(head, "." + tail)
        for n in itertools.count():
            stage = f"{base}.{os.getpid()}.{n}.tmp"
            try:
                os.makedirs(stage)
                return stage, target
            except FileExistsError:
                if not os.path.lexists(stage):
                    raise
                # left by a killed run whose process id this one has
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in out
        raise path_error("cannot create output directory", out, exc) from None


def _move(src, dst):
    """os.replace(src, dst); a ConfigError names `dst`."""
    try:
        os.replace(src, dst)
    except OSError as exc:
        raise path_error("cannot write", dst, exc) from None


def cmd_simulate(args):
    """Scan, then write every map and provenance.json into a staging
    directory (`_stage_dir`) and publish them: a new --out by one rename of
    that directory, an existing one by renaming each file into it.  A
    failure before that leaves --out as it was, and the staging directory
    is removed in any case.  The scan stores each kernel block's H, V and
    S21 straight as dB (`scan.scan_grid` with `_db_stack`) in three (nf,
    points) float stacks, the only arrays the size of the scan.  Each stack
    is then checked once and written as one (`formats.write_map_stack`):
    one header and one `repr` row scan, each map's bytes written a chunk of
    rows at a time, with no temporary file of their own.
    """
    cfg = load_config(args.config)
    stage, target = _stage_dir(args.out)
    try:
        grid, freqs, comp = cfg.grid, cfg.sweep.frequencies(), "h" + cfg.probe.normal
        h_db, v_db, s21_db = db = np.empty((3, len(freqs), grid.ny * grid.nx))
        scan_grid(cfg.trace, cfg.substrate, cfg.probe, grid, cfg.sweep, cfg.drive, db, _db_stack)
        tags = [_freq_tag(i, f_hz) for i, f_hz in enumerate(freqs)]
        files, clipped = [], 0
        for prefix, stack, component, meta in (
                ("s21_db", s21_db, "s21", {}),
                ("v_dbv", v_db, "vport", {"normal": comp}),
                (f"{comp}_dba_m", h_db, comp, {})):
            if not np.isfinite(stack).all():
                raise ConfigError("dB map contains non-finite values")
            clipped += int(np.count_nonzero(stack <= _DB_FLOOR_DB))
            maps = write_map_stack(grid, freqs, component,
                                   stack.reshape(len(freqs), grid.ny, grid.nx), meta)
            for tag, chunks in zip(tags, maps):
                files.append(f"{prefix}_{tag}.csv")
                _dump(os.path.join(stage, files[-1]), chunks, os.path.join(args.out, files[-1]))
        if clipped:
            print(f"warning: {clipped} of {db.size} map cells clipped to the "
                  f"{_DB_FLOOR_DB:g} dB floor", file=sys.stderr)
        provenance = {"config_sha256": cfg.digest, "kernel": cfg.kernel,
                      "sign_mode": cfg.sign_mode, "tool": f"nfscan {__version__}"}
        files.append("provenance.json")
        text = json.dumps(provenance, sort_keys=True, indent=2) + "\n"
        _dump(os.path.join(stage, files[-1]), [text.encode()], os.path.join(args.out, files[-1]))
        if target is not None:
            _move(stage, target)
        else:
            for name in files:
                _move(os.path.join(stage, name), os.path.join(args.out, name))
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return 0


def cmd_probe_transfer(args):
    cfg = load_config(args.config)
    center = center_over_trace(cfg.trace, cfg.substrate, cfg.grid.z_height)
    freqs, s21 = probe_transfer(cfg.trace, cfg.substrate, cfg.probe, center, cfg.sweep, cfg.drive)
    net = NetworkData(f=freqs, s21=s21)
    _write_text(args.out, write_touchstone(net))
    return 0


def cmd_calibrate(args):
    net = read(args.probe, parse_touchstone)
    table = calibrate(net, d=args.d * 1e-3, h=args.h * 1e-3, kernel=args.kernel)
    _write_text(args.out, write_cf_csv(table))
    return 0


def cmd_extract(args):
    vmap = read(args.scan, parse_map_csv)
    table = read(args.cf, parse_cf_csv)
    out = apply_calibration_to_scan(vmap, table, args.freq, sign_mode=args.sign_mode)
    (chunks,) = write_map_stack(out.grid, [out.f], out.component, out.values[None], out.meta)
    _write_chunks(args.out, chunks)
    return 0


def cmd_profile(args):
    fmap = read(args.map, parse_map_csv)
    coords, values = extract_profile(fmap, args.axis, args.at * 1e-3)
    _write_text(args.out, write_profile_csv(coords, values, args.axis, args.at * 1e-3,
                                            fmap.f, fmap.component))
    return 0


def cmd_stats(args):
    fmap = read(args.map, parse_map_csv)
    s = map_stats(fmap)
    print(f"min {s.min_db!r} dB at x={s.argmin[0]!r} m y={s.argmin[1]!r} m "
          f"(ix={s.argmin_idx[0]}, iy={s.argmin_idx[1]})")
    print(f"max {s.max_db!r} dB at x={s.argmax[0]!r} m y={s.argmax[1]!r} m "
          f"(ix={s.argmax_idx[0]}, iy={s.argmax_idx[1]})")
    return 0


def cmd_render(args):
    fmap = read(args.map, parse_map_csv)
    _write_text(args.out, render_pgm(fmap, args.lo, args.hi))
    return 0


def _finite_float(text):
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return val


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by later calls."""
    ap = argparse.ArgumentParser(prog="nfscan",
                                 description="Magnetic near-field scan simulation and "
                                             "probe-calibration toolkit")
    ap.add_argument("--version", action="version", version=f"nfscan {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a raster scan from a JSON config")
    p.add_argument("--config", required=True, help="scan config (JSON, mm/GHz/dBm units)")
    p.add_argument("--out", required=True, help="output directory for map CSVs")
    p.add_argument("--threads", type=int, default=0,
                   help="accepted for compatibility; the scan runs on one thread, and "
                        "the value changes neither the work nor the output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("probe-transfer", help="synthesize the probe S21 sweep over the "
                                              "configured trace")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output Touchstone .s2p path")
    p.set_defaults(func=cmd_probe_transfer)

    p = sub.add_parser("calibrate", help="antenna-factor table from a probe .s2p")
    p.add_argument("--probe", required=True, help="Touchstone file with the probe S21")
    p.add_argument("--d", type=_finite_float, required=True,
                   help="probe-to-conductor distance (mm)")
    p.add_argument("--h", type=_finite_float, required=True, help="trace height above ground (mm)")
    p.add_argument("--kernel", choices=KERNELS, default="paper")
    p.add_argument("--out", required=True, help="output CF CSV path")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("extract", help="field map from a dBV scan map plus a CF table")
    p.add_argument("--scan", required=True, help="port-voltage map CSV (dBV)")
    p.add_argument("--cf", required=True, help="CF table CSV")
    p.add_argument("--freq", type=_finite_float, required=True, help="frequency in Hz")
    p.add_argument("--sign-mode", choices=SIGN_MODES, default="eq1-consistent")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("profile", help="1-D cut of a map along x or y")
    p.add_argument("--map", required=True)
    p.add_argument("--axis", choices=("x", "y"), required=True)
    p.add_argument("--at", type=_finite_float, required=True,
                   help="position on the other axis (mm), must be a grid line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("stats", help="min/max of a dB map with grid coordinates")
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("render", help="render a dB map to binary P5 PGM")
    p.add_argument("--map", required=True)
    p.add_argument("--lo", type=_finite_float, required=True, help="dB level mapped to black")
    p.add_argument("--hi", type=_finite_float, required=True, help="dB level mapped to white")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)
    return ap


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SingularityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
