"""Command-line front end.

Subcommands: simulate, probe-transfer, calibrate, extract, profile,
stats, render.  Exit codes: 0 success, 2 usage/config/format error,
3 runtime numerical error (field singularity).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .calibration import KERNELS, SIGN_MODES, calibrate
from .config import center_over_trace, load_config, path_error, read_text as _read_text
from .errors import SingularityError
from .formats import (FieldMap, NetworkData, parse_cf_csv, parse_map_csv, parse_touchstone,
                      render_pgm, write_cf_csv, write_map_csv, write_profile_csv,
                      write_touchstone)
from .scan import (apply_calibration_to_scan, extract_profile, map_stats, probe_transfer,
                   run_simulated_scan)


def _write_text(path, data):
    """Write `data` (str, as UTF-8, or bytes) to `path` atomically.

    The bytes go to a temporary file in the target's directory, which then
    replaces the target (`os.replace`).  A failed write leaves the previous
    file, if any, as it was, and no temporary file.  The ConfigError names
    `path` (see `config.path_error`).
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except (OSError, ValueError) as exc:
        with contextlib.suppress(OSError, ValueError):  # ValueError: a NUL byte in tmp
            os.remove(tmp)
        raise path_error("cannot write", path, exc) from None


def _freq_tag(i, f_hz):
    return f"{i:03d}_{f_hz / 1e9:g}GHz"


#: Magnitude floor of a dB map: -300 dB.
_DB_FLOOR = 1e-15
_DB_FLOOR_DB = 20.0 * math.log10(_DB_FLOOR)


def _db_map(values, *, grid, f, component, meta):
    """Complex (ny, nx) values -> dB-magnitude map (|.| clipped to a representable floor)."""
    vals = 20.0 * np.log10(np.maximum(np.abs(values), _DB_FLOOR))
    vals.flags.writeable = False  # kept by the FieldMap without a copy
    return FieldMap(grid=grid, f=f, component=component, values=vals, meta=meta)


def cmd_simulate(args):
    cfg = load_config(args.config)
    try:
        os.makedirs(args.out, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise path_error("cannot create output directory", args.out, exc) from None
    result = run_simulated_scan(cfg.trace, cfg.substrate, cfg.probe, cfg.grid,
                                cfg.sweep, cfg.drive)
    comp = result.component
    maps = (("s21_db", result.s21, "s21", {}),
            ("v_dbv", result.vport, "vport", {"normal": comp}),
            (f"{comp}_dba_m", result.hfield, comp, {}))
    clipped = cells = 0
    for i, f_hz in enumerate(result.freqs):
        tag = _freq_tag(i, f_hz)
        for prefix, values, component, meta in maps:
            fmap = _db_map(values[i], grid=result.grid, f=float(f_hz), component=component,
                           meta=meta)
            clipped += int(np.count_nonzero(fmap.values <= _DB_FLOOR_DB))
            cells += fmap.values.size
            _write_text(os.path.join(args.out, f"{prefix}_{tag}.csv"), write_map_csv(fmap))
    if clipped:
        print(f"warning: {clipped} of {cells} map cells clipped to the {_DB_FLOOR_DB:g} dB floor",
              file=sys.stderr)
    provenance = {"config_sha256": cfg.digest, "kernel": cfg.cal.kernel,
                  "sign_mode": cfg.cal.sign_mode, "tool": f"nfscan {__version__}"}
    _write_text(os.path.join(args.out, "provenance.json"),
                json.dumps(provenance, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_probe_transfer(args):
    cfg = load_config(args.config)
    center = center_over_trace(cfg.trace, cfg.substrate, cfg.grid.z_height)
    freqs, s21 = probe_transfer(cfg.trace, cfg.substrate, cfg.probe, center, cfg.sweep, cfg.drive)
    net = NetworkData(f=freqs, s21=s21, z_ref=cfg.probe.port_z)
    _write_text(args.out, write_touchstone(net))
    return 0


def cmd_calibrate(args):
    net = parse_touchstone(_read_text(args.probe))
    table = calibrate(net, d=args.d * 1e-3, h=args.h * 1e-3, kernel=args.kernel)
    _write_text(args.out, write_cf_csv(table))
    return 0


def cmd_extract(args):
    vmap = parse_map_csv(_read_text(args.scan))
    table = parse_cf_csv(_read_text(args.cf))
    out = apply_calibration_to_scan(vmap, table, args.freq, sign_mode=args.sign_mode)
    _write_text(args.out, write_map_csv(out))
    return 0


def cmd_profile(args):
    fmap = parse_map_csv(_read_text(args.map))
    coords, values = extract_profile(fmap, args.axis, args.at * 1e-3)
    _write_text(args.out, write_profile_csv(coords, values, args.axis, args.at * 1e-3,
                                            fmap.f, fmap.component))
    return 0


def cmd_stats(args):
    fmap = parse_map_csv(_read_text(args.map))
    s = map_stats(fmap)
    print(f"min {s.min_db!r} dB at x={s.argmin[0]!r} m y={s.argmin[1]!r} m "
          f"(ix={s.argmin_idx[0]}, iy={s.argmin_idx[1]})")
    print(f"max {s.max_db!r} dB at x={s.argmax[0]!r} m y={s.argmax[1]!r} m "
          f"(ix={s.argmax_idx[0]}, iy={s.argmax_idx[1]})")
    return 0


def cmd_render(args):
    fmap = parse_map_csv(_read_text(args.map))
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
