"""Seeded workload inputs, the CLI command sequence of one pass, and checks.

Each builder takes a seed, writes the workload's inputs into `indir` with
the benchmark's own code, and returns a Plan: the argv lists one pass runs
through ``nfscan.cli.main``, a check of the outputs of a pass, and the
yardstick (yardstick.py) of the kind of work that dominates the pass.  Sizes
are fixed per workload; the seed moves the trace, probe height, drive
level, frequencies and measured noise, none of which changes the work.
"""

import glob
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import reference as ref
import yardstick

H_SUB_MM = 1.6


@dataclass
class Plan:
    commands: list          # argv lists for nfscan.cli.main
    check: Callable         # (stdouts) -> [(command index, message)]
    yardstick: Callable     # a task from yardstick.py

    def producer(self, path):
        """Index of the command whose --out holds `path`, else None."""
        for i, argv in enumerate(self.commands):
            if "--out" in argv:
                out = argv[argv.index("--out") + 1]
                if path == out or path.startswith(out + os.sep):
                    return i
        return None

    def with_threads(self, n):
        return replace(self, commands=[argv + ["--threads", str(n)] if argv[0] == "simulate"
                                       else argv for argv in self.commands])

    def runs_scan(self):
        return any(argv[0] == "simulate" for argv in self.commands)


def table3(rng):
    """The bundled table3 scan with a seeded trace offset, height and drive."""
    y0 = round(rng.uniform(-1.5, 1.5), 3)
    return {
        "substrate": {"h": H_SUB_MM, "eps_r": 4.6, "tan_d": 0.016, "t": 0.035, "sigma": 58e6},
        "trace": {"vertices": [[-15.0, y0], [15.0, y0]],
                  "width": 3.0, "z0": 50.0, "termination": "matched", "max_segment": 1.0},
        "probe": {"side": 4.0, "height": round(rng.uniform(0.8, 1.5), 3), "normal": "y",
                  "loading": "matched-halving", "quad_n": 8},
        "grid": {"x_min": -10.0, "x_max": 10.0, "y_min": -12.5, "y_max": 12.5,
                 "dx": 0.5, "dy": 0.5},
        "sweep": {"f_min": 2.0, "f_max": 3.0, "n_points": 2, "spacing": "linear"},
        "drive": {"power_dbm": round(rng.uniform(-20.0, 0.0), 2), "source_z": 50.0},
        "calibration": {"kernel": "paper", "sign_mode": "eq1-consistent", "d": 1.0,
                        "h": H_SUB_MM},
    }


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def _freqs(doc):
    sw = doc["sweep"]
    return np.linspace(sw["f_min"] * 1e9, sw["f_max"] * 1e9, sw["n_points"])


def _close(got, want, tol):
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol))


def check_scan(doc, scan_dir, rng, n_samples):
    """Errors in a `simulate` output directory.

    Every cell: V_dB - H_dB and S21_dB - V_dB are the probe chain's
    constants.  Seeded sample cells: H, V and S21 match the reference
    Biot-Savart sum.  Tolerances (1e-9 dB, 1e-6 dB) admit any summation
    order but not a changed model.
    """
    errors = []
    g = {k: v * 1e-3 for k, v in doc["grid"].items()}
    nx = round((g["x_max"] - g["x_min"]) / g["dx"]) + 1
    ny = round((g["y_max"] - g["y_min"]) / g["dy"]) + 1
    height = doc["probe"]["height"] * 1e-3
    area = (doc["probe"]["side"] * 1e-3) ** 2
    starts, ends = ref.segments_from_config(doc)
    flat = rng.choice(nx * ny, size=min(n_samples, nx * ny), replace=False)
    iy, ix = np.divmod(flat, nx)
    pts = np.column_stack([g["x_min"] + g["dx"] * ix, g["y_min"] + g["dy"] * iy,
                           np.full(len(flat), H_SUB_MM * 1e-3 + height)])
    freqs = _freqs(doc)
    files = glob.glob(os.path.join(scan_dir, "*"))
    if len(files) != 3 * len(freqs) + 1:
        errors.append(f"{scan_dir}: {len(files)} files, expected {3 * len(freqs) + 1}")
    try:
        with open(os.path.join(scan_dir, "provenance.json"), encoding="utf-8") as fh:
            prov = json.load(fh)
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        if prov.get("config_sha256") != hashlib.sha256(canon).hexdigest():
            errors.append("provenance.json: config_sha256 does not match the config")
    except (OSError, ValueError) as exc:
        errors.append(f"provenance.json: {exc}")
    for i, f in enumerate(freqs):
        maps = {}
        for prefix in ("s21_db", "v_dbv", "hy_dba_m"):
            found = glob.glob(os.path.join(scan_dir, f"{prefix}_{i:03d}_*.csv"))
            if len(found) != 1:
                errors.append(f"{prefix} map {i}: {len(found)} files")
                continue
            try:
                header, vals = ref.read_header_csv(found[0])
            except (OSError, ValueError) as exc:
                errors.append(f"{found[0]}: unreadable: {exc}")
                continue
            if vals.shape != (ny, nx) or not abs(float(header.get("f_hz", "nan")) - f) <= 1e-12 * f:
                errors.append(f"{found[0]}: shape {vals.shape} or f_hz {header.get('f_hz')} wrong")
                continue
            maps[prefix] = vals
        if len(maps) < 3:
            continue
        h_db, v_db, s_db = maps["hy_dba_m"], maps["v_dbv"], maps["s21_db"]
        probe_gain_db = 20 * math.log10(2 * math.pi * f * ref.MU_0 * area / 2)
        drive_db = -10 * math.log10(50.0 * ref.drive_power(doc))
        if not _close(v_db - h_db, probe_gain_db, 1e-9):
            errors.append(f"f={float(f)!r}: V_dB - H_dB is not the probe gain in every cell")
        if not _close(s_db - v_db, drive_db, 1e-9):
            errors.append(f"f={float(f)!r}: S21_dB - V_dB is not the drive normalisation in every cell")
        h = ref.h_field(starts, ends, ref.matched_currents(doc, starts, ends, f), pts)[:, 1]
        v, s21 = ref.port_chain(h * area, f, doc)
        for name, got, want in (("H", h_db, h), ("V", v_db, v), ("S21", s_db, s21)):
            if not _close(got[iy, ix], ref.db(want), 1e-6):
                errors.append(f"f={float(f)!r}: sampled {name} cells differ from Biot-Savart")
    return errors


def raster_fine(seed, indir, outdir, small=False):
    rng = np.random.default_rng(seed)
    doc = table3(rng)
    step = 0.5 if small else 0.1
    doc["grid"].update(dx=step, dy=step)
    doc["sweep"] = {"f_min": round(rng.uniform(0.5, 1.5), 4), "f_max": round(rng.uniform(2.0, 3.0), 4),
                    "n_points": 2 if small else 5, "spacing": "linear"}
    cfg = write_json(os.path.join(indir, "scan.json"), doc)
    scan_dir = os.path.join(outdir, "scan")
    commands = [["simulate", "--config", cfg, "--out", scan_dir]]

    def check(stdouts):
        return [(0, e) for e in check_scan(doc, scan_dir, np.random.default_rng(seed), 256)]
    return Plan(commands, check, yardstick.array)


def sweep_31(seed, indir, outdir, small=False):
    rng = np.random.default_rng(seed)
    doc = table3(rng)
    doc["sweep"] = {"f_min": 0.1, "f_max": 3.0, "n_points": 4 if small else 31, "spacing": "linear"}
    kernel = str(rng.choice(["paper", "image-theory"]))
    probe_doc = json.loads(json.dumps(doc))
    probe_doc["probe"]["aperture"] = "integrated"
    probe_cfg = write_json(os.path.join(indir, "probe.json"), probe_doc)
    scan_cfg = write_json(os.path.join(indir, "scan.json"), doc)
    s2p, cf, scan_dir = (os.path.join(outdir, n) for n in ("probe.s2p", "cf.csv", "scan"))
    height = doc["probe"]["height"]
    commands = [["probe-transfer", "--config", probe_cfg, "--out", s2p],
                ["calibrate", "--probe", s2p, "--d", repr(height), "--h", repr(H_SUB_MM),
                 "--kernel", kernel, "--out", cf],
                ["simulate", "--config", scan_cfg, "--out", scan_dir]]

    def check(stdouts):
        errors = []
        freqs = _freqs(doc)
        starts, ends = ref.segments_from_config(doc)
        tr = doc["trace"]["vertices"]
        center = np.array([(tr[0][0] + tr[-1][0]) / 2e3, (tr[0][1] + tr[-1][1]) / 2e3,
                           (H_SUB_MM + height) * 1e-3])
        nodes, weights = ref.quad_nodes(center, doc["probe"]["side"] * 1e-3,
                                        doc["probe"]["quad_n"])
        want = np.array([ref.port_chain(weights @ ref.h_field(
            starts, ends, ref.matched_currents(doc, starts, ends, f), nodes)[:, 1], f, doc)[1]
            for f in freqs])
        try:
            f_got, s_got = ref.read_touchstone_s21(s2p)
            if not (f_got.shape == freqs.shape and _close(f_got / freqs, 1.0, 1e-8)
                    and _close(s_got / want, 1.0, 2e-8)):
                errors.append((0, "probe.s2p: S21 differs from the integrated aperture sum"))
        except (OSError, ValueError, IndexError) as exc:
            errors.append((0, f"probe.s2p: unreadable: {exc}"))
        try:
            header, rows = ref.read_header_csv(cf)
            cf_want = ref.cf_db(want, height * 1e-3, H_SUB_MM * 1e-3, kernel)
            if header.get("kernel") != kernel or rows.shape != (len(freqs), 2) \
                    or not _close(rows[:, 1], cf_want, 1e-6):
                errors.append((1, "cf.csv: CF differs from 20 log10 G - S21_dB - 34"))
        except (OSError, ValueError) as exc:
            errors.append((1, f"cf.csv: unreadable: {exc}"))
        errors += [(2, e) for e in check_scan(doc, scan_dir, np.random.default_rng(seed), 16)]
        return errors
    return Plan(commands, check, yardstick.mixed)


_NUM = r"([-+.\deE]+)"
_STATS = re.compile(rf"(min|max) {_NUM} dB at x={_NUM} m y={_NUM} m \(ix=(\d+), iy=(\d+)\)")


def post_measured(seed, indir, outdir, small=False):
    rng = np.random.default_rng(seed)
    n_freq, half = (2, 10) if small else (10, 100)
    step = 1e-4
    grid = {"x_min": -half * step, "x_max": half * step, "y_min": -half * step,
            "y_max": half * step, "dx": step, "dy": step,
            "z_height": round(rng.uniform(0.8, 1.5), 3) * 1e-3}
    coords = step * np.arange(-half, half + 1)
    freqs = np.sort(rng.choice(np.arange(200, 3001), size=n_freq, replace=False)) * 1e6
    s21_db = rng.uniform(-48.0, -42.0) + 20 * np.log10(freqs / 1e9) + rng.normal(0, 0.2, n_freq)
    s21 = 10 ** (s21_db / 20) * np.exp(1j * rng.uniform(-math.pi, math.pi, n_freq))
    s2p = os.path.join(indir, "measured.s2p")
    ref.write_touchstone_s21(s2p, freqs, s21)
    kernel = str(rng.choice(["paper", "image-theory"]))
    d_mm = grid["z_height"] * 1e3
    cf_path = os.path.join(outdir, "cf.csv")
    commands = [["calibrate", "--probe", s2p, "--d", repr(d_mm), "--h", repr(H_SUB_MM),
                 "--kernel", kernel, "--out", cf_path]]
    v_maps, views = [], []
    for i, f in enumerate(freqs):
        yc, width = rng.uniform(-2e-3, 2e-3), rng.uniform(1.5e-3, 3e-3)
        level = s21_db[i] + rng.uniform(-25.0, -15.0)
        v = (level - 10 * np.log10(1 + ((coords[:, None] - yc) / width) ** 2)
             - 0.3 * (coords[None, :] / step / half) ** 2 + rng.normal(0, 0.3, (coords.size,) * 2))
        v_path = os.path.join(indir, f"v_{i}.csv")
        ref.write_db_map(v_path, grid, f, "vport", v, {"normal": "hy"})
        v_maps.append(v)
        ix = int(rng.integers(0, coords.size))
        lo = round(float(np.median(v)) - 20.0, 1)
        views.append((ix, lo, lo + 60.0))
        h_path = os.path.join(outdir, f"h_{i}.csv")
        commands += [["extract", "--scan", v_path, "--cf", cf_path, "--freq", repr(float(f)),
                      "--out", h_path],
                     ["render", "--map", h_path, "--lo", repr(lo), "--hi", repr(lo + 60.0),
                      "--out", os.path.join(outdir, f"h_{i}.pgm")],
                     ["profile", "--map", h_path, "--axis", "y", "--at",
                      repr(float(coords[ix]) * 1e3), "--out", os.path.join(outdir, f"p_{i}.csv")],
                     ["stats", "--map", h_path]]

    def check(stdouts):
        errors = []
        cf_want = ref.cf_db(s21, d_mm * 1e-3, H_SUB_MM * 1e-3, kernel)
        try:
            _, rows = ref.read_header_csv(cf_path)
            if rows.shape != (n_freq, 2) or not _close(rows[:, 1], cf_want, 1e-9):
                errors.append((0, "cf.csv: CF differs from 20 log10 G - S21_dB - 34"))
        except (OSError, ValueError) as exc:
            errors.append((0, f"cf.csv: unreadable: {exc}"))
        for i, f in enumerate(freqs):
            c = 1 + 4 * i
            ix, lo, hi = views[i]
            try:
                header, h = ref.read_header_csv(os.path.join(outdir, f"h_{i}.csv"))
            except (OSError, ValueError) as exc:
                errors.append((c, f"h_{i}.csv: unreadable: {exc}"))
                continue
            if (h.shape != v_maps[i].shape or header.get("component") != "hy"
                    or float(header.get("f_hz", "nan")) != f
                    or not _close(h, cf_want[i] + v_maps[i], 1e-9)):
                errors.append((c, f"h_{i}.csv: H_dB != CF_dB + V_dB"))
                continue
            pix = np.floor(255 * np.clip((h - lo) / (hi - lo), 0, 1) + 0.5).astype(np.uint8)
            want_pgm = f"P5\n{h.shape[1]} {h.shape[0]}\n255\n".encode("ascii") + pix[::-1].tobytes()
            try:
                with open(os.path.join(outdir, f"h_{i}.pgm"), "rb") as fh:
                    if fh.read() != want_pgm:
                        errors.append((c + 1, f"h_{i}.pgm: pixels differ from the map"))
                _, prof = ref.read_header_csv(os.path.join(outdir, f"p_{i}.csv"))
                if not (np.array_equal(prof[:, 1], h[:, ix]) and _close(prof[:, 0], coords, 1e-15)):
                    errors.append((c + 2, f"p_{i}.csv: profile is not column {ix} of the map"))
            except (OSError, ValueError, IndexError) as exc:
                errors.append((c + 2, f"view {i}: unreadable: {exc}"))
            lines = {m[1]: m for m in _STATS.finditer(stdouts[c + 3])}
            for kind, pick in (("min", np.argmin), ("max", np.argmax)):
                k = int(pick(h))
                m = lines.get(kind)
                if m is None or float(m[2]) != h.flat[k] or (int(m[6]), int(m[5])) != divmod(k, h.shape[1]):
                    errors.append((c + 3, f"stats {i}: {kind} line wrong or missing"))
        return errors
    return Plan(commands, check, yardstick.text)


#: name -> builder; why each workload is here is recorded in BENCHMARK.json
WORKLOADS = {
    "raster-fine": raster_fine,
    "sweep-31": sweep_31,
    "post-measured": post_measured,
}
