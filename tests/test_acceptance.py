"""Acceptance gate: one test per release criterion, each at its stated
tolerance.  Run with `pytest tests/test_acceptance.py -v` for the
per-criterion pass/fail lines.
"""

import json
import math
import os
import random

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nfscan import (DriveSpec, FieldMap, FrequencySweep, LoopProbe, NetworkData,
                    PortWaveModel, ScanGrid, Substrate, TracePath,
                    apply_calibration_to_scan, calibrate, closed_form_line_h,
                    extract_profile, field_from_voltage, geometry_term_db,
                    h_trace_grounded, map_stats, parse_map_csv, parse_touchstone,
                    probe_over_trace, probe_transfer, render_pgm, run_simulated_scan,
                    write_map_csv, write_touchstone)
from nfscan.cli import main
from nfscan.config import load_config
from nfscan.errors import ConfigError, ParseError

from test_formats import _mutate, synth_map, synth_network

H_SUB = 1.6e-3
D_SCAN = 1e-3
I_RMS = math.sqrt(1e-4 / 50.0)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
TABLE2 = os.path.join(CONFIG_DIR, "table2.json")
TABLE3 = os.path.join(CONFIG_DIR, "table3.json")


def standard_setup():
    substrate = Substrate()
    trace = TracePath(vertices=((-0.1, 0.0, H_SUB), (0.1, 0.0, H_SUB)))
    probe = probe_over_trace(LoopProbe(center=(0, 0, H_SUB + D_SCAN), normal=(0, 1, 0)),
                             trace, substrate, D_SCAN)
    return substrate, trace, PortWaveModel(probe=probe), DriveSpec()


def table2_scan(f_hz):
    substrate, trace, model, drive = standard_setup()
    grid = ScanGrid(x_min=0, x_max=0, y_min=-5e-3, y_max=5e-3, dx=0.5e-3, dy=0.5e-3,
                    z_height=D_SCAN)
    sweep = FrequencySweep(f_min=f_hz, f_max=f_hz, n_points=1)
    return run_simulated_scan(trace, substrate, model, grid, sweep, drive), grid


def test_c1_field_oracle_matches_closed_form():
    """Numeric segment+image sum vs I*h/(pi*y*(y+2h)) within 1 %."""
    trace = TracePath(vertices=((-0.1, 0.0, H_SUB), (0.1, 0.0, H_SUB)))
    for y in (0.5e-3, 1e-3, 2e-3):
        hy = abs(h_trace_grounded(trace, [1.0], (0.0, 0.0, H_SUB + y))[1])
        oracle = 1.0 * H_SUB / (math.pi * y * (y + 2 * H_SUB))
        assert abs(hy / oracle - 1.0) < 0.01, f"y={y}: {hy} vs {oracle}"
    print("criterion 1 (field oracle vs closed form, 1%): PASS")


def test_c2_geometry_term_arithmetic():
    """Printed kernel 34.85 +/- 0.01 dB, image kernel 41.67 +/- 0.01 dB,
    kernel difference independent of frequency."""
    g_paper = geometry_term_db(1e-3, H_SUB, "paper")
    g_image = geometry_term_db(1e-3, H_SUB, "image-theory")
    assert abs(g_paper - 34.85) <= 0.01
    assert abs(g_image - 41.67) <= 0.01
    # the difference enters CF as a constant at every frequency
    f = np.geomspace(0.1e9, 3e9, 7)
    s = np.zeros((7, 2, 2), complex)
    s[:, 1, 0] = 10 ** (np.linspace(-40, -20, 7) / 20)
    net = NetworkData(f=f, s=s, n_ports=2)
    diff = (calibrate(net, 1e-3, H_SUB, "paper").cf_db
            - calibrate(net, 1e-3, H_SUB, "image-theory").cf_db)
    assert np.ptp(diff) < 1e-12
    assert_allclose(diff[0], g_paper - g_image, rtol=1e-12)
    print("criterion 2 (geometry-term arithmetic, +/-0.01 dB): PASS")


def test_c3_high_pass_probe_law():
    """|S21| slope +20 +/- 1 dB/decade over 0.1-0.5 GHz; CF slope -20 +/- 2."""
    substrate, trace, model, drive = standard_setup()
    sweep = FrequencySweep(f_min=0.1e9, f_max=0.5e9, n_points=9, spacing="log")
    f, s21 = probe_transfer(model, trace, substrate, sweep, drive)
    db = 20 * np.log10(np.abs(s21))
    decades = math.log10(f[-1] / f[0])
    slope = (db[-1] - db[0]) / decades
    assert abs(slope - 20.0) <= 1.0, f"S21 slope {slope}"
    s = np.zeros((len(f), 2, 2), complex)
    s[:, 1, 0] = s21
    table = calibrate(NetworkData(f=f, s=s, n_ports=2), D_SCAN, H_SUB, "paper")
    cf_slope = (table.cf_db[-1] - table.cf_db[0]) / decades
    assert abs(cf_slope + 20.0) <= 2.0, f"CF slope {cf_slope}"
    print("criterion 3 (high-pass probe law, +20/-20 dB per decade): PASS")


def test_c4_calibration_closure_on_scan_line():
    """Simulated V -> CF(image kernel) -> H matches ground-truth Hy within
    0.5 dB at all 21 points of the scan line at 0.5 GHz."""
    f_hz = 0.5e9
    substrate, trace, model, drive = standard_setup()
    sweep = FrequencySweep(f_min=f_hz, f_max=f_hz, n_points=1)
    f, s21 = probe_transfer(model, trace, substrate, sweep, drive)
    s = np.zeros((1, 2, 2), complex)
    s[:, 1, 0] = s21
    table = calibrate(NetworkData(f=f, s=s, n_ports=2), D_SCAN, H_SUB, "image-theory")

    result, grid = table2_scan(f_hz)
    v_db = 20 * np.log10(np.abs(result.vport[0]))
    vmap = FieldMap(grid=grid, f=f_hz, component="vport", values=v_db,
                    meta={"normal": "hy"})
    extracted = apply_calibration_to_scan(vmap, table, f_hz, "eq1-consistent")
    truth_db = 20 * np.log10(np.abs(result.hfield[0]))
    worst = float(np.max(np.abs(extracted.values - truth_db)))
    assert worst < 0.5, f"worst deviation {worst} dB"
    print(f"criterion 4 (calibration closure <= 0.5 dB, worst {worst:.3f} dB): PASS")


def test_c5_paper_range_consistency():
    """Simulated peak Hy on the scan line (2 GHz, -10 dBm, 1 mm) within the
    reported [-20, 0] dBA/m window and within 3 dB of the analytic level."""
    result, _ = table2_scan(2e9)
    peak = float(np.max(20 * np.log10(np.abs(result.hfield[0]))))
    analytic = 20 * math.log10(closed_form_line_h(D_SCAN, H_SUB, I_RMS))
    assert -20.0 <= peak <= 0.0, f"peak {peak} dBA/m"
    assert abs(peak - analytic) <= 3.0, f"peak {peak} vs analytic {analytic}"
    print(f"criterion 5 (peak {peak:.2f} dBA/m in [-20, 0], analytic "
          f"{analytic:.2f}): PASS")


def test_c6_profile_symmetry():
    """|Hy(y) - Hy(-y)| < 0.1 dB across the 21-point transverse profile."""
    result, grid = table2_scan(2e9)
    db = 20 * np.log10(np.abs(result.hfield[0]))
    fmap = FieldMap(grid=grid, f=2e9, component="hy", values=db)
    _, prof = extract_profile(fmap, axis="y", at=0.0)
    asym = float(np.max(np.abs(prof - prof[::-1])))
    assert asym < 0.1, f"asymmetry {asym} dB"
    print(f"criterion 6 (profile symmetry, asymmetry {asym:.2e} dB): PASS")


def test_c7_grid_shape_and_argmax():
    """Full-surface config yields exactly 41 x 51 points and the map maximum
    sits on the conductor centerline."""
    cfg = load_config(TABLE3)
    assert (cfg.grid.nx, cfg.grid.ny) == (41, 51)
    result = run_simulated_scan(cfg.trace, cfg.substrate, cfg.port, cfg.grid,
                                cfg.sweep, cfg.drive)
    assert result.hfield[0].shape == (51, 41)
    db = 20 * np.log10(np.abs(result.hfield[0]))
    stats = map_stats(FieldMap(grid=cfg.grid, f=float(result.freqs[0]), component="hy",
                               values=db))
    assert stats.argmax[1] == 0.0, f"argmax off centerline: {stats.argmax}"
    print("criterion 7 (41x51 grid, argmax on conductor centerline): PASS")


def test_c8_parser_round_trips_and_fuzz():
    """Write/parse round trips idempotent and stable to 1e-8; 1000 mutated
    inputs all produce controlled errors."""
    net = synth_network(n=60, seed=101)
    for fmt in ("RI", "MA", "DB"):
        once = write_touchstone(net, fmt=fmt)
        back = parse_touchstone(once)
        assert np.allclose(back.s, net.s, rtol=1e-8, atol=1e-8)
        assert write_touchstone(back, fmt=fmt) == once
    fmap = synth_map(nx=11, ny=9, seed=102)
    once = write_map_csv(fmap)
    back = parse_map_csv(once)
    assert np.array_equal(back.values, fmap.values)
    assert write_map_csv(back) == once

    r = random.Random(61967)
    rejected = 0
    for i in range(1000):
        if i % 2 == 0:
            text, parser = _mutate(write_touchstone(net), r), parse_touchstone
        else:
            text, parser = _mutate(once, r), parse_map_csv
        try:
            parser(text)
        except (ParseError, ConfigError):
            rejected += 1
    assert rejected > 500
    print(f"criterion 8 (round trips + {rejected}/1000 fuzz rejections, "
          "0 crashes): PASS")


def test_c9_byte_identical_outputs(tmp_path):
    """simulate on the full-surface config twice, and with 1 vs 4 threads,
    writes byte-identical CSVs and PGMs."""
    blobs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        assert main(["simulate", "--config", TABLE3, "--out", str(out),
                     "--threads", threads]) == 0
        assert main(["render", "--map", str(out / "hy_dba_m_000_2GHz.csv"),
                     "--lo", "-53", "--hi", "-21",
                     "--out", str(out / "hy.pgm")]) == 0
        blobs.append({p: (out / p).read_bytes() for p in sorted(os.listdir(out))})
    assert blobs[0] == blobs[1] == blobs[2]
    # the rendered view of the reported display range uses the full pixel span
    pgm = blobs[0]["hy.pgm"]
    body = pgm.split(b"255\n", 1)[1]
    assert max(body) == 255
    print("criterion 9 (byte-identical outputs across runs and threads): PASS")
