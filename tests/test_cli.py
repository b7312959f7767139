import contextlib
import copy
import errno
import glob
import io
import json
import math
import os
import shlex
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nfscan import (CFTable, FieldMap, NetworkData, ScanGrid, parse_cf_csv, parse_map_csv,
                    parse_touchstone, write_cf_csv, write_map_csv, write_touchstone)
from nfscan import ConfigError, ParseError, __version__, cli
from nfscan.cli import main
from nfscan import config
from nfscan.config import MAX_CELLS, MAX_FREQ_GHZ, MAX_LENGTH_MM, MAX_PROBE_PAIRS, MAX_SEGMENTS

from map_parser_reference import parse_map_csv_per_row

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
TABLE2 = os.path.join(CONFIG_DIR, "table2.json")
TABLE3 = os.path.join(CONFIG_DIR, "table3.json")


def write_config(tmp_path, name="cfg.json", **overrides):
    with open(TABLE2, encoding="utf-8") as fh:
        doc = json.load(fh)
    for section, patch in overrides.items():
        if patch is None:
            doc.pop(section, None)
        else:
            doc.setdefault(section, {}).update(patch)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


#: Keys a config may carry that describe the bench but do not enter the
#: model: (section, key, another valid value, an out-of-range value).
UNMODELLED = [
    ("substrate", "tan_d", 0.0, -0.016),
    ("substrate", "t", 0.07, -0.035),
    ("substrate", "sigma", 1.0, 0.0),
    ("drive", "source_z", 75.0, 0.0),
    ("calibration", "d", 2.0, 0.0),
    ("calibration", "h", 0.8, -1.6),
]


def simulate_files(cfg, out):
    """{file name: bytes} of a `simulate` run on `cfg` into `out`."""
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return {p: (out / p).read_bytes() for p in os.listdir(out)}


class TestHelpAndUsage:
    @pytest.mark.parametrize("cmd", ["simulate", "probe-transfer", "calibrate",
                                     "extract", "profile", "stats", "render"])
    def test_subcommand_help_exits_0(self, cmd, capsys):
        assert main([cmd, "--help"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["stats", "--bogus"]) == 2

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2


class TestParserBuiltOnce:
    def test_calls_share_one_parser_and_match_a_fresh_one(self, pipeline, capsys,
                                                           monkeypatch):
        _, _, _, sim = pipeline
        argvs = [["stats", "--bogus"],
                 ["stats", "--map", str(sim / "hy_dba_m_000_2GHz.csv")],
                 ["--version"]]

        def run_all():
            results = []
            for argv in argvs:
                rc = main(argv)
                results.append((rc, *capsys.readouterr()))
            return results

        assert cli._parser() is cli._parser()
        shared = run_all()
        again = run_all()
        monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)  # a new parser per call
        fresh = run_all()
        assert [r[0] for r in shared] == [2, 0, 0]
        assert shared == again == fresh
        assert shared[2][1] == f"nfscan {__version__}\n"


class TestSimulate:
    def test_table2_bundle(self, tmp_path, capsys):
        out = tmp_path / "t2"
        assert main(["simulate", "--config", TABLE2, "--out", str(out)]) == 0
        files = sorted(os.listdir(out))
        assert files == ["hy_dba_m_000_2GHz.csv", "provenance.json",
                         "s21_db_000_2GHz.csv", "v_dbv_000_2GHz.csv"]
        hy = parse_map_csv((out / "hy_dba_m_000_2GHz.csv").read_text())
        assert hy.values.shape == (21, 1)
        assert -20.0 <= hy.values.max() <= 0.0
        prov = json.loads((out / "provenance.json").read_text())
        assert set(prov) == {"config_sha256", "kernel", "sign_mode", "tool"}
        assert capsys.readouterr() == ("", "")  # no cell at the dB floor, no warning

    def test_map_components_and_meta(self, pipeline):
        _, _, _, sim = pipeline
        headers = {}
        for name in ("s21_db_000_2GHz.csv", "v_dbv_000_2GHz.csv", "hy_dba_m_000_2GHz.csv"):
            fmap = parse_map_csv((sim / name).read_text())
            headers[name] = (fmap.component, fmap.meta, fmap.f)
        assert headers == {"s21_db_000_2GHz.csv": ("s21", {}, 2e9),
                           "v_dbv_000_2GHz.csv": ("vport", {"normal": "hy"}, 2e9),
                           "hy_dba_m_000_2GHz.csv": ("hy", {}, 2e9)}

    def test_table3_bundle(self, tmp_path):
        out = tmp_path / "t3"
        assert main(["simulate", "--config", TABLE3, "--out", str(out)]) == 0
        hy2 = parse_map_csv((out / "hy_dba_m_000_2GHz.csv").read_text())
        hy3 = parse_map_csv((out / "hy_dba_m_001_3GHz.csv").read_text())
        assert hy2.values.shape == (51, 41)
        assert hy3.values.shape == (51, 41)
        # Only the outputs: no temporary file of an atomic write is left.
        assert sorted(os.listdir(out)) == sorted(
            [f"{kind}_{tag}.csv" for kind in ("hy_dba_m", "s21_db", "v_dbv")
             for tag in ("000_2GHz", "001_3GHz")] + ["provenance.json"])

    def test_empty_sweep_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"n_points": 0})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "n_points" in capsys.readouterr().err

    def test_unknown_key_names_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, probe={"sides": 4.0})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "probe.sides" in capsys.readouterr().err

    def test_cells_at_the_db_floor_are_counted(self, tmp_path, capsys):
        # A -3000 dBm drive leaves every Hy and V cell below 1e-15: 42 of
        # the 3 maps x 21 cells.  The maps are written as before.
        files = simulate_files(write_config(tmp_path, drive={"power_dbm": -3000}),
                               tmp_path / "o")
        assert capsys.readouterr().err == (
            "warning: 42 of 63 map cells clipped to the -300 dB floor\n")
        hy = parse_map_csv(files["hy_dba_m_000_2GHz.csv"].decode())
        assert (hy.values == -300.0).all()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("section, patch, name", [
        ("grid", {"x_max": math.inf}, "grid.x_max"),
        ("grid", {"x_min": -10**400}, "grid.x_min"),
        ("probe", {"height": math.nan}, "probe.height"),
        ("sweep", {"f_max": -math.inf}, "sweep.f_max"),
        ("trace", {"vertices": [[0.0, math.nan], [10.0, 0.0]]}, "trace.vertices[0]"),
        ("trace", {"max_segment": math.inf}, "trace.max_segment")])
    def test_non_finite_number_names_key(self, tmp_path, capsys, section, patch, name):
        cfg = write_config(tmp_path, **{section: patch})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"error: {name}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("section, patch, err", [
        ("drive", {"power_dbm": 1e308}, "drive.power_dbm: 1e+308 dBm is out of range"),
        ("drive", {"power_dbm": -1e308}, "drive.power_dbm: -1e+308 dBm is out of range"),
        ("probe", {"side": 1e300},
         f"probe.side: 1e+300 mm is beyond the length bound of {MAX_LENGTH_MM} mm"),
        ("trace", {"vertices": [[0, 0], [1e308, 0]], "max_segment": None},
         f"trace.vertices[1]: 1e+308 mm is beyond the length bound of {MAX_LENGTH_MM} mm"),
        ("trace", {"vertices": [[0, 0], [1e308, 0]], "max_segment": 1.0},
         f"trace.max_segment: 1.0 mm makes too many segments, more than {MAX_SEGMENTS}"),
        ("trace", {"vertices": [[0, 0], [1e-200, 0]], "max_segment": None},
         "trace.vertices: segment 0 is 1e-203 m long, "
         "its square is outside the range of a double")],
        ids=["power-high", "power-low", "side", "segment-long", "segment-long-subdivided",
             "segment-short"])
    def test_overflowing_number_names_key(self, tmp_path, capsys, section, patch, err):
        cfg = write_config(tmp_path, **{section: patch})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cmd", ["simulate", "probe-transfer"])
    @pytest.mark.parametrize("patch, err", [
        ({"trace": {"vertices": [[2e157, 0], [2.1e157, 0]], "max_segment": None}},
         "trace.vertices[0]: 2e+157 mm"),
        ({"probe": {"height": 1e200}}, "probe.height: 1e+200 mm"),
        ({"probe": {"side": 1e150, "aperture": "integrated"}}, "probe.side: 1e+150 mm"),
        ({"grid": {"x_min": -1e200, "dx": 1e200, "x_max": 0}}, "grid.x_min: -1e+200 mm"),
        ({"substrate": {"h": 1e200}}, "substrate.h: 1e+200 mm")],
        ids=["far-trace", "height", "side", "grid", "substrate"])
    def test_length_beyond_bound_exits_2(self, tmp_path, capsys, cmd, patch, err):
        """Lengths the field kernel would square past the range of a double."""
        cfg = write_config(tmp_path, **patch)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([cmd, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {err} is beyond the length bound of "
                                           f"{MAX_LENGTH_MM} mm\n")
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["simulate", "probe-transfer"])
    @pytest.mark.parametrize("sweep, key", [
        ({"f_min": 1e299, "f_max": 1e299}, "f_min"),
        ({"f_min": 1e20, "f_max": 1e20}, "f_min"),
        ({"f_max": math.nextafter(MAX_FREQ_GHZ, math.inf)}, "f_max")],
        ids=["overflow", "finite", "just-outside"])
    def test_frequency_beyond_bound_exits_2(self, tmp_path, capsys, cmd, sweep, key):
        cfg = write_config(tmp_path, sweep=sweep)
        out = tmp_path / "o"
        assert _run_quietly([cmd, "--config", cfg, "--out", str(out)]) == (
            2, f"error: sweep.{key}: {sweep[key]!r} GHz is beyond the frequency bound of "
               f"{MAX_FREQ_GHZ} GHz\n")
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["simulate", "probe-transfer"])
    def test_frequency_at_bound_runs_clean(self, tmp_path, cmd):
        """The bound itself, with eps_r 1e300 and the integrated aperture:
        no warning, and every number written is finite."""
        cfg = write_config(tmp_path, sweep={"f_min": MAX_FREQ_GHZ, "f_max": MAX_FREQ_GHZ},
                           substrate={"eps_r": 1e300}, probe={"aperture": "integrated"})
        out = tmp_path / "o"
        assert _run_quietly([cmd, "--config", cfg, "--out", str(out)]) == (0, "")
        written = glob.glob(str(out / "*.csv")) if cmd == "simulate" else [str(out)]
        assert written and all(_numbers_finite(path) for path in written)

    def test_out_names_existing_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--config", TABLE2, "--out", str(out)]) == 2
        assert f"cannot create output directory {out}" in capsys.readouterr().err

    def test_singular_scan_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, probe={"height": 1e-10})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "grid point" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """probe-transfer -> calibrate -> simulate -> extract chain artifacts."""
    base = tmp_path_factory.mktemp("pipe")
    s2p = base / "probe.s2p"
    cfg = str(TABLE2)
    assert main(["probe-transfer", "--config", cfg, "--out", str(s2p)]) == 0
    cf = base / "cf.csv"
    assert main(["calibrate", "--probe", str(s2p), "--d", "1.0", "--h", "1.6",
                 "--kernel", "image-theory", "--out", str(cf)]) == 0
    sim = base / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    return base, s2p, cf, sim


class TestPipeline:
    def test_probe_transfer_output(self, pipeline):
        _, s2p, _, _ = pipeline
        net = parse_touchstone(s2p.read_text())
        assert net.n_ports == 2
        assert len(net.f) == 1
        assert abs(net.s[0, 1, 0]) > 0

    def test_calibrate_output(self, pipeline):
        _, _, cf, _ = pipeline
        table = parse_cf_csv(cf.read_text())
        assert table.kernel == "image-theory"

    def test_extract_reads_legacy_sign_mode_line(self, pipeline, tmp_path):
        _, _, cf, sim = pipeline
        lines = cf.read_text().splitlines(keepends=True)
        assert not any(line.startswith("# sign_mode:") for line in lines)
        legacy = tmp_path / "legacy_cf.csv"
        legacy.write_text("".join(lines[:2] + ["# sign_mode: eq3-printed\n"] + lines[2:]))
        outs = []
        for table in (cf, legacy):
            out = tmp_path / f"hy_{table.stem}.csv"
            assert main(["extract", "--scan", str(sim / "v_dbv_000_2GHz.csv"),
                         "--cf", str(table), "--freq", "2e9", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_extract_and_stats(self, pipeline, tmp_path, capsys):
        base, _, cf, sim = pipeline
        out = tmp_path / "hy.csv"
        assert main(["extract", "--scan", str(sim / "v_dbv_000_2GHz.csv"),
                     "--cf", str(cf), "--freq", "2e9", "--out", str(out)]) == 0
        extracted = parse_map_csv(out.read_text())
        truth = parse_map_csv((sim / "hy_dba_m_000_2GHz.csv").read_text())
        assert np.max(np.abs(extracted.values - truth.values)) < 0.5
        assert main(["stats", "--map", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("min ") and "max " in text

    @pytest.mark.parametrize("which, key, err", [
        ("scan", "f_hz", "header f_hz: not a finite number: 'nan'"),
        ("cf", "d", "header d: not a finite number: 'nan'"),
        ("scan", "x_min", "header x_min: not a finite number: 'nan'"),
        ("scan", "x_max", "header x_max: not a finite number: 'nan'"),
        ("scan", "dx", "header dx: not a finite number: 'nan'"),
        ("cf", "h", "header h: not a finite number: 'nan'")],
        ids=["map-f_hz", "cf-d", "map-x_min", "map-x_max", "map-dx", "cf-h"])
    def test_extract_rejects_nan_header_number(self, pipeline, tmp_path, capsys, which, key,
                                               err):
        _, _, cf, sim = pipeline
        files = {"scan": sim / "v_dbv_000_2GHz.csv", "cf": cf}
        bad = tmp_path / files[which].name
        bad.write_text("".join(f"# {key}: nan\n" if line.startswith(f"# {key}: ") else line
                               for line in files[which].read_text().splitlines(keepends=True)))
        files[which] = bad
        out = tmp_path / "hy.csv"
        assert main(["extract", "--scan", str(files["scan"]), "--cf", str(files["cf"]),
                     "--freq", "2e9", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, comp", [("s21_db_000_2GHz.csv", "s21"),
                                            ("hy_dba_m_000_2GHz.csv", "hy")])
    def test_extract_rejects_non_vport_map(self, pipeline, tmp_path, capsys, name, comp):
        _, _, cf, sim = pipeline
        out = tmp_path / "hy.csv"
        assert main(["extract", "--scan", str(sim / name), "--cf", str(cf),
                     "--freq", "2e9", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: scan map component is '{comp}': the CF "
                                           "table applies to a port-voltage map ('vport')\n")
        assert not out.exists()

    def test_extract_freq_outside_span_exits_2(self, pipeline, tmp_path, capsys):
        _, _, cf, sim = pipeline
        assert main(["extract", "--scan", str(sim / "v_dbv_000_2GHz.csv"),
                     "--cf", str(cf), "--freq", "9e9",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_profile_roundtrip_and_off_grid(self, pipeline, tmp_path, capsys):
        _, _, _, sim = pipeline
        out = tmp_path / "prof.csv"
        assert main(["profile", "--map", str(sim / "hy_dba_m_000_2GHz.csv"),
                     "--axis", "y", "--at", "0.0", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 21
        assert main(["profile", "--map", str(sim / "hy_dba_m_000_2GHz.csv"),
                     "--axis", "y", "--at", "0.3", "--out", str(out)]) == 2

    def test_render(self, pipeline, tmp_path):
        _, _, _, sim = pipeline
        out = tmp_path / "hy.pgm"
        assert main(["render", "--map", str(sim / "hy_dba_m_000_2GHz.csv"),
                     "--lo", "-60", "--hi", "-10", "--out", str(out)]) == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n1 21\n255\n")
        assert len(data) == len(b"P5\n1 21\n255\n") + 21

    def test_render_unwritable_out_exits_2(self, pipeline, tmp_path, capsys):
        _, _, _, sim = pipeline
        out = tmp_path / "missing" / "hy.pgm"
        assert main(["render", "--map", str(sim / "hy_dba_m_000_2GHz.csv"),
                     "--lo", "-60", "--hi", "-10", "--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["", "missing/probe.s2p"])
    def test_unwritable_text_out_exits_2(self, tmp_path, capsys, target):
        out = tmp_path / target  # the directory itself, or a file in a missing one
        assert main(["probe-transfer", "--config", TABLE2, "--out", str(out)]) == 2
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_render_bad_range_exits_2(self, pipeline, tmp_path, capsys):
        _, _, _, sim = pipeline
        assert main(["render", "--map", str(sim / "hy_dba_m_000_2GHz.csv"),
                     "--lo", "0", "--hi", "0", "--out", str(tmp_path / "x.pgm")]) == 2

    def test_render_overflowing_range_exits_2(self, pipeline, tmp_path, capsys):
        _, _, _, sim = pipeline
        out = tmp_path / "x.pgm"
        assert main(["render", "--map", str(sim / "hy_dba_m_000_2GHz.csv"),
                     "--lo=-1e308", "--hi", "1e308", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: render range: hi (1e+308) - lo (-1e+308) "
                                           "overflows a double\n")
        assert not out.exists()

    @pytest.mark.parametrize("d, h, kernel, g", [("1", "1e-320", "paper", "inf"),
                                                ("1e300", "1e-300", "image-theory", "0.0")])
    def test_calibrate_geometry_factor_out_of_range_exits_2(self, pipeline, tmp_path, capsys,
                                                            d, h, kernel, g):
        _, s2p, _, _ = pipeline
        out = tmp_path / "cf.csv"
        assert main(["calibrate", "--probe", str(s2p), "--d", d, "--h", h,
                     "--kernel", kernel, "--out", str(out)]) == 2
        d_m, h_m = float(d) * 1e-3, float(h) * 1e-3
        assert capsys.readouterr().err == (f"error: geometry term: factor for d={d_m!r} m, "
                                           f"h={h_m!r} m is {g}, outside the range of a double\n")
        assert not out.exists()

    def test_calibrate_non_monotone_exits_2(self, pipeline, tmp_path, capsys):
        base = tmp_path
        bad = base / "bad.s2p"
        bad.write_text("# GHz S RI R 50\n2 0 0 0.5 0 0 0 0 0\n1 0 0 0.5 0 0 0 0 0\n")
        assert main(["calibrate", "--probe", str(bad), "--d", "1.0", "--h", "1.6",
                     "--out", str(base / "cf.csv")]) == 2

    def test_calibrate_rejects_non_50_ohm_reference(self, tmp_path, capsys):
        cfg = write_config(tmp_path, probe={"port_z": 75.0})
        s2p, cf = tmp_path / "probe.s2p", tmp_path / "cf.csv"
        assert main(["probe-transfer", "--config", cfg, "--out", str(s2p)]) == 0
        assert main(["calibrate", "--probe", str(s2p), "--d", "1.0", "--h", "1.6",
                     "--out", str(cf)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: network reference impedance is R 75.0 ohm;")
        assert err.count("\n") == 1
        assert not cf.exists()

    def test_calibrate_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["calibrate", "--probe", str(tmp_path / "nope.s2p"), "--d", "1.0",
                     "--h", "1.6", "--out", str(tmp_path / "cf.csv")]) == 2


class _DiskFullHalfway:
    """A file whose write stores half of its data, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestAtomicWrites:
    @pytest.mark.parametrize("cmd", ["probe-transfer", "render"])
    def test_failed_write_keeps_previous_file(self, cmd, pipeline, tmp_path, monkeypatch,
                                              capsys):
        _, _, _, sim = pipeline
        out = tmp_path / "out"
        argv = {"probe-transfer": ["probe-transfer", "--config", TABLE2],
                "render": ["render", "--map", str(sim / "hy_dba_m_000_2GHz.csv"),
                           "--lo", "-60", "--hi", "-10"]}[cmd] + ["--out", str(out)]
        out.write_bytes(b"previous")

        def disk_full_open(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            return _DiskFullHalfway(fh) if "w" in mode else fh

        monkeypatch.setattr(cli, "open", disk_full_open, raising=False)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
        assert out.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["out"]
        monkeypatch.undo()
        assert main(argv) == 0
        assert out.read_bytes() != b"previous"
        assert os.listdir(tmp_path) == ["out"]

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["probe-transfer", "--config", TABLE2, "--out", str(out)]) == 2
        assert f"cannot write {out}: " in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["out"]
        assert os.listdir(out) == []


class TestFiniteOptions:
    """Float options reject NaN and infinities before any file is read or written."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("opt", ["--d", "--h", "--freq", "--at", "--lo", "--hi"])
    def test_non_finite_exits_2_naming_option(self, pipeline, tmp_path, capsys, opt, value):
        _, s2p, cf, sim = pipeline
        hy = str(sim / "hy_dba_m_000_2GHz.csv")
        out = tmp_path / "out"
        argv = {
            "--d": ["calibrate", "--probe", str(s2p), "--d", "1.0", "--h", "1.6"],
            "--h": ["calibrate", "--probe", str(s2p), "--d", "1.0", "--h", "1.6"],
            "--freq": ["extract", "--scan", str(sim / "v_dbv_000_2GHz.csv"), "--cf", str(cf),
                       "--freq", "2e9"],
            "--at": ["profile", "--map", hy, "--axis", "y", "--at", "0.0"],
            "--lo": ["render", "--map", hy, "--lo", "-60", "--hi", "-10"],
            "--hi": ["render", "--map", hy, "--lo", "-60", "--hi", "-10"]}[opt]
        i = argv.index(opt)
        argv[i:i + 2] = [f"{opt}={value}"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"argument {opt}: expected a finite number, got '{value}'" in err
        assert not out.exists()


@pytest.mark.parametrize("argv", [["stats", "--map"],
                                  ["calibrate", "--d", "1", "--h", "1.6", "--out", "cf.csv",
                                   "--probe"],
                                  ["simulate", "--out", "o", "--config"]],
                         ids=["stats", "calibrate", "simulate"])
def test_non_utf8_input_names_path(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "in.txt"
    path.write_bytes(b"\xff\xfe{}\n")
    assert main(argv + [str(path)]) == 2
    assert capsys.readouterr().err == (f"error: cannot read {path}: not UTF-8 text "
                                       "(byte 0xff: invalid start byte)\n")
    assert os.listdir(tmp_path) == ["in.txt"]


class TestComplexMapFile:
    """A map file whose header says `value_kind: complex` is not a map CSV."""

    @pytest.mark.parametrize("cmd", ["stats", "profile", "render", "extract"])
    def test_exits_2(self, pipeline, tmp_path, capsys, cmd):
        _, _, cf, sim = pipeline
        text = (sim / "v_dbv_000_2GHz.csv").read_text()
        path = tmp_path / "complex.csv"
        path.write_text(text.replace("# value_kind: db\n", "# value_kind: complex\n"))
        out = str(tmp_path / "out")
        argv = {"stats": ["stats", "--map", str(path)],
                "profile": ["profile", "--map", str(path), "--axis", "y", "--at", "0",
                            "--out", out],
                "render": ["render", "--map", str(path), "--lo", "-60", "--hi", "-10",
                           "--out", out],
                "extract": ["extract", "--scan", str(path), "--cf", str(cf), "--freq", "2e9",
                            "--out", out]}[cmd]
        assert main(argv) == 2
        assert capsys.readouterr().err == ("error: header value_kind: must be db, "
                                           "got 'complex'\n")
        assert not (tmp_path / "out").exists()


class TestNonPositiveCfFrequency:
    """A CF table with a row at f <= 0 exits 2: `cf_at` interpolates in log f."""

    @pytest.mark.parametrize("rows", ["0.0,10.0\n2.0,12.0\n", "-1.0,10.0\n1.0,12.0\n"],
                             ids=["zero", "negative"])
    def test_extract_exits_2(self, tmp_path, capsys, rows):
        cf = tmp_path / "cf.csv"
        cf.write_text("# nfscan-cf 1\n# kernel: paper\n# d: 0.001\n# h: 0.0016\n" + rows)
        scan = tmp_path / "v.csv"
        header = TestMapRowsCheckedBeforeAllocation.HEADER.format(x_max=0, y_max=0, dx=0.001)
        scan.write_text(header.replace("# f_hz: 1e9\n", "# f_hz: 0.5\n") + "-40\n")
        out = tmp_path / "h.csv"
        assert main(["extract", "--scan", str(scan), "--cf", str(cf), "--freq", "0.5",
                     "--out", str(out)]) == 2
        f0 = rows.split(",")[0]
        assert capsys.readouterr().err == f"error: CF table: frequency {f0} Hz is not > 0\n"
        assert not out.exists()


class TestUnmodelledKeys:
    """Accepted, range-checked and hashed keys that no computation reads."""

    @pytest.fixture(scope="class")
    def table2_files(self, tmp_path_factory):
        return simulate_files(TABLE2, tmp_path_factory.mktemp("t2"))

    @pytest.mark.parametrize("section, key, value, _bad", UNMODELLED)
    def test_value_changes_only_the_digest(self, table2_files, tmp_path, section, key,
                                           value, _bad):
        got = simulate_files(write_config(tmp_path, **{section: {key: value}}), tmp_path / "o")
        want = dict(table2_files)
        prov = json.loads(got.pop("provenance.json"))
        want_prov = json.loads(want.pop("provenance.json"))
        assert got == want
        assert prov.pop("config_sha256") != want_prov.pop("config_sha256")
        assert prov == want_prov

    def test_trace_width_changes_the_maps(self, table2_files, tmp_path):
        got = simulate_files(write_config(tmp_path, trace={"width": 1.5}), tmp_path / "o")
        maps = [name for name in table2_files if name.endswith(".csv")]
        assert len(maps) == 3
        assert all(got[name] != table2_files[name] for name in maps)

    @pytest.mark.parametrize("value", [0.0, -0.5])
    def test_trace_w_is_an_unknown_key(self, tmp_path, capsys, value):
        # Once accepted and ignored; no bundled config carries it.
        cfg = write_config(tmp_path, probe={"trace_w": value})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: probe.trace_w: unknown key\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, _good, bad", UNMODELLED)
    @pytest.mark.parametrize("which", ["range", "type", "finite"])
    def test_bad_value_names_key(self, tmp_path, capsys, section, key, _good, bad, which):
        bad = {"range": bad, "type": "1.0", "finite": math.inf}[which]
        cfg = write_config(tmp_path, **{section: {key: bad}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"error: {section}.{key}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestMapRowsCheckedBeforeAllocation:
    HEADER = ("# nfscan-map 1\n# x_min: 0\n# x_max: {x_max}\n# y_min: 0\n# y_max: {y_max}\n"
              "# dx: {dx}\n# dy: 0.001\n# z_height: 0.001\n# f_hz: 1e9\n"
              "# component: hy\n# value_kind: db\n")

    @pytest.mark.parametrize("grid, body, err", [
        # 10**13 + 1 cells in one row: 80 TB if allocated from the header.
        ((1, 0, 1e-13), "-10\n", "line 12: row 0: expected 10000000000001 columns, got 1"),
        ((0.002, 0.002, 0.001), "-1,-2,-3\n-4,-5,-6\n-7,-8\n",
         "line 14: row 2: expected 3 columns, got 2")])
    def test_short_row_exits_2(self, tmp_path, capsys, grid, body, err):
        path = tmp_path / "map.csv"
        x_max, y_max, dx = grid
        path.write_text(self.HEADER.format(x_max=x_max, y_max=y_max, dx=dx) + body)
        assert main(["stats", "--map", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"


class TestGridBudget:
    """A config whose grid points x frequencies exceed MAX_CELLS, or whose
    step is too small to count the grid lines, exits 2 before anything is
    allocated.  The counts are computed, never allocated."""

    NX = 10**14 + 1        # x from 0 to 100 mm at 1e-12 mm
    NY = 21                # table2: y from -5 to 5 mm at 0.5 mm

    @pytest.mark.parametrize("cmd, patch, err", [
        ("simulate", {"grid": {"x_max": 100, "dx": 1e-12}},
         f"grid: {NX} x {NY} points x 1 frequencies = {NX * NY} cells, more than {MAX_CELLS}"),
        ("probe-transfer", {"sweep": {"n_points": 10**14}},
         f"grid: 1 x {NY} points x {10**14} frequencies = {NY * 10**14} cells, "
         f"more than {MAX_CELLS}"),
        ("simulate", {"grid": {"x_max": 100, "dx": 1e-320}},
         "grid.dx: too small for the extent")], ids=["points", "frequencies", "step"])
    def test_exits_2_without_output(self, tmp_path, capsys, cmd, patch, err):
        cfg = write_config(tmp_path, **patch)
        out = tmp_path / "o"
        assert main([cmd, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    def test_map_header_step_too_small_exits_2(self, tmp_path, capsys):
        path = tmp_path / "map.csv"
        header = TestMapRowsCheckedBeforeAllocation.HEADER
        path.write_text(header.format(x_max=0.1, y_max=0, dx=1e-320) + "-10\n")
        assert main(["stats", "--map", str(path)]) == 2
        assert capsys.readouterr().err == "error: header dx: too small for the extent\n"


class TestMapHeaderGrid:
    """A map header's invalid grid names the header key, not a config key."""

    CASES = [("dy", "-0", "header dy: must be > 0"),
             ("dy", "5e-324", "header dy: too small for the extent"),
             ("x_max", "-1", "header x_max: must be >= x_min"),
             ("dx", "0.0007", "header dx: extent is not an integer multiple of the step")]

    @staticmethod
    def map_text(key, value):
        header = TestMapRowsCheckedBeforeAllocation.HEADER.format(x_max=0.003, y_max=0.002,
                                                                  dx=0.001)
        return ("".join(f"# {key}: {value}\n" if line.startswith(f"# {key}: ")
                        else line for line in header.splitlines(keepends=True))
                + "-1,-2,-3,-4\n" * 3)

    @pytest.mark.parametrize("key, value, err", CASES)
    def test_stats_exits_2_naming_header_key(self, tmp_path, capsys, key, value, err):
        path = tmp_path / "map.csv"
        path.write_text(self.map_text(key, value))
        assert main(["stats", "--map", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("key, value, err", CASES)
    def test_reference_parser_raises_same_text(self, key, value, err):
        for parse in (parse_map_csv, parse_map_csv_per_row):
            with pytest.raises(ParseError) as exc:
                parse(self.map_text(key, value))
            assert str(exc.value) == err


class TestSegmentBudget:
    """A trace of more than MAX_SEGMENTS segments exits 2 before any is built."""

    @pytest.mark.parametrize("max_seg, count", [
        (1e-9, "200000000000"), (1e-320, "too many"), (5e-324, "too many")])
    def test_exits_2_without_subdividing(self, tmp_path, capsys, monkeypatch, max_seg, count):
        def no_subdivide(*args):
            raise AssertionError("_subdivide called")
        monkeypatch.setattr(config, "_subdivide", no_subdivide)
        cfg = write_config(tmp_path, trace={"max_segment": max_seg})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: trace.max_segment: {max_seg!r} mm makes "
                                           f"{count} segments, more than {MAX_SEGMENTS}\n")
        assert not out.exists()

    def test_budget_is_table2_at_a_tenth_of_a_mm(self, tmp_path):
        cfg = config.load_config(write_config(tmp_path, trace={"max_segment": 0.1}))
        a, b = np.array([-0.1, 0.0, 1.6e-3]), np.array([0.1, 0.0, 1.6e-3])
        want = [tuple(a)] + [tuple(a + (b - a) * (k / MAX_SEGMENTS))
                             for k in range(1, MAX_SEGMENTS + 1)]
        assert len(cfg.trace.vertices) == MAX_SEGMENTS + 1
        assert cfg.trace.vertices == tuple(want)

    def test_count_beyond_a_short_number_is_not_printed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, trace={"vertices": [[0, 0], [1e150, 0]],
                                            "max_segment": 1.0})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: trace.max_segment: 1.0 mm makes too many segments, "
                       f"more than {MAX_SEGMENTS}\n")
        assert len(err) < 120

    def test_vertex_list_over_budget_exits_2(self, tmp_path, capsys):
        verts = [[0.01 * i, 0.0] for i in range(MAX_SEGMENTS + 2)]
        cfg = write_config(tmp_path, trace={"vertices": verts, "max_segment": None})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: trace.vertices: {MAX_SEGMENTS + 1} "
                                           f"segments, more than {MAX_SEGMENTS}\n")
        assert not out.exists()


class TestProbePairBudget:
    """One integrated probe is one kernel call: its (1 + quad_n^2) points
    x 2 x segments pairs must not exceed MAX_PROBE_PAIRS."""

    PATCH = {"trace": {"max_segment": 0.1}}  # table2 at 2,000 segments

    def test_quad_n_32_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scan run")
        monkeypatch.setattr(cli, "run_simulated_scan", no_scan)
        cfg = write_config(tmp_path, probe={"aperture": "integrated", "quad_n": 32},
                           **self.PATCH)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: probe.quad_n: 32 makes 4100000 point x segment pairs per probe, "
            f"more than {MAX_PROBE_PAIRS}\n")
        assert not out.exists()

    @pytest.mark.parametrize("probe", [{"aperture": "integrated", "quad_n": 16},
                                       {"aperture": "uniform", "quad_n": 32}])
    def test_within_budget_builds(self, tmp_path, probe):
        cfg = config.load_config(write_config(tmp_path, probe=probe, **self.PATCH))
        assert (cfg.probe.quad_n, cfg.trace.n_segments) == (probe["quad_n"], MAX_SEGMENTS)


def _readme_block(section, lang):
    """The first ```lang code block of README's `## section`."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return text.split(f"## {section}\n", 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _readme_commands():
    """The `nfscan ...` commands of README's "Command-line usage" block."""
    block = _readme_block("Command-line usage", "sh")
    return [shlex.split(cmd) for cmd in block.replace("\\\n", " ").splitlines()
            if cmd.startswith("nfscan ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert [argv[1] for argv in commands] == ["simulate", "probe-transfer", "calibrate",
                                              "extract", "profile", "stats", "render"]
    shutil.copytree(CONFIG_DIR, tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert capsys.readouterr().err == ""


def test_readme_library_imports_run():
    """README's "Library entry points" import block names only names
    nfscan exports."""
    block = _readme_block("Library entry points", "python")
    assert block.startswith("from nfscan import (")
    exec(block, {})


def _doc_paths(node, path=()):
    """Every key and list index path in a parsed JSON document, root first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _doc_paths(child, path + (key,))


_DOCS = {}
for _name in (TABLE2, TABLE3):
    with open(_name, encoding="utf-8") as _fh:
        _DOCS[_name] = json.load(_fh)
_DROP = object()
#: What a mutation puts at a path: nothing (the key or element is dropped),
#: or a value of the wrong type or at the edge of the range of a double.
_ODD_VALUES = [_DROP, None, True, False, "", "1.0", [], [1.0, 2.0], {}, 0, 0.0, -0.0,
               1e-300, -1e-300, 1e300, -1e300, 5e-324, 10**400, -10**400, math.nan, math.inf]


@st.composite
def mutated_docs(draw):
    doc = copy.deepcopy(_DOCS[draw(st.sampled_from(sorted(_DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _doc_paths(doc) if p]
        *parents, key = draw(st.sampled_from(paths))
        node = doc
        for k in parents:
            node = node[k]
        value = draw(st.sampled_from(_ODD_VALUES))
        if value is _DROP:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    return doc


_LONG_EDGE = copy.deepcopy(_DOCS[TABLE2])
_LONG_EDGE["trace"].update(vertices=[[0, 0], [1e308, 0]], max_segment=1.0)


def _patched(name, section, **patch):
    doc = copy.deepcopy(_DOCS[name])
    doc[section].update(patch)
    return doc


#: Configs with every value finite and in range whose probe chain would
#: overflow, and the key each one's error names.
_CHAIN_OVERFLOWS = [
    pytest.param(_patched(TABLE2, "trace", z0=1e-320), "trace.z0", id="z0"),
    pytest.param(_patched(TABLE2, "probe", port_z=1e-320), "probe.port_z", id="port_z"),
    pytest.param(_patched(TABLE2, "sweep", f_min=1e300, f_max=1e300), "sweep.f_min",
                 id="f_min"),
    pytest.param(_patched(TABLE3, "sweep", f_max=1e300), "sweep.f_max", id="f_max")]


def _run_quietly(argv):
    """(exit code, stderr) of `main(argv)`; a warning is raised as an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


def _numbers_finite(path):
    """True if every cell of the data lines (not '#' or '!') of a map CSV
    or Touchstone file is a finite number."""
    with open(path, encoding="utf-8") as fh:
        return all(math.isfinite(float(cell)) for line in fh if line[0] not in "#!"
                   for cell in line.replace(",", " ").split())


class TestMutatedConfigs:
    @settings(max_examples=400, deadline=None)
    @given(mutated_docs())
    @example(_LONG_EDGE)
    def test_build_config_returns_or_raises_config_error(self, doc):
        """A config with keys dropped or set to odd values either builds or
        raises ConfigError, with no other exception and no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                cfg = config.build_config(doc)
            except ConfigError:
                return
        assert isinstance(cfg, config.ScanConfig)

    @settings(max_examples=400, deadline=None)
    @given(mutated_docs())
    @example(_CHAIN_OVERFLOWS[0].values[0])
    @example(_CHAIN_OVERFLOWS[1].values[0])
    @example(_CHAIN_OVERFLOWS[2].values[0])
    @example(_CHAIN_OVERFLOWS[3].values[0])
    def test_commands_exit_cleanly_with_finite_outputs(self, doc):
        """`simulate` and `probe-transfer` on a mutated config that builds
        exit 0, 2 or 3 with no warning and no traceback, and every number
        they write is finite."""
        try:
            config.build_config(doc)
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "cfg.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            maps, s2p = os.path.join(tmp, "maps"), os.path.join(tmp, "probe.s2p")
            for cmd, out in (("simulate", maps), ("probe-transfer", s2p)):
                code, err = _run_quietly([cmd, "--config", cfg, "--out", out])
                assert code in (0, 2, 3), err
            written = glob.glob(os.path.join(maps, "*.csv")) + glob.glob(s2p)
            assert all(_numbers_finite(path) for path in written)

    @pytest.mark.parametrize("cmd", ["simulate", "probe-transfer"])
    @pytest.mark.parametrize("doc, key", _CHAIN_OVERFLOWS)
    def test_chain_overflow_names_key(self, tmp_path, cmd, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code, err = _run_quietly([cmd, "--config", str(cfg), "--out", str(out)])
        assert (code, err.count("\n")) == (2, 1)
        assert err.startswith(f"error: {key}: ")
        assert not out.exists()


def _input_files():
    """A valid vport map CSV, CF CSV and 2-port Touchstone text, small."""
    grid = ScanGrid(x_min=0.0, x_max=2e-3, y_min=-1e-3, y_max=1e-3, dx=1e-3, dy=1e-3,
                    z_height=1e-3)
    vmap = FieldMap(grid=grid, f=2e9, component="vport", meta={"normal": "hy"},
                    values=np.linspace(-80.0, -40.0, 9).reshape(3, 3))
    cf = CFTable(f=[1e9, 2e9, 3e9], cf_db=[36.0, 30.0, 26.5], kernel="paper", d=1e-3,
                 h=1.6e-3)
    s = np.zeros((3, 2, 2), dtype=complex)
    s[:, 1, 0] = [0.01j, 0.02j, 0.03j]
    net = NetworkData(f=np.array([1e9, 2e9, 3e9]), s=s, n_ports=2)
    return write_map_csv(vmap), write_cf_csv(cf), write_touchstone(net)


_MAP, _CF, _TS = _input_files()
#: What a mutation puts in a cell, header value or token.
_ODD_TOKENS = ["nan", "inf", "-0", "1e309", "5e-324", "", "x", "1_0", "\x0c1"]


def _set_field(line, value, k):
    """`line` with field `k` (mod their count) set to `value`: a '# key:
    value' header's value, else a comma-separated cell, else a token."""
    if line.startswith("#") and ":" in line:
        return f"{line.partition(':')[0]}: {value}"
    sep = "," if "," in line else " "
    fields = line.split(sep)
    fields[k % len(fields)] = value
    return sep.join(fields)


@st.composite
def mutated_text(draw, text):
    """`text` with 1-3 mutations: a field set to an odd token, a line
    dropped or duplicated, or a blank line inserted."""
    lines = text.split("\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("set", "drop", "duplicate", "blank")))
        if kind == "set":
            lines[i] = _set_field(lines[i], draw(st.sampled_from(_ODD_TOKENS)),
                                  draw(st.integers(0, 8)))
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, "")
    return "\n".join(lines) + "\n"


def _file_case(map_text=_MAP, cf_text=_CF, ts_text=_TS):
    return {"scan.csv": map_text, "cf.csv": cf_text, "probe.s2p": ts_text}


#: Inputs that once ended wrongly: a DB magnitude beyond a double, an
#: option line after a data row, an s21 map into extract, a non-finite
#: Touchstone cell and a non-finite map header number.
_FILE_FAULTS = [
    _file_case(ts_text="# GHz S DB R 50\n1 0 0 7000 0 0 0 0 0\n"),
    _file_case(ts_text="1 0 0 0.5 90 0.5 90 0 0\n# GHz S RI R 50\n2 0 0 0.5 90 0.5 90 0 0\n"),
    _file_case(map_text=_MAP.replace("# component: vport", "# component: s21")),
    _file_case(ts_text="# GHz S RI R 50\n1 nan 0 0 0 0 0 0 0\n"),
    _file_case(map_text=_MAP.replace("# x_min: 0.0", "# x_min: nan")),
]


class TestMutatedFiles:
    @settings(max_examples=200, deadline=None)
    @given(st.builds(_file_case, mutated_text(_MAP), mutated_text(_CF), mutated_text(_TS)))
    @example(_FILE_FAULTS[0])
    @example(_FILE_FAULTS[1])
    @example(_FILE_FAULTS[2])
    @example(_FILE_FAULTS[3])
    @example(_FILE_FAULTS[4])
    def test_commands_exit_cleanly_with_finite_outputs(self, files):
        """`calibrate`, `extract`, `profile`, `stats` and `render` on
        mutated input files exit 0, 2 or 3 with no warning and no
        traceback; an error is one `error: ` line, and every number a
        successful run writes is finite."""
        with tempfile.TemporaryDirectory() as tmp:
            path = {name: os.path.join(tmp, name) for name in files}
            for name, text in files.items():
                with open(path[name], "w", encoding="utf-8") as fh:
                    fh.write(text)
            out = {name: os.path.join(tmp, name) for name in ("cf_out.csv", "hy.csv", "p.csv")}
            runs = [(["calibrate", "--probe", path["probe.s2p"], "--d", "1.0", "--h", "1.6",
                      "--out", out["cf_out.csv"]], out["cf_out.csv"]),
                    (["extract", "--scan", path["scan.csv"], "--cf", path["cf.csv"],
                      "--freq", "2e9", "--out", out["hy.csv"]], out["hy.csv"]),
                    (["profile", "--map", path["scan.csv"], "--axis", "x", "--at", "0",
                      "--out", out["p.csv"]], out["p.csv"]),
                    (["stats", "--map", path["scan.csv"]], None),
                    (["render", "--map", path["scan.csv"], "--lo", "-60", "--hi", "0",
                      "--out", os.path.join(tmp, "r.pgm")], None)]
            for argv, written in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    code, err = _run_quietly(argv)
                assert code in (0, 2, 3), (argv, err)
                if code:
                    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
                elif written:
                    assert _numbers_finite(written), argv


    def test_non_finite_touchstone_cell_names_line(self, tmp_path):
        s2p = tmp_path / "probe.s2p"
        s2p.write_text(_FILE_FAULTS[3]["probe.s2p"])
        out = tmp_path / "cf.csv"
        assert _run_quietly(["calibrate", "--probe", str(s2p), "--d", "1", "--h", "1.6",
                             "--out", str(out)]) == (
            2, "error: line 2: non-finite frequency or S-parameter in data row: "
               "'1 nan 0 0 0 0 0 0 0'\n")
        assert not out.exists()


class TestDeterminism:
    def test_repeat_and_thread_count_byte_identical(self, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            assert main(["simulate", "--config", TABLE2, "--out", str(out),
                         "--threads", threads]) == 0
            outs.append({p: (out / p).read_bytes() for p in os.listdir(out)})
        assert outs[0] == outs[1] == outs[2]
