import concurrent.futures
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
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import nfscan
from nfscan import (CFTable, FieldMap, NetworkData, ScanGrid, map_stats, parse_cf_csv,
                    parse_map_csv, parse_touchstone, write_cf_csv, write_map_csv,
                    write_touchstone)
from nfscan import ConfigError, ParseError, __version__, cli, fields, formats
from nfscan.cli import main
from nfscan import config
from nfscan.calibration import KERNELS, SIGN_MODES
from nfscan.config import MAX_CELLS, MAX_FREQ_GHZ, MAX_LENGTH_MM, MAX_PROBE_PAIRS, MAX_SEGMENTS

from map_parser_reference import parse_map_csv_per_row

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
TABLE2 = os.path.join(CONFIG_DIR, "table2.json")
TABLE3 = os.path.join(CONFIG_DIR, "table3.json")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


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
        # 3096 dBm is 4e306 W, finite, but 50 ohm x that power, the square of
        # the S21 divisor, is not
        ("drive", {"power_dbm": 3096}, "drive.power_dbm: 3096.0 dBm is out of range"),
        ("probe", {"side": 1e300},
         f"probe.side: 1e+300 mm is beyond the length bound of {MAX_LENGTH_MM} mm"),
        ("trace", {"vertices": [[0, 0], [1e308, 0]], "max_segment": None},
         f"trace.vertices[1]: 1e+308 mm is beyond the length bound of {MAX_LENGTH_MM} mm"),
        ("trace", {"vertices": [[0, 0], [1e308, 0]], "max_segment": 1.0},
         f"trace.max_segment: 1.0 mm makes too many segments, more than {MAX_SEGMENTS}"),
        ("trace", {"vertices": [[0, 0], [1e-200, 0]], "max_segment": None},
         "trace.vertices: segment 0 is 1e-203 m long, "
         "its square is outside the range of a double")],
        ids=["power-high", "power-low", "power-port", "side", "segment-long",
             "segment-long-subdivided", "segment-short"])
    def test_overflowing_number_names_key(self, tmp_path, capsys, section, patch, err):
        cfg = write_config(tmp_path, **{section: patch})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["dx", "dy"])
    def test_grid_extent_error_names_the_step_key(self, tmp_path, capsys, key):
        # table3's 20 mm x 25 mm grid is no whole number of 0.7 mm steps
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_patched(TABLE3, "grid", **{key: 0.7})))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (f"error: grid.{key}: extent is not an integer "
                                           "multiple of the step\n")
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

    def test_out_names_existing_file_exits_2(self, tmp_path, capsys, monkeypatch):
        # the output directory is made before the scan, which is never run
        def no_scan(*args):
            raise AssertionError("the scan ran before --out was checked")

        monkeypatch.setattr(cli, "scan_grid", no_scan)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--config", TABLE2, "--out", str(out)]) == 2
        assert f"cannot create output directory {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    @pytest.mark.parametrize("fail", ["map-0", "map-2", "scan"])
    def test_failed_run_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch, fail,
                                             existing):
        """A run that fails after k maps (exit 2) or in the scan (exit 3)
        publishes nothing and leaves no staging directory."""
        out = tmp_path / "parent" / "o"
        before = None
        if existing:
            before = simulate_files(TABLE2, out)
            (out / "keep.txt").write_text("kept\n")
            before["keep.txt"] = b"kept\n"
        cfg = TABLE2
        if fail == "scan":
            cfg = write_config(tmp_path, probe={"height": 1e-10})
        else:
            real, k, written = cli.write_map_stack, int(fail[-1]), []

            def failing(*args):
                for data in real(*args):
                    if len(written) == k:
                        raise ConfigError("writer failed")
                    written.append(data)
                    yield data

            monkeypatch.setattr(cli, "write_map_stack", failing)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == (
            3 if fail == "scan" else 2)
        if fail != "scan":
            assert len(written) == int(fail[-1])
            assert capsys.readouterr().err == "error: writer failed\n"
        if existing:
            assert {p: (out / p).read_bytes() for p in os.listdir(out)} == before
        else:
            assert not out.exists()
        assert [name for _, dirs, files in os.walk(tmp_path) for name in dirs + files
                if name.endswith(".tmp")] == []

    @pytest.mark.parametrize("kind, reason", [("file", "File exists"),
                                              ("under-file", "Not a directory"),
                                              ("empty", "No such file or directory")])
    def test_out_errors_keep_their_texts(self, tmp_path, capsys, monkeypatch, kind, reason):
        (tmp_path / "taken").write_text("")
        out = {"file": "taken", "under-file": "taken/o", "empty": ""}[kind]
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", TABLE2, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: cannot create output directory {out}: {reason}\n"
        assert os.listdir(tmp_path) == ["taken"]

    def test_out_through_a_missing_directory_and_back(self, tmp_path):
        # "missing/.." is made as os.makedirs makes it, then written into
        assert main(["simulate", "--config", TABLE2,
                     "--out", str(tmp_path / "missing" / "..")]) == 0
        assert sorted(os.listdir(tmp_path)) == ["hy_dba_m_000_2GHz.csv", "missing",
                                                "provenance.json", "s21_db_000_2GHz.csv",
                                                "v_dbv_000_2GHz.csv"]

    def test_existing_out_gets_the_files_of_a_fresh_one(self, tmp_path):
        fresh = simulate_files(TABLE3, tmp_path / "fresh")
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_bytes(b"kept")
        (out / "s21_db_000_2GHz.csv").write_bytes(b"stale")
        assert simulate_files(TABLE3, out) == {**fresh, "keep.txt": b"kept"}
        assert sorted(os.listdir(tmp_path)) == ["fresh", "o"]

    def test_staging_name_left_by_a_killed_run_is_passed_over(self, tmp_path):
        left = tmp_path / f".o.{os.getpid()}.0.tmp"
        left.mkdir()
        (left / "stale.csv").write_text("stale")
        files = simulate_files(TABLE2, tmp_path / "o")
        assert "stale.csv" not in files
        assert sorted(os.listdir(tmp_path)) == [left.name, "o"]

    def test_non_finite_db_map_exits_2(self, tmp_path, capsys, monkeypatch):
        real = cli.scan_grid

        def overflowing(trace, substrate, probe, grid, sweep, drive, out, store):
            cell = out[0, 0, 3 * grid.nx:][:1]  # the field map's cell [0, 3, 0]

            def injecting(dst, obs):
                if np.shares_memory(dst, cell):
                    obs = obs.copy()
                    obs[0, (cell.ctypes.data - dst.ctypes.data) // dst.itemsize] = complex(
                        math.inf, 0.0)
                store(dst, obs)

            real(trace, substrate, probe, grid, sweep, drive, out, injecting)

        monkeypatch.setattr(cli, "scan_grid", overflowing)
        out = tmp_path / "o"
        assert main(["simulate", "--config", TABLE2, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: dB map contains non-finite values\n"
        assert os.listdir(tmp_path) == []

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
        assert len(net.f) == 1
        assert abs(net.s21[0]) > 0

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

    @pytest.mark.parametrize("normal", ["vport", "s21", "x"])
    def test_extract_rejects_a_normal_that_is_no_field_component(self, pipeline, tmp_path,
                                                                 capsys, normal):
        # its output would be a second port-voltage map that extract accepts
        _, _, cf, sim = pipeline
        scan = tmp_path / "v.csv"
        scan.write_text((sim / "v_dbv_000_2GHz.csv").read_text()
                        .replace("# meta.normal: hy\n", f"# meta.normal: {normal}\n"))
        out = tmp_path / "hy.csv"
        assert main(["extract", "--scan", str(scan), "--cf", str(cf), "--freq", "2e9",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: scan map meta.normal is {normal!r}: must "
                                           "be one of 'hx', 'hy', 'hz', 'mag'\n")
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
        s2p, cf = tmp_path / "probe.s2p", tmp_path / "cf.csv"
        s2p.write_text("! ports: 2\n# GHz S RI R 75\n1 0 0 0.5 0 0.5 0 0 0\n")
        assert main(["calibrate", "--probe", str(s2p), "--d", "1.0", "--h", "1.6",
                     "--out", str(cf)]) == 2
        assert capsys.readouterr().err == ("error: line 2: reference impedance is R 75.0 ohm; "
                                           "the CF formula's 34 dB constant assumes R 50\n")
        assert not cf.exists()

    def test_calibrate_comment_only_file_exits_2(self, tmp_path, capsys):
        s2p, cf = tmp_path / "probe.s2p", tmp_path / "cf.csv"
        s2p.write_text("! ports: 2\n# GHz S RI R 50\n! no rows\n")
        assert main(["calibrate", "--probe", str(s2p), "--d", "1.0", "--h", "1.6",
                     "--out", str(cf)]) == 2
        assert capsys.readouterr().err == "error: no data rows\n"
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


def _disk_full_open(path, mode="r", **kwargs):
    """open(), but a file opened to write is a `_DiskFullHalfway`."""
    fh = open(path, mode, **kwargs)
    return _DiskFullHalfway(fh) if "w" in mode else fh


class TestProbeTransfer:
    def test_sweep_collapsed_at_9_digits_exits_2(self, tmp_path, capsys):
        # three points within 0.1 Hz all print as 1 GHz: no .s2p is written,
        # where one would make calibrate fail on its order
        cfg = write_config(tmp_path, sweep={"f_min": 1.0, "f_max": 1.0000000001, "n_points": 3})
        out = tmp_path / "probe.s2p"
        assert main(["probe-transfer", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: touchstone: frequencies 1000000000.0 and 1000000000.05 Hz are both "
            "written as 1 GHz (9 digits)\n")
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_sweep_apart_in_the_ninth_digit_calibrates(self, tmp_path):
        cfg = write_config(tmp_path, sweep={"f_min": 1.0, "f_max": 1.00000001, "n_points": 2})
        out = tmp_path / "probe.s2p"
        assert main(["probe-transfer", "--config", cfg, "--out", str(out)]) == 0
        assert [row.split()[0] for row in out.read_text().splitlines()[2:]] == ["1", "1.00000001"]
        assert main(["calibrate", "--probe", str(out), "--d", "1.0", "--h", "1.6",
                     "--out", str(tmp_path / "cf.csv")]) == 0

    @pytest.mark.parametrize("aperture", ["uniform", "integrated"])
    def test_library_call_gives_the_cli_bytes(self, tmp_path, aperture):
        # the library's probe_transfer, centred with center_over_trace at the
        # config's probe.height, writes the .s2p the command writes
        path = write_config(tmp_path, probe={"aperture": aperture})
        out = tmp_path / "probe.s2p"
        assert main(["probe-transfer", "--config", path, "--out", str(out)]) == 0
        cfg = config.load_config(path)
        with open(path, encoding="utf-8") as fh:
            height = json.load(fh)["probe"]["height"] * 1e-3
        center = nfscan.center_over_trace(cfg.trace, cfg.substrate, height)
        f, s21 = nfscan.probe_transfer(cfg.trace, cfg.substrate, cfg.probe, center, cfg.sweep,
                                       cfg.drive)
        net = NetworkData(f=f, s21=s21)
        assert write_touchstone(net).encode() == out.read_bytes()


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
        monkeypatch.setattr(cli, "open", _disk_full_open, raising=False)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: No space left on device\n"
        assert out.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["out"]
        monkeypatch.undo()
        assert main(argv) == 0
        assert out.read_bytes() != b"previous"
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    def test_failed_staged_write_keeps_out(self, tmp_path, monkeypatch, capsys, existing):
        """`simulate`'s first map fails to write: the error names the map's
        place in --out, which is left as it was, with no staging directory."""
        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "keep.txt").write_bytes(b"previous")
        argv = ["simulate", "--config", TABLE2, "--out", str(out)]
        monkeypatch.setattr(cli, "open", _disk_full_open, raising=False)
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: cannot write {out / 's21_db_000_2GHz.csv'}: "
                                           "No space left on device\n")
        assert os.listdir(tmp_path) == (["out"] if existing else [])
        if existing:
            assert os.listdir(out) == ["keep.txt"]
            assert (out / "keep.txt").read_bytes() == b"previous"
        monkeypatch.undo()
        assert main(argv) == 0
        assert "s21_db_000_2GHz.csv" in os.listdir(out)

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


@pytest.mark.parametrize("cmd, opt", [
    ("simulate", "--config"), ("simulate", "--out"), ("probe-transfer", "--config"),
    ("probe-transfer", "--out"), ("calibrate", "--probe"), ("calibrate", "--out"),
    ("extract", "--scan"), ("extract", "--cf"), ("extract", "--out"), ("profile", "--map"),
    ("profile", "--out"), ("stats", "--map"), ("render", "--map"), ("render", "--out")])
def test_nul_byte_in_path_names_path(pipeline, tmp_path, capsys, cmd, opt):
    # open() and os.makedirs() raise ValueError, not OSError, on a NUL byte
    _, s2p, cf, sim = pipeline
    hy, out = str(sim / "hy_dba_m_000_2GHz.csv"), str(tmp_path / "out")
    argv = {"simulate": ["--config", TABLE2, "--out", out],
            "probe-transfer": ["--config", TABLE2, "--out", out],
            "calibrate": ["--probe", str(s2p), "--d", "1.0", "--h", "1.6", "--out", out],
            "extract": ["--scan", str(sim / "v_dbv_000_2GHz.csv"), "--cf", str(cf),
                        "--freq", "2e9", "--out", out],
            "profile": ["--map", hy, "--axis", "y", "--at", "0.0", "--out", out],
            "stats": ["--map", hy],
            "render": ["--map", hy, "--lo", "-60", "--hi", "-10", "--out", out]}[cmd]
    path = str(tmp_path / "a\0b")
    argv[argv.index(opt) + 1] = path
    assert main([cmd] + argv) == 2
    action = ("cannot read" if opt != "--out" else "cannot create output directory"
              if cmd == "simulate" else "cannot write")
    assert capsys.readouterr().err == f"error: {action} {path!r}: embedded null byte\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/mem")
@pytest.mark.parametrize("cmd, opt", [
    ("simulate", "--config"), ("probe-transfer", "--config"), ("calibrate", "--probe"),
    ("extract", "--scan"), ("extract", "--cf"), ("profile", "--map"), ("stats", "--map"),
    ("render", "--map")])
def test_read_error_after_open_names_path(pipeline, tmp_path, capsys, cmd, opt):
    # Linux opens /proc/self/mem, then fails a read at offset 0 with EIO
    _, s2p, cf, sim = pipeline
    hy, out = str(sim / "hy_dba_m_000_2GHz.csv"), str(tmp_path / "out")
    argv = {"simulate": ["--config", TABLE2, "--out", out],
            "probe-transfer": ["--config", TABLE2, "--out", out],
            "calibrate": ["--probe", str(s2p), "--d", "1.0", "--h", "1.6", "--out", out],
            "extract": ["--scan", str(sim / "v_dbv_000_2GHz.csv"), "--cf", str(cf),
                        "--freq", "2e9", "--out", out],
            "profile": ["--map", hy, "--axis", "y", "--at", "0.0", "--out", out],
            "stats": ["--map", hy],
            "render": ["--map", hy, "--lo", "-60", "--hi", "-10", "--out", out]}[cmd]
    argv[argv.index(opt) + 1] = "/proc/self/mem"
    assert main([cmd] + argv) == 2
    assert capsys.readouterr().err == "error: cannot read /proc/self/mem: Input/output error\n"
    assert os.listdir(tmp_path) == []


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

    def test_extract_below_a_wide_table_exits_2(self, tmp_path, capsys):
        # --freq 0 within 1e-6 Hz of the map's f_hz, below a 1 Hz - 10 GHz table
        cf = tmp_path / "cf.csv"
        cf.write_text("# nfscan-cf 1\n# kernel: paper\n# d: 0.001\n# h: 0.0016\n"
                      "1.0,10.0\n1e10,12.0\n")
        scan = tmp_path / "v.csv"
        header = TestMapRowsCheckedBeforeAllocation.HEADER.format(x_max=0, y_max=0, dx=0.001)
        header = header.replace("# f_hz: 1e9\n", "# f_hz: 1e-7\n").replace("hy", "vport")
        scan.write_text(header + "-40\n")
        out = tmp_path / "h.csv"
        assert main(["extract", "--scan", str(scan), "--cf", str(cf), "--freq", "0",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: frequency 0.0 Hz outside calibration table "
                                           "span [1.0, 10000000000.0] Hz\n")
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

    @pytest.mark.parametrize("value", [50.0, 75.0])
    def test_port_z_is_an_unknown_key(self, tmp_path, capsys, value):
        # The probe port is 50 ohm, as the CF formula assumes; no bundled
        # config carried the key.
        cfg = write_config(tmp_path, probe={"port_z": value})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: probe.port_z: unknown key\n"
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


class TestLineEnds:
    """The CLI reads a file's bytes as UTF-8 with no newline translation,
    so a command parses the text a library caller would."""

    HEADER = ("# nfscan-map 1\n# x_min: 0\n# x_max: 0.001\n# y_min: 0\n# y_max: 0.001\n"
              "# dx: 0.001\n# dy: 0.001\n# z_height: 0.001\n# f_hz: 1e9\n"
              "# component: hy\n# value_kind: db\n")

    @pytest.mark.parametrize("text", [
        # a bare CR pads a cell; read as a line end it made 3 rows of 2
        HEADER + "-1.5,2.0\n3.0\r,-4.0\n",
        (HEADER + "-1.5,2.0\n3.0,-4.0\n").replace("\n", "\r\n")], ids=["bare-cr", "crlf"])
    def test_stats_prints_library_stats(self, tmp_path, capsys, text):
        path = tmp_path / "map.csv"
        path.write_bytes(text.encode())
        assert main(["stats", "--map", str(path)]) == 0
        s = map_stats(parse_map_csv(text))
        assert capsys.readouterr().out == (
            f"min {s.min_db!r} dB at x={s.argmin[0]!r} m y={s.argmin[1]!r} m "
            f"(ix={s.argmin_idx[0]}, iy={s.argmin_idx[1]})\n"
            f"max {s.max_db!r} dB at x={s.argmax[0]!r} m y={s.argmax[1]!r} m "
            f"(ix={s.argmax_idx[0]}, iy={s.argmax_idx[1]})\n")
        assert (s.min_db, s.max_db) == (-4.0, 3.0)

    @pytest.mark.parametrize("name", ["scan.csv", "cf.csv", "probe.s2p"])
    def test_bare_cr_line_ends_exit_2_saying_so(self, tmp_path, name):
        # with no "\n" the parser sees one line; the error names the line ends
        files = _file_case()
        files[name] = files[name].replace("\n", "\r")
        path = {n: str(tmp_path / n) for n in files}
        for n, text in files.items():
            (tmp_path / n).write_bytes(text.encode())
        out = str(tmp_path / "out")
        argv = {"scan.csv": ["stats", "--map", path["scan.csv"]],
                "cf.csv": ["extract", "--scan", path["scan.csv"], "--cf", path["cf.csv"],
                           "--freq", "2e9", "--out", out],
                "probe.s2p": ["calibrate", "--probe", path["probe.s2p"], "--d", "1",
                              "--h", "1.6", "--out", out]}[name]
        assert _run_quietly(argv) == (2, "error: line 1: lines end in a bare carriage return "
                                         "('\\r'), not '\\n' or '\\r\\n'\n")
        assert not os.path.exists(out)


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


class TestSegmentCurrentBudget:
    """A config whose trace segments x sweep frequencies exceed MAX_CELLS
    exits 2 naming sweep.n_points, before the (segments, frequencies)
    currents are allocated; one at the bound runs within 1 GiB of address
    space.  Each command runs in a child process under RLIMIT_AS, which
    limits that child only."""

    LIMIT = 1 << 30

    @staticmethod
    def run_limited(argv):
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (TestSegmentCurrentBudget.LIMIT,) * 2)

        return subprocess.run([sys.executable, "-m", "nfscan.cli", *argv], preexec_fn=limit,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": SRC_DIR})

    @staticmethod
    def one_point(tmp_path, n_points, max_segment):
        # table2's line on one grid point, from 1 to 3 GHz
        return write_config(tmp_path, trace={"max_segment": max_segment},
                            grid={"y_min": 0.0, "y_max": 0.0},
                            sweep={"f_min": 1.0, "f_max": 3.0, "n_points": n_points})

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
    def test_at_the_bound_runs(self, tmp_path):
        cfg = self.one_point(tmp_path, MAX_CELLS // MAX_SEGMENTS, 0.1)
        out = tmp_path / "probe.s2p"
        done = self.run_limited(["probe-transfer", "--config", cfg, "--out", str(out)])
        assert (done.returncode, done.stderr) == (0, "")
        assert len(out.read_text().splitlines()) == 2 + MAX_CELLS // MAX_SEGMENTS

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
    @pytest.mark.parametrize("cmd", ["simulate", "probe-transfer"])
    @pytest.mark.parametrize("n_points, max_segment, n_segments", [
        (MAX_CELLS // MAX_SEGMENTS + 1, 0.1, MAX_SEGMENTS), (10**6, 1.0, 200)],
        ids=["past-the-bound", "table2"])
    def test_past_the_bound_exits_2(self, tmp_path, cmd, n_points, max_segment, n_segments):
        cfg = self.one_point(tmp_path, n_points, max_segment)
        out = tmp_path / "o"
        done = self.run_limited([cmd, "--config", cfg, "--out", str(out)])
        assert done.returncode == 2
        assert done.stderr == (f"error: sweep.n_points: {n_segments} trace segments x "
                               f"{n_points} frequencies = {n_segments * n_points} segment "
                               f"currents, more than {MAX_CELLS}\n")
        assert not out.exists()


class TestCalibrationKeys:
    """calibration.kernel and sign_mode reach only provenance.json, and are
    checked in order: both types, then both values, then d and h."""

    @pytest.mark.parametrize("patch, err", [
        ({"kernel": "exact"}, f"calibration.kernel: must be one of {KERNELS}"),
        ({"sign_mode": "eq2"}, f"calibration.sign_mode: must be one of {SIGN_MODES}"),
        ({"kernel": 1}, "calibration.kernel: expected a string"),
        ({"sign_mode": None}, "calibration.sign_mode: expected a string"),
        ({"kernel": "exact", "sign_mode": 1}, "calibration.sign_mode: expected a string"),
        ({"kernel": "exact", "sign_mode": "eq2"}, f"calibration.kernel: must be one of {KERNELS}"),
        ({"kernel": "exact", "d": 0.0}, f"calibration.kernel: must be one of {KERNELS}"),
        ({"sign_mode": "eq2", "h": -1.0},
         f"calibration.sign_mode: must be one of {SIGN_MODES}")],
        ids=["kernel", "sign_mode", "kernel-type", "sign_mode-type", "types-first",
             "kernel-first", "kernel-before-d", "sign_mode-before-h"])
    def test_error_names_key(self, tmp_path, capsys, patch, err):
        cfg = write_config(tmp_path, calibration=patch)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    def test_values_reach_provenance(self, tmp_path):
        cfg = write_config(tmp_path, calibration={"kernel": KERNELS[1],
                                                  "sign_mode": SIGN_MODES[1]})
        prov = json.loads(simulate_files(cfg, tmp_path / "o")["provenance.json"])
        assert (prov["kernel"], prov["sign_mode"]) == (KERNELS[1], SIGN_MODES[1])


class TestRepeated:
    """A key, or a trace vertex, given twice exits 2 naming it; JSON alone
    would keep the last value of a key."""

    @pytest.mark.parametrize("old, new, err", [
        ('"eps_r": 4.6', '"eps_r": 4.6, "eps_r": 1.0', "substrate.eps_r"),
        ('"drive": {', '"drive": {"power_dbm": 0.0}, "drive": {', "drive")],
        ids=["key", "section"])
    def test_config_key_given_twice_names_it(self, tmp_path, capsys, old, new, err):
        with open(TABLE2, encoding="utf-8") as fh:
            text = fh.read()
        assert text.count(old) == 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text.replace(old, new))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {err}: key given twice\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", [TABLE2, TABLE3], ids=["table2", "table3"])
    def test_bundled_configs_load_as_json_reads_them(self, name):
        with open(name, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text, object_pairs_hook=config._object)
        assert json.dumps(doc) == json.dumps(json.loads(text))  # keys in order too

    @pytest.mark.parametrize("max_seg", [None, 0.5])
    def test_vertex_given_twice_names_it_as_the_config_does(self, tmp_path, capsys, max_seg):
        cfg = write_config(tmp_path, trace={"vertices": [[-10, 0], [0, 0], [0, 0], [10, 0]],
                                            "max_segment": max_seg})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: trace.vertices[2]: same point as trace.vertices[1]\n")
        assert not (tmp_path / "o").exists()


class TestProbePairBudget:
    """One integrated probe is one kernel call: its (1 + quad_n^2) points
    x 2 x segments pairs must not exceed MAX_PROBE_PAIRS."""

    PATCH = {"trace": {"max_segment": 0.1}}  # table2 at 2,000 segments

    def test_quad_n_32_exits_2(self, tmp_path, capsys, monkeypatch):
        def no_scan(*args):
            raise AssertionError("scan run")
        monkeypatch.setattr(cli, "scan_grid", no_scan)
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


def test_public_api_is_pinned():
    """A name added to or removed from nfscan's public API shows up here."""
    assert set(nfscan.__all__) == {
        "CFTable", "ConfigError", "DriveSpec", "FieldMap", "FrequencySweep", "LoopProbe",
        "MapStats", "NetworkData", "ParseError", "ScanGrid", "ScanResult", "SingularityError",
        "Substrate", "TracePath", "apply_calibration_to_scan", "calibrate", "calibration",
        "center_over_trace", "cf_from_s21", "config", "current_distribution",
        "eps_eff_hammerstad", "errors", "extract_profile", "field_from_voltage", "fields",
        "formats", "geometry_term_db", "map_stats", "model",
        "parse_cf_csv", "parse_map_csv", "parse_touchstone", "probe_transfer", "render_pgm",
        "run_simulated_scan", "scan", "write_cf_csv", "write_map_csv",
        "write_touchstone"}


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
    pytest.param(_patched(TABLE2, "drive", power_dbm=3096), "drive.power_dbm", id="power_dbm"),
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
    net = NetworkData(f=np.array([1e9, 2e9, 3e9]), s21=[0.01j, 0.02j, 0.03j])
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


#: Each command's path options: (option, "in" for an input file and the
#: name of the valid one, or "out"); `simulate --out` is a directory.
_PATH_OPTIONS = {
    "simulate": [("--config", "cfg.json"), ("--out", "out")],
    "probe-transfer": [("--config", "cfg.json"), ("--out", "out")],
    "calibrate": [("--probe", "probe.s2p"), ("--out", "out")],
    "extract": [("--scan", "scan.csv"), ("--cf", "cf.csv"), ("--out", "out")],
    "profile": [("--map", "scan.csv"), ("--out", "out")],
    "stats": [("--map", "scan.csv")],
    "render": [("--map", "scan.csv"), ("--out", "out")]}
_OTHER_ARGS = {"simulate": [], "probe-transfer": [], "calibrate": ["--d", "1.0", "--h", "1.6"],
               "extract": ["--freq", "2e9"], "profile": ["--axis", "x", "--at", "0"],
               "stats": [], "render": ["--lo", "-60", "--hi", "0"]}
#: What a path may name: the valid input or a fresh output ("ok"), an
#: existing file (the valid input, or a file the output replaces), a
#: directory, a file in a missing directory, or a path under a file.
_PATH_KINDS = ("ok", "file", "dir", "missing-parent", "under-file")


def _path_fails(cmd, opt, kind):
    """True if `cmd` must exit 2 naming a path of this kind given to `opt`."""
    if kind == "ok" or (opt != "--out" and kind == "file"):
        return False
    if opt == "--out" and cmd == "simulate":  # os.makedirs makes missing parents
        return kind in ("file", "under-file")
    if opt == "--out":  # a file replaces a file, not a directory
        return kind != "file"
    return True


@st.composite
def mutated_paths(draw):
    cmd = draw(st.sampled_from(sorted(_PATH_OPTIONS)))
    kinds = {opt: draw(st.sampled_from(_PATH_KINDS)) for opt, _ in _PATH_OPTIONS[cmd]}
    return cmd, kinds


class TestMutatedPaths:
    @settings(max_examples=150, deadline=None)
    @given(mutated_paths())
    @example(("simulate", {"--config": "ok", "--out": "file"}))
    @example(("simulate", {"--config": "dir", "--out": "missing-parent"}))
    @example(("probe-transfer", {"--config": "ok", "--out": "dir"}))
    @example(("calibrate", {"--probe": "under-file", "--out": "ok"}))
    @example(("extract", {"--scan": "ok", "--cf": "missing-parent", "--out": "file"}))
    @example(("stats", {"--map": "dir"}))
    @example(("render", {"--map": "ok", "--out": "under-file"}))
    def test_commands_exit_0_or_2_naming_the_path(self, case):
        """Every command with its input and output paths set to an existing
        file, a directory, a file in a missing directory or a path under a
        file exits 0, or exits 2 with one `error: ` line naming a path it
        cannot use, and leaves no temporary file."""
        cmd, kinds = case
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in {**_file_case(), "cfg.json": json.dumps(_DOCS[TABLE2])}.items():
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
            taken = os.path.join(tmp, "taken")
            with open(taken, "w", encoding="utf-8") as fh:
                fh.write("previous\n")
            os.mkdir(os.path.join(tmp, "dir"))
            argv, bad = [cmd] + _OTHER_ARGS[cmd], []
            for opt, name in _PATH_OPTIONS[cmd]:
                path = {"dir": os.path.join(tmp, "dir"),
                        "missing-parent": os.path.join(tmp, "missing", name),
                        "under-file": os.path.join(taken, name)}.get(kinds[opt],
                                                                      os.path.join(tmp, name))
                if kinds[opt] == "file" and opt == "--out":
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write("previous\n")
                argv += [opt, path]
                if _path_fails(cmd, opt, kinds[opt]):
                    bad.append(path)
            with contextlib.redirect_stdout(io.StringIO()):
                code, err = _run_quietly(argv)
            if bad:
                assert code == 2, (argv, err)
                assert err.startswith("error: cannot ") and err.count("\n") == 1, err
                assert any(f" {path}: " in err for path in bad), (bad, err)
            else:
                assert (code, err) == (0, ""), argv
            left = [name for _, _, names in os.walk(tmp) for name in names
                    if name.endswith(".tmp")]
            assert left == []


class TestBlockAndChunkSizes:
    """`simulate`'s bytes do not depend on how many probes a kernel block
    holds (`fields.PAIRS`) or how many rows a CSV chunk holds
    (`formats._CHUNK_ROWS`): its dB stage and writer see every edge."""

    @staticmethod
    def bent_integrated(tmp_path):
        """A bent, shorted trace over a log sweep, under an integrated probe."""
        with open(TABLE3, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["trace"].update(vertices=[[-10, 0], [0, 0], [0, 5], [5, 10], [12, 10]],
                            termination="short")
        doc["grid"].update(x_min=-12.0, x_max=14.0, y_min=-4.0, y_max=14.0)
        doc["sweep"].update(f_min=0.5, f_max=3.0, n_points=4, spacing="log")
        doc["probe"].update(normal="x", aperture="integrated", quad_n=4)
        path = tmp_path / "bent.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("which", ["table3", "bent-integrated"])
    def test_bytes_match_the_default_run(self, tmp_path, monkeypatch, which):
        cfg = TABLE3 if which == "table3" else self.bent_integrated(tmp_path)
        c = config.load_config(cfg)
        m = 1 + c.probe.quad_n ** 2 if c.probe.aperture == "integrated" else 1
        probe_pairs = 2 * c.trace.n_segments * m
        want = simulate_files(cfg, tmp_path / "default")
        # one probe, 7 probes (chunks of a row) and 3 rows per block; 1 and 3
        # rows per chunk
        for i, (module, name, n) in enumerate([
                (fields, "PAIRS", 1), (fields, "PAIRS", 7 * probe_pairs),
                (fields, "PAIRS", 3 * c.grid.nx * probe_pairs),
                (formats, "_CHUNK_ROWS", 1), (formats, "_CHUNK_ROWS", 3)]):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, n)
                assert simulate_files(cfg, tmp_path / str(i)) == want, (name, n)

    def test_singular_point_mid_scan_publishes_nothing(self, tmp_path, monkeypatch, capsys):
        # one probe per block: rows below the trace are made into dB before
        # the singular row is met
        cfg = write_config(tmp_path, probe={"height": 1e-10})
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: singular field at grid point (ix=0, iy=10), ")
        monkeypatch.setattr(fields, "PAIRS", 1)
        assert main(argv) == 3
        assert capsys.readouterr().err == err
        assert os.listdir(tmp_path) == ["cfg.json"]


class TestStreamingMemory:
    """`simulate` holds its dB stacks and one kernel block, not the complex
    scan; a map file is written a chunk of rows at a time."""

    def test_simulate_peak_below_its_db_stacks_and_a_block(self, tmp_path):
        # three dB stacks of 8 B a cell, a kernel block of about 21 B a pair
        # and 1 MiB besides; table3 at 0.1 mm x 5 frequencies (252,255 cells)
        # peaks at 9.1 MiB here (tracemalloc), 16.5 MiB with the complex scan held
        with open(TABLE3, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["grid"].update(dx=0.1, dy=0.1)
        doc["sweep"].update(n_points=5)
        cfg = tmp_path / "fine.json"
        cfg.write_text(json.dumps(doc))
        cells = 201 * 251 * 5
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * cells + 25 * fields.PAIRS + 2 ** 20

    def test_one_segment_peak_below_its_db_stacks_and_a_slice(self, tmp_path):
        # a 1-segment trace puts PAIRS // 2 probes in a kernel block; the
        # chain's two buffers, 32 B x frequencies a probe, hold a slice of at
        # most PAIRS // (2 x frequencies) probes, 16 B x PAIRS; 201 x 51 points
        # x 40 frequencies peak at 11.8 MiB here (tracemalloc), 22.1 MiB with
        # the buffers a whole block in size
        with open(TABLE3, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["trace"]["max_segment"]
        doc["grid"].update(dx=0.1, dy=0.1, y_min=-2.5, y_max=2.5)
        doc["sweep"].update(f_min=0.1, f_max=3.0, n_points=40)
        cfg = tmp_path / "line.json"
        cfg.write_text(json.dumps(doc))
        cells = 201 * 51 * 40
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(os.listdir(tmp_path / "o")) == 3 * 40 + 1
        assert peak < 3 * 8 * cells + 25 * fields.PAIRS + 2 ** 20 + 16 * fields.PAIRS, peak

    def test_map_write_peak_below_a_quarter_of_the_file(self, tmp_path):
        # 0.20x here (tracemalloc); 2.0x with the whole text made first
        vals = np.random.default_rng(7).uniform(-350.0, 0.0, (1, 1001, 1001))
        vals[0, 500, 500] = -5e-05  # one row written with `repr`
        grid = ScanGrid(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, dx=1e-3, dy=1e-3,
                        z_height=1e-3)
        out = tmp_path / "map.csv"
        tracemalloc.start()
        try:
            (chunks,) = formats.write_map_stack(grid, [1e9], "hy", vals, {})
            cli._write_chunks(str(out), chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == write_map_csv(FieldMap(grid=grid, f=1e9, component="hy",
                                                          values=vals[0])).encode()
        assert peak < 0.25 * out.stat().st_size


class TestDeterminism:
    def test_repeat_and_thread_count_byte_identical(self, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            assert main(["simulate", "--config", TABLE2, "--out", str(out),
                         "--threads", threads]) == 0
            outs.append({p: (out / p).read_bytes() for p in os.listdir(out)})
        assert outs[0] == outs[1] == outs[2]


class TestMapFileRead:
    """The CLI parses a map from the file's bytes, with the library's
    results and errors, and the read errors of `config.read`."""

    @pytest.mark.parametrize("data, err", [
        (_MAP.encode().replace(b"normal: hy", b"normal: h\xffy"),
         "not UTF-8 text (byte 0xff: invalid start byte)"),
        (_MAP.encode() + b"\xc3", "not UTF-8 text (byte 0xc3: unexpected end of data)")],
        ids=["header", "body"])
    def test_non_utf8_byte_names_path(self, tmp_path, capsys, data, err):
        path = tmp_path / "map.csv"
        path.write_bytes(data)
        assert main(["stats", "--map", str(path)]) == 2
        assert capsys.readouterr().err == f"error: cannot read {path}: {err}\n"

    @pytest.mark.parametrize("text", [_MAP, _MAP.replace("\n", "\r\n"),
                                      _MAP.replace("0\n", "-0\n"), "\ufeff" + _MAP,
                                      _MAP.replace("db\n", "db\n\n")])
    def test_stats_and_error_as_the_library(self, tmp_path, capsys, text):
        path = tmp_path / "map.csv"
        path.write_bytes(text.encode())
        try:
            s = map_stats(parse_map_csv(text))
            want = (0, f"min {s.min_db!r} dB at x={s.argmin[0]!r} m y={s.argmin[1]!r} m "
                       f"(ix={s.argmin_idx[0]}, iy={s.argmin_idx[1]})\n"
                       f"max {s.max_db!r} dB at x={s.argmax[0]!r} m y={s.argmax[1]!r} m "
                       f"(ix={s.argmax_idx[0]}, iy={s.argmax_idx[1]})\n", "")
        except ParseError as exc:
            want = (2, "", f"error: {exc}\n")
        code = main(["stats", "--map", str(path)])
        assert (code, *capsys.readouterr()) == want

    def test_fifo_is_read_in_blocks(self, tmp_path, capsys, monkeypatch):
        # a pipe cannot seek, and the reader never needs to: small blocks
        # put the block edges inside the header and the body
        monkeypatch.setattr(nfscan.formats, "_BLOCK_BYTES", 64)
        fifo = tmp_path / "map.fifo"
        os.mkfifo(fifo)
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            written = pool.submit(fifo.write_text, _MAP)
            assert main(["stats", "--map", str(fifo)]) == 0
            written.result(timeout=10)
        s = map_stats(parse_map_csv(_MAP))
        assert capsys.readouterr().out.startswith(f"min {s.min_db!r} dB ")
