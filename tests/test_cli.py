import errno
import json
import math
import os

import numpy as np
import pytest

from nfscan import parse_cf_csv, parse_map_csv, parse_touchstone
from nfscan import __version__, cli
from nfscan.cli import main
from nfscan import config
from nfscan.config import MAX_CELLS, MAX_SEGMENTS

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
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
    ("probe", "trace_w", 0.0, -0.5),
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
        ("probe", {"side": 1e300}, "probe.side: too large, its loop area overflows")],
        ids=["power-high", "power-low", "side"])
    def test_overflowing_number_names_key(self, tmp_path, capsys, section, patch, err):
        cfg = write_config(tmp_path, **{section: patch})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not (tmp_path / "o").exists()

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
        assert capsys.readouterr().err == "error: grid.dx: too small for the extent\n"


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

    def test_vertex_list_over_budget_exits_2(self, tmp_path, capsys):
        verts = [[0.01 * i, 0.0] for i in range(MAX_SEGMENTS + 2)]
        cfg = write_config(tmp_path, trace={"vertices": verts, "max_segment": None})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: trace.vertices: {MAX_SEGMENTS + 1} "
                                           f"segments, more than {MAX_SEGMENTS}\n")
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
