import json
import math
import os

import numpy as np
import pytest

from nfscan import parse_cf_csv, parse_map_csv, parse_touchstone
from nfscan.cli import main
from nfscan.config import MAX_CELLS

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

    def test_table3_bundle(self, tmp_path):
        out = tmp_path / "t3"
        assert main(["simulate", "--config", TABLE3, "--out", str(out)]) == 0
        hy2 = parse_map_csv((out / "hy_dba_m_000_2GHz.csv").read_text())
        hy3 = parse_map_csv((out / "hy_dba_m_001_3GHz.csv").read_text())
        assert hy2.values.shape == (51, 41)
        assert hy3.values.shape == (51, 41)

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

    def test_calibrate_non_monotone_exits_2(self, pipeline, tmp_path, capsys):
        base = tmp_path
        bad = base / "bad.s2p"
        bad.write_text("# GHz S RI R 50\n2 0 0 0.5 0 0 0 0 0\n1 0 0 0.5 0 0 0 0 0\n")
        assert main(["calibrate", "--probe", str(bad), "--d", "1.0", "--h", "1.6",
                     "--out", str(base / "cf.csv")]) == 2

    def test_calibrate_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["calibrate", "--probe", str(tmp_path / "nope.s2p"), "--d", "1.0",
                     "--h", "1.6", "--out", str(tmp_path / "cf.csv")]) == 2


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


class TestDeterminism:
    def test_repeat_and_thread_count_byte_identical(self, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / name
            assert main(["simulate", "--config", TABLE2, "--out", str(out),
                         "--threads", threads]) == 0
            outs.append({p: (out / p).read_bytes() for p in os.listdir(out)})
        assert outs[0] == outs[1] == outs[2]
