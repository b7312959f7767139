import cmath
import io
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from map_parser_reference import parse_map_csv_per_row
from map_writer_reference import (write_cf_csv_per_row, write_map_csv_per_cell,
                                  write_profile_csv_per_row)

from nfscan import (CFTable, ConfigError, FieldMap, NetworkData, ParseError, ScanGrid, cli,
                    formats, model, parse_cf_csv, parse_map_csv, parse_touchstone, render_pgm,
                    write_cf_csv, write_map_csv, write_touchstone)
from nfscan.calibration import KERNELS


def synth_network(n=301, seed=1):
    r = np.random.default_rng(seed)
    f = np.linspace(0.05e9, 3e9, n)
    s21 = r.uniform(-1, 1, n) + 1j * r.uniform(-1, 1, n)
    return NetworkData(f=f, s21=s21)


def synth_map(nx=41, ny=51, seed=2, component="hy"):
    r = np.random.default_rng(seed)
    grid = ScanGrid(x_min=-10e-3, x_max=-10e-3 + (nx - 1) * 0.5e-3,
                    y_min=-12.5e-3, y_max=-12.5e-3 + (ny - 1) * 0.5e-3,
                    dx=0.5e-3, dy=0.5e-3, z_height=1e-3)
    vals = r.uniform(-60, 0, (ny, nx))
    return FieldMap(grid=grid, f=2e9, component=component, values=vals,
                    meta={"kernel": "image-theory", "sign_mode": "eq1-consistent"})


class TestTouchstoneParse:
    def test_ri_row(self):
        net = parse_touchstone("# GHz S RI R 50\n1.0 0.1 0.2 0.5 0 0.3 0.4 0 0\n")
        assert net.f[0] == 1e9
        assert net.s21[0] == 0.5 + 0j

    def test_db_row(self):
        net = parse_touchstone("# MHz S DB R 50\n100 -40 0 -40 0 0 0 0 0\n")
        assert_allclose(abs(net.s21[0]), 0.01, rtol=1e-12)
        assert_allclose(net.f[0], 1e8)

    def test_ma_row_angle_degrees(self):
        net = parse_touchstone("# Hz S MA R 50\n1e9 0 0 1 90 0 0 0 0\n")
        assert_allclose(net.s21[0], 1j, atol=1e-12)

    @pytest.mark.parametrize("unit, scale", [("Hz", 1.0), ("kHz", 1e3), ("MHz", 1e6),
                                             ("GHz", 1e9)])
    def test_frequency_units(self, unit, scale):
        net = parse_touchstone(f"# {unit} S MA R 50\n2.5 0 0 0.5 180 0 0 0 0\n")
        assert net.f[0] == 2.5 * scale
        assert_allclose(net.s21[0], -0.5, atol=1e-12)

    @pytest.mark.parametrize("row", ["1 0 0 nan 0 0 0 0 0", "1 0 0 0.5 0 0 0 0 -inf",
                                     "inf 0 0 0.5 0 0 0 0 0"])
    def test_non_finite_values_rejected(self, row):
        with pytest.raises(ParseError) as info:
            parse_touchstone(f"# GHz S RI R 50\n{row}\n")
        assert str(info.value) == ("line 2: non-finite frequency or S-parameter in data row: "
                                   f"{row!r}")

    @pytest.mark.parametrize("option, row", [
        ("DB", "1 nan 0 0 0 0 0 0 0"), ("MA", "1 0 0 inf 0 0 0 0 0"),
        ("MA", "1 0 0 0.5 inf 0 0 0 0"), ("MA", "1e300 0 0 0.5 0 0 0 0 0")],
        ids=["db-nan", "ma-inf-magnitude", "ma-inf-angle", "frequency-overflows"])
    def test_non_finite_decoded_value_names_line(self, option, row):
        with pytest.raises(ParseError, match=r"^line 3: non-finite frequency or S-parameter"):
            parse_touchstone(f"# GHz S {option} R 50\n1e-3 0 0 0 0 0 0 0 0\n{row}\n")

    def test_db_minus_inf_reads_as_zero(self):
        net = parse_touchstone("# GHz S DB R 50\n1 -20 0 -inf 0 -20 0 -20 0\n")
        assert net.s21[0] == 0

    @pytest.mark.parametrize("option", ["# GHz S RI R 50", "# GHz S RI R 50.0",
                                        "# ghz s ri r 5e1", "# GHz S RI", "#", "# R 050"])
    def test_any_spelling_of_50_ohm_accepted(self, option):
        net = parse_touchstone(f"{option}\n1 0 0 0.5 0 0.5 0 0 0\n")
        assert write_touchstone(net).splitlines()[1] == "# GHz S RI R 50"

    @staticmethod
    def assert_r_rejected(z):
        # the CF formula's -34 dB constant holds for a 50 ohm port only; the
        # error names the option line, wherever it is
        for before in ("", "! a comment\n\n"):
            lineno = before.count("\n") + 1
            with pytest.raises(ParseError) as exc:
                parse_touchstone(f"{before}# GHz S RI R {z}\n1 0 0 0.5 0 0.5 0 0 0\n")
            assert str(exc.value) == (f"line {lineno}: reference impedance is R {float(z)!r} "
                                      "ohm; the CF formula's 34 dB constant assumes R 50")

    @pytest.mark.parametrize("z", ["75", "49.9", "-50"])
    def test_reference_impedance_other_than_50_rejected(self, z):
        self.assert_r_rejected(z)

    @pytest.mark.parametrize("z", ["nan", "inf", "-inf", "0"])
    def test_reference_impedance_must_be_finite_and_positive(self, z):
        self.assert_r_rejected(z)

    def test_one_port(self):
        # a 1-port file has no S21
        with pytest.raises(ParseError, match="^line 2: expected 9 columns, got 3$"):
            parse_touchstone("# GHz S RI R 50\n1 0.2 -0.1\n2 0.3 0.0\n")

    def test_option_line_defaults(self):
        net = parse_touchstone("#\n1 0 0 1 0 0 0 0 0\n")
        assert net.f[0] == 1e9   # GHz default

    def test_comments_stripped(self):
        net = parse_touchstone("! header comment\n# GHz S RI R 50\n1 0 0 0.5 0 0 0 0 0 ! trailing\n")
        assert net.s21[0] == 0.5

    def test_wrong_column_count_names_line(self):
        text = "# GHz S RI R 50\n1 0 0 0.5 0 0 0 0 0\n2 1 2 3 4 5 6 7\n"
        with pytest.raises(ParseError, match="^line 3: expected 9 columns, got 8$"):
            parse_touchstone(text)

    def test_eight_columns_rejected_up_front(self):
        with pytest.raises(ParseError, match="^line 2: expected 9 columns, got 8$"):
            parse_touchstone("# GHz S RI R 50\n1 2 3 4 5 6 7 8\n")

    @pytest.mark.parametrize("ncols", [3, 5, 8, 10])
    def test_column_count_other_than_9_names_line(self, ncols):
        # a 1-port row (3 columns) is rejected as any other count
        row = " ".join(["1"] + ["0"] * (ncols - 1))
        with pytest.raises(ParseError, match=f"^line 3: expected 9 columns, got {ncols}$"):
            parse_touchstone(f"# GHz S RI R 50\n! first row\n{row}\n")

    def test_unknown_unit_token(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_touchstone("# THz S RI R 50\n1 0 0 0 0 0 0 0 0\n")

    def test_unsupported_parameter(self):
        with pytest.raises(ParseError, match="unsupported parameter"):
            parse_touchstone("# GHz Y RI R 50\n1 0 0 0 0 0 0 0 0\n")

    def test_non_monotone_frequency(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_touchstone("# GHz S RI R 50\n2 0 0 0 0 0 0 0 0\n1 0 0 0 0 0 0 0 0\n")

    def test_non_numeric_token(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_touchstone("# GHz S RI R 50\n1 0 zz 0 0 0 0 0 0\n")

    def test_db_magnitude_beyond_a_double_names_line(self):
        # 10**(7000/20) overflows: the row is rejected before it is exponentiated
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match=r"^line 2: DB magnitude of 6165\.09 dB or more "
                                                 r"overflows a double$"):
                parse_touchstone("# GHz S DB R 50\n1 0 0 7000 0 0 0 0 0\n")
            net = parse_touchstone("# GHz S DB R 50\n1 0 0 6165 0 0 0 0 0\n")
        assert 1e308 < abs(net.s21[0]) < math.inf

    def test_db_magnitude_checked_in_every_pair(self):
        with pytest.raises(ParseError, match=r"^line 2: DB magnitude of 6165\.09 dB"):
            parse_touchstone("# GHz S DB R 50\n1 0 0 -20 0 0 0 7000 0\n")

    def test_option_line_after_data_row_names_line(self):
        # the first row would be read as GHz/MA and the last one as RI
        with pytest.raises(ParseError, match="^line 2: option line after a data row$"):
            parse_touchstone("1 0 0 0.5 90 0.5 90 0 0\n# GHz S RI R 50\n"
                             "2 0 0 0.5 90 0.5 90 0 0\n")

    def test_empty_without_hint_fails(self):
        with pytest.raises(ParseError, match="^no data rows$"):
            parse_touchstone("# GHz S RI R 50\n")

    @pytest.mark.parametrize("text", ["! ports: 2\n# GHz S RI R 50\n", "! ports: 1\n", ""])
    def test_no_data_rows_rejected_whatever_the_comments(self, text):
        with pytest.raises(ParseError, match="^no data rows$"):
            parse_touchstone(text)

    @pytest.mark.parametrize("space", ["\x0c", "\x85", "\u2028"])
    def test_lines_end_at_newline_only(self, space):
        # str.split() takes these as whitespace; str.splitlines() would also
        # end a line at them and shift every later line number.
        rows = f"1 0 0 0.5{space}0.25 0 0 0 0\r\n2 0 0 0 0 0 0 0 0\r\n"
        net = parse_touchstone("# GHz S RI R 50\r\n" + rows)
        assert net.s21[0] == 0.5 + 0.25j
        with pytest.raises(ParseError, match="^line 4: expected 9 columns, got 3$"):
            parse_touchstone("# GHz S RI R 50\n" + rows + "3 1 2\n")

    @pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x1f"])
    @pytest.mark.parametrize("where", ["data", "comment"])
    def test_separator_characters_rejected(self, char, where):
        # str.split() takes these for spaces: "0.3\x1c0.4" would read as two cells
        row = f"1 0 0 0.3{char}0.4 0.3 0.4 0 0"
        if where == "comment":
            row = f"1 0 0 0.3 0.4 0.3 0.4 0 0 ! {char}"
        with pytest.raises(ParseError) as exc:
            parse_touchstone(f"# GHz S RI R 50\r\n! two-port\r\n{row}\r\n2 0 0 0 0 0 0 0 0\r\n")
        assert str(exc.value) == f"line 3: control character {char!r}"


_PARTS = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def sweeps(draw):
    """Strictly increasing finite sweeps whose frequencies stay distinct
    at the writer's 9 significant digits."""
    steps = draw(st.lists(st.floats(1e-7, 10.0), min_size=1, max_size=20))
    f = 1e6 * np.cumprod(1.0 + np.array(steps))
    parts = draw(st.lists(st.tuples(_PARTS, _PARTS), min_size=len(f), max_size=len(f)))
    return NetworkData(f=f, s21=[complex(a, b) for a, b in parts])


def touchstone_text(net, fmt):
    """`net` as 2-port Touchstone text in GHz and `fmt` (RI, MA or DB),
    with S11 = S22 = 0 and S12 = S21, each number its `repr`."""
    def pair(v):
        if fmt == "RI":
            return v.real, v.imag
        mag, ang = abs(v), math.degrees(cmath.phase(v))
        if fmt == "DB":
            mag = 20.0 * math.log10(mag) if mag else -math.inf
        return mag, ang

    lines = [f"# GHz S {fmt} R 50"]
    for f_hz, s21 in zip(net.f, net.s21):
        cells = [f_hz / 1e9, *pair(0j), *pair(complex(s21)) * 2, *pair(0j)]
        lines.append(" ".join(map(repr, map(float, cells))))
    return "\n".join(lines) + "\n"


class TestTouchstoneFromFile:
    """A Touchstone document read from a binary file open at its start, as
    the CLI reads one, parses as its text does."""

    @staticmethod
    def parse_all(text, tmp_path):
        """parse_touchstone of `text`, of an io.BytesIO and of a file
        holding its UTF-8 bytes."""
        path = tmp_path / "probe.s2p"
        path.write_bytes(text.encode())
        with open(path, "rb") as fh:
            from_file = parse_touchstone(fh)
        return parse_touchstone(text), parse_touchstone(io.BytesIO(text.encode())), from_file

    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    def test_same_bits_as_text(self, tmp_path, fmt):
        nets = self.parse_all(touchstone_text(synth_network(seed=5), fmt), tmp_path)
        for net in nets[1:]:
            assert net.f.tobytes() == nets[0].f.tobytes()
            assert net.s21.tobytes() == nets[0].s21.tobytes()

    def test_bad_row_same_error(self, tmp_path):
        text = touchstone_text(synth_network(n=3), "MA") + "4 0 0 0.5 zz 0 0 0 0\n"
        errors = []
        for source in (text, io.BytesIO(text.encode())):
            with pytest.raises(ParseError) as exc:
                parse_touchstone(source)
            errors.append(str(exc.value))
        assert errors == ["line 5: non-numeric token in data row: '4 0 0 0.5 zz 0 0 0 0'"] * 2


class TestTouchstoneRoundTrip:
    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    def test_values_stable_to_1e8(self, fmt):
        net = synth_network()
        back = parse_touchstone(write_touchstone(parse_touchstone(touchstone_text(net, fmt))))
        assert_allclose(back.f, net.f, rtol=1e-8)
        assert_allclose(back.s21, net.s21, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    def test_write_parse_write_idempotent(self, fmt):
        once = write_touchstone(parse_touchstone(touchstone_text(synth_network(seed=3), fmt)))
        twice = write_touchstone(parse_touchstone(once))
        assert once == twice

    def test_ri_vs_ma_agree(self):
        net = synth_network(seed=4, n=50)
        a = parse_touchstone(touchstone_text(net, "RI"))
        b = parse_touchstone(touchstone_text(net, "MA"))
        assert_allclose(a.s21, b.s21, rtol=1e-12, atol=1e-15)

    def test_writes_s21_as_a_reciprocal_matched_2_port(self):
        net = NetworkData(f=[1e9, 2.5e9], s21=[0.5 - 0.25j, complex(0, -1e-5)])
        assert write_touchstone(net) == ("! ports: 2\n# GHz S RI R 50\n"
                                         "1 0 0 0.5 -0.25 0.5 -0.25 0 0\n"
                                         "2.5 0 0 0 -1e-05 0 -1e-05 0 0\n")

    def test_frequencies_one_at_9_digits_rejected(self):
        # 1 GHz and 1 GHz + 0.05 Hz both print as "1"; no reader could order them
        net = NetworkData(f=[0.5e9, 1e9, 1000000000.05, 1000000000.1], s21=[0.5j] * 4)
        with pytest.raises(ConfigError) as exc:
            write_touchstone(net)
        assert str(exc.value) == ("touchstone: frequencies 1000000000.0 and 1000000000.05 Hz "
                                  "are both written as 1 GHz (9 digits)")

    def test_frequencies_apart_in_the_ninth_digit_written(self):
        net = NetworkData(f=[1.23456789e9, 1.2345679e9], s21=[0.5j, 0.25j])
        text = write_touchstone(net)
        assert [row.split()[0] for row in text.splitlines()[2:]] == ["1.23456789", "1.2345679"]
        assert_allclose(parse_touchstone(text).f, net.f, rtol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-12, 1e-6), min_size=1, max_size=6))
    def test_written_sweep_reads_back_or_is_rejected(self, steps):
        # a strictly increasing sweep: the writer's text reads back with its
        # row count, or the writer names two frequencies it cannot tell apart
        f = 1e9 * np.cumprod(1.0 + np.array([0.0, *steps]))
        assume(np.all(np.diff(f) > 0))
        net = NetworkData(f=f, s21=np.full(len(f), 0.5j))
        rows = [f"{x / 1e9:.9g}" for x in f]
        try:
            text = write_touchstone(net)
        except ConfigError as exc:
            k = next(k for k in range(len(rows) - 1) if rows[k] == rows[k + 1])
            assert f"{float(f[k])!r} and {float(f[k + 1])!r} Hz" in str(exc)
            return
        assert len(rows) == len(set(rows))
        assert len(parse_touchstone(text).f) == len(f)

    @settings(max_examples=200, deadline=None)
    @given(sweeps())
    def test_round_trip_property(self, net):
        once = write_touchstone(net)
        back = parse_touchstone(once)
        assert write_touchstone(back) == once
        assert_allclose(back.f, net.f, rtol=1e-8)
        assert_allclose(back.s21.real, net.s21.real, rtol=1e-8)
        assert_allclose(back.s21.imag, net.s21.imag, rtol=1e-8)


def with_body(fmap, r, row_text):
    """Map CSV text with body row r replaced, and that row's 1-based line number."""
    lines = write_map_csv(fmap).splitlines()
    lineno = len(lines) - fmap.grid.ny + r + 1
    lines[lineno - 1] = row_text
    return "\n".join(lines) + "\n", lineno


def with_cell(fmap, r, c, cell_text):
    cells = write_map_csv(fmap).splitlines()[-fmap.grid.ny + r].split(",")
    cells[c] = cell_text
    return with_body(fmap, r, ",".join(cells))


#: Spellings float() takes and the cell grammar (RFC 8259 numbers padded
#: by spaces, tabs and "\r"s) does not.
_REFUSED = ["1_0", "+1", ".5", "1.", "01", "-01", "00", "\uff11", "\u0661\u0662", "1\x0b", "\x0c2",
            "3\x85", "\xa04", "5\u2003", "\u20286", "nan", "inf", " -Infinity "]
_CF_HEAD = "# nfscan-cf 1\n# kernel: paper\n# d: 0.001\n# h: 0.0016\n# columns: f_hz,cf_db\n"


class TestMapCsv:
    def test_table3_shape_round_trip(self):
        fmap = synth_map()
        back = parse_map_csv(write_map_csv(fmap))
        assert back.values.shape == (51, 41)
        assert np.array_equal(back.values, fmap.values)
        assert back.grid == fmap.grid
        assert back.f == fmap.f
        assert back.component == fmap.component
        assert back.meta == fmap.meta

    def test_missing_header_keys_in_header_order(self):
        text = "# nfscan-map 1\n-1.5\n"
        for parse in (parse_map_csv, parse_map_csv_per_row):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert str(info.value) == ("missing header keys: x_min, x_max, y_min, y_max, dx, dy, "
                                       "z_height, f_hz, component, value_kind")

    @pytest.mark.parametrize("f_hz", ["nan", "inf", "-inf", "0.0", "-2e9"])
    def test_frequency_must_be_finite_and_positive(self, f_hz):
        """A non-finite header number is the header reader's ParseError; a
        finite one out of range is FieldMap's ConfigError, so the parser
        and its reference agree."""
        text = write_map_csv(synth_map(nx=3, ny=2)).replace("# f_hz: 2000000000.0\n",
                                                            f"# f_hz: {f_hz}\n")
        if not math.isfinite(float(f_hz)):
            with pytest.raises(ParseError) as info:
                parse_map_csv(text)
            assert str(info.value) == f"header f_hz: not a finite number: {f_hz!r}"
            return
        for parse in (parse_map_csv, parse_map_csv_per_row):
            with pytest.raises(ConfigError) as info:
                parse(text)
            assert str(info.value) == f"map frequency {float(f_hz)!r} Hz: must be finite and > 0"

    @pytest.mark.parametrize("key, value", [
        ("x_min", "nan"), ("x_max", "inf"), ("y_min", "-inf"), ("y_max", "1e309"),
        ("dx", "inf"), ("dy", "nan"), ("z_height", "-inf"), ("f_hz", "1e309")])
    def test_non_finite_header_number_names_key(self, key, value):
        text = "".join(f"# {key}: {value}\n" if line.startswith(f"# {key}: ") else line
                       for line in write_map_csv(synth_map(nx=3, ny=2)).splitlines(True))
        with pytest.raises(ParseError) as info:
            parse_map_csv(text)
        assert str(info.value) == f"header {key}: not a finite number: {value!r}"

    def test_single_cell(self):
        grid = ScanGrid(x_min=0, x_max=0, y_min=0, y_max=0, dx=1e-3, dy=1e-3,
                        z_height=1e-3)
        fmap = FieldMap(grid=grid, f=1e9, component="mag", values=[[-12.5]])
        text = write_map_csv(fmap)
        assert text.rstrip().splitlines()[-1] == "-12.5"
        back = parse_map_csv(text)
        assert back.values[0, 0] == -12.5

    def test_idempotent(self):
        fmap = synth_map(seed=6)
        once = write_map_csv(fmap)
        assert write_map_csv(parse_map_csv(once)) == once

    def test_column_mismatch_names_row(self):
        fmap = synth_map(nx=5, ny=3, seed=7)
        lines = write_map_csv(fmap).splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:-1])  # drop one cell of last row
        with pytest.raises(ParseError, match="row 2"):
            parse_map_csv("\n".join(lines) + "\n")

    def test_row_count_mismatch(self):
        fmap = synth_map(nx=4, ny=4, seed=8)
        lines = write_map_csv(fmap).splitlines()
        with pytest.raises(ParseError, match="expected 4 data rows"):
            parse_map_csv("\n".join(lines[:-1]) + "\n")

    def test_missing_header_key(self):
        fmap = synth_map(nx=3, ny=3, seed=9)
        text = "\n".join(l for l in write_map_csv(fmap).splitlines()
                         if not l.startswith("# dx")) + "\n"
        with pytest.raises(ParseError, match="dx"):
            parse_map_csv(text)

    @pytest.mark.parametrize("line, key", [
        ("# f_hz: 2e9", "f_hz"), ("# meta.kernel: paper", "meta.kernel"),
        ("#  dx :0.0005", "dx")])
    def test_header_key_given_twice_names_line_and_key(self, line, key):
        lines = write_map_csv(synth_map(nx=3, ny=2)).splitlines()
        lines.insert(13, line)  # after the last meta line
        text = "\n".join(lines) + "\n"
        for parse in (parse_map_csv, parse_map_csv_per_row):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert str(info.value) == f"line 14: header key {key!r} given twice"

    def test_meta_text_written_back_as_given(self):
        """Meta text, a lone surrogate included, is written and parsed back
        as it was given; the stack writer's bytes are its surrogatepass
        encoding."""
        fmap = FieldMap(grid=synth_map(nx=3, ny=2).grid, f=1e9, component="hy",
                        values=np.zeros((2, 3)), meta={"odd": "x\udc80y", "accent": "\u00e9"})
        text = write_map_csv(fmap)
        assert "\n# meta.accent: \u00e9\n# meta.odd: x\udc80y\n" in text
        assert parse_map_csv(text).meta == fmap.meta
        (data,) = formats.write_map_stack(fmap.grid, [fmap.f], fmap.component,
                                          fmap.values[None], fmap.meta)
        assert data == text.encode("utf-8", "surrogatepass")

    @pytest.mark.parametrize("meta, why", [
        ({"a:b": "v"}, "a key holding ':' is read back only up to it"),
        ({"k": " v "}, "the value starts or ends with white space, which is read back stripped"),
        ({"k ": "v"}, "the key starts or ends with white space, which is read back stripped"),
        ({"k": "x\n1,2"}, "the value holds a line end or an ASCII separator ('\\x1c'-'\\x1f')"),
        ({"k\x1e": "v"}, "the key holds a line end or an ASCII separator ('\\x1c'-'\\x1f')"),
        ({"k": 1.0}, "key and value must be text")])
    def test_meta_its_header_cannot_carry_back_rejected(self, meta, why):
        # written, these read back as another key or value, or not at all
        (key,) = meta
        with pytest.raises(ConfigError) as info:
            FieldMap(grid=synth_map(nx=3, ny=2).grid, f=1e9, component="hy",
                     values=np.zeros((2, 3)), meta=meta)
        assert str(info.value) == f"map meta key {key!r}: {why}"

    def test_wrong_magic(self):
        with pytest.raises(ParseError, match="not a field map"):
            parse_map_csv("# something-else 1\n0\n")

    def test_bad_db_cell_names_line_and_text(self):
        text, lineno = with_cell(synth_map(nx=5, ny=4, seed=15), 2, 3, " 1.2.3 ")
        with pytest.raises(ParseError, match=rf"^line {lineno}: bad db cell '1\.2\.3'$") as exc:
            parse_map_csv(text)
        assert exc.value.line == lineno

    def test_first_bad_cell_of_first_bad_row_is_named(self):
        fmap = synth_map(nx=5, ny=4, seed=15)
        lines = write_map_csv(fmap).splitlines()
        first = len(lines) - 4 + 2
        lines[first - 1] = "0,x,0,y,0"
        lines[first] = "z,0,0,0,0"
        with pytest.raises(ParseError, match=rf"^line {first}: bad db cell 'x'$"):
            parse_map_csv("\n".join(lines) + "\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_db_cell_names_line(self, cell):
        # a number beyond a double is non-finite; float()'s spellings of NaN
        # and infinity are no JSON numbers, so bad cells
        text, lineno = with_cell(synth_map(nx=3, ny=3, seed=17), 1, 2, cell)
        fault = "non-finite" if cell == "1e999" else "bad"
        with pytest.raises(ParseError) as exc:
            parse_map_csv(text)
        assert str(exc.value) == f"line {lineno}: {fault} db cell {cell!r}"

    def test_cells_accept_what_float_accepts(self):
        """The cells the grammar takes, JSON numbers padded by spaces, tabs
        and "\r"s, are read as float() reads them, bit for bit, a `-0`
        with its sign, in a file whose lines end in CRLF."""
        cells = [" -1.5", "-0", "-0.0", " -0 ", "1E+5", "5e-05", "\t-2.5\t", "3\r", "0", "-1e-0",
                 "2E-3 ", "9007199254740993"]
        text, _ = with_body(synth_map(nx=12, ny=2, seed=19), 1, ",".join(cells))
        back = parse_map_csv(text.replace("\n", "\r\n"))
        assert back.values[1].tobytes() == np.array([float(c) for c in cells]).tobytes()

    @pytest.mark.parametrize("cell", ["1.0#x", "'1'", "1\x00"])
    def test_cells_float_rejects_are_bad(self, cell):
        # Last cell: numpy's text reader could end the row at a comment
        # character or unquote the cell, leaving a valid row.
        text, lineno = with_cell(synth_map(nx=4, ny=3, seed=20), 1, 3, cell)
        with pytest.raises(ParseError) as exc:
            parse_map_csv(text)
        assert str(exc.value) == f"line {lineno}: bad db cell {cell!r}"

    @pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x1f"])
    @pytest.mark.parametrize("col", [0, 1, 3])
    def test_separator_characters_rejected(self, char, col):
        # str.strip() and numpy's reader take these for spaces; float() does not
        text, lineno = with_cell(synth_map(nx=4, ny=3, seed=20), 1, col, "1" + char)
        with pytest.raises(ParseError) as exc:
            parse_map_csv(text)
        assert str(exc.value) == f"line {lineno}: control character {char!r}"

    @pytest.mark.parametrize("cell", _REFUSED)
    @pytest.mark.parametrize("table", ["map", "cf"])
    def test_spellings_json_does_not_read_are_bad_cells(self, cell, table):
        if table == "map":
            text, lineno = with_cell(synth_map(nx=3, ny=2), 1, 1, cell)
            parse = parse_map_csv
        else:
            text, lineno = _CF_HEAD + f"1e9,30\n2e9,{cell}\n", 7
            parse = parse_cf_csv
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == f"line {lineno}: bad db cell {cell.strip(' ')!r}"

    @pytest.mark.parametrize("rows, message", [
        # a bad cell comes before a separator on a later line
        (["1.5,x", "\x1c0,0"], "line 14: bad db cell 'x'"),
        # the column count comes before a row too many, on a later line
        (["1.5", "0,0", "0,0"], "line 14: row 0: expected 2 columns, got 1"),
        # a row too many comes before the lines after it, which are not read
        (["0,0", "0,0", "x,y", ""], "expected 2 data rows, got 4"),
        (["0,0", "0,0", "0,0", "x,y"], "expected 2 data rows, got 4"),
        (["0,0", "-0", "# k: v"], "line 15: row 1: expected 2 columns, got 1"),
        (["0,0", "0,0", "# k: v"], "line 16: '#' header line after data body"),
        (["0,0", "", "0,0"], "line 15: blank line inside data body"),
        (["0,0"], "expected 2 data rows, got 1")])
    def test_first_fault_in_file_order_is_raised(self, rows, message):
        data, _ = _map_bytes(2, 2, rows)
        for size in (1, 7, 64, 1 << 16):
            with mock.patch.object(formats, "_BLOCK_BYTES", size):
                assert _parse_outcome(parse_map_csv, data.decode()) == message
                assert _parse_outcome(parse_map_csv, io.BytesIO(data)) == message
        assert _parse_outcome(parse_map_csv_per_row, data) == message

    def test_block_refused_with_no_fault_is_an_error_naming_its_line(self, monkeypatch):
        monkeypatch.setattr(formats, "_load", lambda block: None)
        text = write_map_csv(synth_map(nx=3, ny=2))
        with pytest.raises(ParseError) as exc:
            parse_map_csv(text)
        assert str(exc.value) == ("line 14: body block refused with no fault found in it "
                                  "(a reader bug)")

    def test_complex_header_rejected(self):
        text = write_map_csv(synth_map(nx=2, ny=2, seed=16))
        text = text.replace("# value_kind: db\n", "# value_kind: complex\n")
        with pytest.raises(ParseError, match="^header value_kind: must be db, got 'complex'$"):
            parse_map_csv(text)

    def test_db_map_rejects_non_finite(self):
        grid = ScanGrid(x_min=0, x_max=0, y_min=0, y_max=0, dx=1e-3, dy=1e-3,
                        z_height=1e-3)
        with pytest.raises(ConfigError, match="non-finite"):
            FieldMap(grid=grid, f=1e9, component="hy", values=[[math.inf]])

    @pytest.mark.parametrize("values", [[[1 + 2j, 3 + 4j]], np.array([[1 + 2j, 3 + 4j]]),
                                        np.array([[1.0, -2.0]], dtype=np.complex64)])
    def test_map_rejects_complex_values(self, values):
        # Not cast to the real part, even when every imaginary part is 0.
        grid = ScanGrid(x_min=0, x_max=1e-3, y_min=0, y_max=0, dx=1e-3, dy=1e-3,
                        z_height=1e-3)
        with pytest.raises(ConfigError, match="^map values must be real dB values, not complex$"):
            FieldMap(grid=grid, f=1e9, component="hy", values=values)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
            1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e22, 1e-7,
            # both sides of the bounds where the writer falls back to `repr`
            1e-4, 9.999999999999999e-05, 1e-05, -5.5e-05, 1e15, 9999999999999998.0, -1e16]
_DOUBLES = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-5e-308, max_value=5e-308, allow_subnormal=True),
    st.builds(lambda m, e: float(f"{m}e{e}"),
              st.integers(10**16, 10**17 - 1), st.integers(-340, 291)))


def _db_map(vals):
    ny, nx = vals.shape
    fmap = synth_map(nx=nx, ny=ny)
    return FieldMap(grid=fmap.grid, f=fmap.f, component=fmap.component, values=vals,
                    meta=fmap.meta)


@st.composite
def field_maps(draw):
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cells = np.array(draw(st.lists(_DOUBLES, min_size=nx * ny, max_size=nx * ny)))
    if draw(st.booleans()):
        return _db_map(cells.reshape(nx, ny).T)  # not C-contiguous
    return _db_map(cells.reshape(ny, nx))


def _stack(values, component="vport", meta=(("normal", "hy"),)):
    """A `write_map_stack` argument tuple: the maps of `values` (nf, ny, nx)
    at 1, 2, ... GHz over synth_map's grid for their shape."""
    nf, ny, nx = values.shape
    return (synth_map(nx=nx, ny=ny).grid, [1e9 * (k + 1) for k in range(nf)], component,
            values, dict(meta))


@st.composite
def map_stacks(draw):
    nf, ny, nx = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cells = st.one_of(_DOUBLES, st.just(-300.0), st.floats(-1e-4, 1e-4))
    values = np.array(draw(st.lists(cells, min_size=nf * ny * nx, max_size=nf * ny * nx)))
    component, meta = draw(st.sampled_from([("vport", (("normal", "hy"),)), ("s21", ()),
                                            ("hz", ())]))
    return _stack(values.reshape(nf, ny, nx), component, meta)


_TO_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_TO_FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))
_PAD = st.text(" \t\u00a0\u2003", max_size=2)
#: Cell spellings besides `repr`; some float() takes and the cell grammar
#: does not, some neither takes, some are non-finite.
_ODD_CELLS = [
    st.tuples(_PAD, _DOUBLES.map(repr), _PAD).map("".join),
    st.integers(0, 10**9).map("{:_}".format),
    _DOUBLES.map(lambda x: repr(x).translate(_TO_ARABIC_INDIC)),
    _DOUBLES.map(lambda x: repr(x).translate(_TO_FULLWIDTH)),
    _DOUBLES.map(lambda x: f"{x!r}#x"),
    _DOUBLES.map(lambda x: f"'{x!r}'"),
    _DOUBLES.map(lambda x: f'"{x!r}"'),
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e999"]),
    st.sampled_from(["1e", "", "1\x00"]),
    # JSON values numpy would cast to a float, and numbers JSON reads
    # differently from float() or not at all
    st.sampled_from(["true", "false", "null", '"1.0"', "[1]", "{}", "-0", "0", "-00",
                     "9007199254740993"]),
]


@st.composite
def map_texts(draw):
    """A written map whose cells mix `repr` with one or two odd spellings."""
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    odd = draw(st.lists(st.sampled_from(range(len(_ODD_CELLS))), max_size=2, unique=True))
    cell = st.one_of(_DOUBLES.map(repr), *(_ODD_CELLS[i] for i in odd))
    lines = write_map_csv(synth_map(nx=nx, ny=ny)).splitlines()
    for r in range(ny):
        lines[r - ny] = ",".join(draw(st.lists(cell, min_size=nx, max_size=nx)))
    return "\n".join(lines) + "\n"


def _map_with_cell(cell):
    """A written 3 x 2 map whose last row is `-1.5,<cell>,0.0`."""
    return with_body(synth_map(nx=3, ny=2), 1, f"-1.5,{cell},0.0")[0]


def _parse_outcome(parse, text):
    """The parsed values' bytes, or the ParseError text."""
    try:
        return parse(text).values.tobytes()
    except ParseError as exc:
        return str(exc)


#: Zeros and doubles with 1e-4 <= |x| < 1e16: orjson spells them as `repr`.
_ORJSON_AS_REPR = [0.0, -0.0, 1e-4, -1e-4, 1.0000000000000002e-4, 0.00015, 0.1, 1 / 3, -1.0,
                   2.5, -53.0, 123.456, -350.00000000000006, 1e15, 2.0 ** 53 - 1,
                   9999999999999998.0, -9999999999999998.0, 123456789012345.6]
#: Doubles with 0 < |x| < 1e-4 or |x| >= 1e16, and NaN: the writer spells
#: them with `repr`.
_REPR_ONLY = [5e-324, -5e-324, 2.2250738585072014e-308, 1e-7, -1.5e-06, 1e-05, -5.5e-05,
              9.999999999999999e-05, -9.999999999999999e-05, 1e16, -1e16, 1.5e16, 1e22,
              1.7976931348623157e308, -1e308, math.inf, -math.inf, math.nan]


class TestMapCsvBytes:
    @settings(max_examples=300, deadline=None)
    @given(field_maps())
    @example(_db_map(np.array([_SPECIAL])))                        # one row
    @example(_db_map(np.array([_SPECIAL]).T))                      # one column
    @example(_db_map(np.array(_SPECIAL).reshape(3, 7).T))          # transposed
    @example(_db_map(np.array(_SPECIAL).reshape(3, 7)[:, ::-2]))   # strided
    def test_matches_per_cell_writer_and_round_trips_bits(self, fmap):
        text = write_map_csv(fmap)
        assert text == write_map_csv_per_cell(fmap)
        back = parse_map_csv(text)
        assert back.values.dtype == fmap.values.dtype
        assert back.values.tobytes() == fmap.values.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(map_stacks())
    @example(_stack(np.array([[[-300.0]]])))                       # nf = 1, 1 x 1, the floor
    @example(_stack(np.array([[[-5e-05, -300.0]], [[-20.5, 1e-7]]])))  # `repr` rows
    @example(_stack(np.array(_SPECIAL[:20]).reshape(2, 5, 2)))
    def test_stack_writer_matches_one_map_writers(self, stack):
        grid, freqs, component, values, meta = stack
        written = list(formats.write_map_stack(grid, freqs, component, values, meta))
        assert len(written) == len(freqs)
        for f_hz, vals, data in zip(freqs, values, written):
            fmap = FieldMap(grid=grid, f=f_hz, component=component, values=vals, meta=meta)
            assert data == write_map_csv_per_cell(fmap).encode()
            assert data == write_map_csv(fmap).encode()

    def test_peak_memory_below_three_texts(self):
        # the writer peaks at 2.01x the text here (tracemalloc, 39.1 MB for 19.5 MB)
        vals = np.random.default_rng(7).uniform(-350.0, 0.0, (1001, 1001))
        vals[500, 500] = -5e-05  # one row written with `repr`
        fmap = _db_map(vals)
        tracemalloc.start()
        try:
            text = write_map_csv(fmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.3 * len(text)

    def test_parse_peak_memory_below_1_95_texts(self):
        # 1.83x here: the text's UTF-8 bytes, read in blocks, and the
        # blocks' arrays and their join.
        text = write_map_csv(_db_map(np.random.default_rng(8).uniform(-350.0, 0.0, (1001, 1001))))
        tracemalloc.start()
        try:
            parse_map_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.95 * len(text)

    def test_orjson_spells_doubles_as_repr(self):
        # The writer relies on these spellings; an orjson that changes one
        # fails here, naming the value, instead of changing map bytes.
        for x in _ORJSON_AS_REPR:
            for got in (orjson.dumps(x),
                        orjson.dumps(np.array([[x]]), option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]):
                assert got == repr(x).encode(), f"orjson writes {x!r} as {got.decode()!r}"
            assert formats._repr_rows(np.array([[x]])) == [], f"{x!r} written with repr"
        for x in _REPR_ONLY:
            assert formats._repr_rows(np.array([[x]])) == [0], f"{x!r} written with orjson"

    @settings(max_examples=300, deadline=None)
    @given(map_texts())
    @example(_map_with_cell("-0"))
    @example(_map_with_cell(" -0 "))
    @example(_map_with_cell("-0.0"))
    @example(_map_with_cell("1E5"))
    @example(_map_with_cell("9007199254740993"))
    @example(_map_with_cell("1.7976931348623159e308"))
    @example(_map_with_cell("\t-2.5\t"))
    @example(_map_with_cell("\x0c-2.5"))
    @example(_map_with_cell('"0.0"'))
    @example(_map_with_cell("null"))
    @example(_map_with_cell("true"))
    @example(_map_with_cell("false"))
    @example(_map_with_cell("{}"))
    def test_parser_matches_per_row_parser(self, text):
        assert _parse_outcome(parse_map_csv, text) == _parse_outcome(parse_map_csv_per_row, text)


def _read(parse, source):
    """`parse(source)` as (grid, f, component, meta, value bytes), or the
    error: its text, or a UnicodeDecodeError's byte and reason."""
    try:
        fmap = parse(source)
    except (ParseError, ConfigError) as exc:
        return str(exc)
    except UnicodeDecodeError as exc:
        return exc.object[exc.start], exc.reason
    return fmap.grid, fmap.f, fmap.component, fmap.meta, fmap.values.tobytes()


#: A 1 x 1 map header whose x axis asks for 10**13 + 1 cells.
_HEAD_1E13 = ("# nfscan-map 1\n# x_min: 0\n# x_max: 1\n# y_min: 0\n# y_max: 0\n"
              "# dx: 1e-13\n# dy: 0.001\n# z_height: 0.001\n# f_hz: 1e9\n"
              "# component: hy\n# value_kind: db\n")
#: What a mutation puts into a map file: line ends and padding, the
#: spellings JSON reads differently from float() or not at all, a header
#: line, separators, a BOM and bytes that are not UTF-8.
_INSERTS = [b"\n", b"\r", b"\r\n", b"\n\n", b" ", b"\t", b"\x0c", b"-0", b"-", b"0", b",",
            b".", b"e", b"#", b"# k: v\n", b'"', b"[", b"]", b"{", b"t", b"null", b"1_0", b"+",
            b"\x1c", b"\xef\xbb\xbf", b"\xc2\x85", b"\xff", b"\xc3"]


#: Cell spellings of a mutated map: `repr`, and spellings JSON reads
#: differently from float() (a `-0`) or not at all.
_CELLS = ["0.0", "-0.0", "-0", "0", "-0e0", " -0 ", "-1.5", "3.0", "-20.25", "5e-05", "1E5",
          "1_0", "+1", ".5", "true", "false", "null"]


def _map_bytes(nx, ny, rows, crlf=False):
    """The bytes of a written nx x ny map's header, then `rows`, and the
    length of the header."""
    head = "".join(write_map_csv(synth_map(nx=nx, ny=ny)).splitlines(keepends=True)[:-ny])
    data = (head + "".join(row + "\n" for row in rows)).encode()
    if crlf:
        data = data.replace(b"\n", b"\r\n")
    return data, len(head) + crlf * head.count("\n")


def _written(nx, ny, cells):
    """The bytes of a written nx x ny map of `cells`, repeated as needed."""
    cells = np.resize(np.array(cells, dtype=float), ny * nx).tolist()
    return _map_bytes(nx, ny, [",".join(map(repr, cells[r * nx:(r + 1) * nx]))
                               for r in range(ny)])[0]


@st.composite
def mutated_maps(draw):
    """A map header and rows of `_CELLS`, its lines CRLF or not, with a few
    bytes inserted, replaced or deleted and lines repeated or dropped,
    about half of them in the body."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = [",".join(draw(st.lists(st.sampled_from(_CELLS), min_size=nx, max_size=nx)))
            for _ in range(ny)]
    data, body = _map_bytes(nx, ny, rows, crlf=draw(st.booleans()))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["insert", "replace", "delete", "repeat line", "drop line"]))
        pos = draw(st.integers(draw(st.sampled_from([0, min(body, len(data))])), len(data)))
        if op.endswith("line"):
            lo = data.rfind(b"\n", 0, pos) + 1
            hi = data.find(b"\n", pos) + 1 or len(data)
            data = data[:lo] + data[lo:hi] * (2 if op == "repeat line" else 0) + data[hi:]
        else:
            ins = b"" if op == "delete" else draw(st.sampled_from(_INSERTS))
            data = data[:pos] + ins + data[pos + (op != "insert"):]
    return data


class TestBlockReader:
    """The block reader returns what the per-line reference parser
    returns, or raises its error, wherever the block edges fall."""

    @settings(max_examples=150, deadline=None)
    @given(mutated_maps())
    @example(_written(3, 2, [-1.5, 0.0]).replace(b"\n", b"\r\n"))        # CRLF
    @example(_written(3, 2, [-1.5, -0.0]).replace(b"\n", b"\r\n"))
    @example(("# nfscan-map 1\n# x_min: 0\n# x_max: 0.001\n# y_min: 0\n# y_max: 0.001\n"
              "# dx: 0.001\n# dy: 0.001\n# z_height: 0.001\n# f_hz: 1e9\n"
              "# component: hy\n# value_kind: db\n-1.5,2.0\n3.0\r,-4.0\n").encode())
    @example(_written(2, 2, [-1.5]).replace(b"db\n", b"db\n\n \n\r\n"))      # blank lines
    @example(b"\xef\xbb\xbf" + _written(2, 2, [-1.5]))                      # a BOM
    @example(_written(2, 2, [-1.5]).replace(b": hy\n", b": h\xffy\n"))        # header
    @example(_written(2, 2, [-1.5]).replace(b"-1.5\n", b"-1.5\xff\n"))       # body
    @example(_written(2, 2, [-1.5]).replace(b"-1.5\n", b"-1.5\xc3\n"))
    @example(_written(2, 2, [-1.5]) + b"\xc3")                               # at the end
    @example(_map_bytes(2, 2, ["1.5,-0", "-0,2.0"])[0])                      # `-0` cells
    @example(_map_bytes(2, 2, ["1e-0,-0", "-0,1E-0"])[0])                    # "-0" exponents
    @example(_map_bytes(1, 2, ["-2", "0.25", "-1.5"])[0])                    # a row too many
    @example(_map_bytes(2, 3, ["1.5,-0.0"] * 2)[0])                          # a row too few
    @example((_HEAD_1E13 + "-10\n").encode())                                # 10**13 cells
    @example(b"-1.5\r# nfscan-map 1\r")                                      # bare "\r"s
    @example(_written(2, 2, [-1.5]).replace(b"\n", b"\r")[:-1] + b"\n")
    def test_block_reader_matches_per_line_oracle(self, data):
        text = data.decode("utf-8", "surrogateescape")
        want = _read(parse_map_csv_per_row, data), _read(parse_map_csv_per_row, text)
        for size in range(1, 201):
            with mock.patch.object(formats, "_BLOCK_BYTES", size):
                got = (_read(parse_map_csv, io.BytesIO(data)), _read(parse_map_csv, text))
            assert got == want, size

    @settings(max_examples=50, deadline=None)
    @given(field_maps())
    def test_written_maps_never_reach_the_locator(self, fmap):
        """Written maps are read by orjson alone, never cell by cell
        (`_locate`), at every block size from 1 to 200 and the default,
        from a file and, at the default, from their text."""
        text = write_map_csv(fmap)
        data = text.encode()
        with mock.patch.object(formats, "_locate", side_effect=AssertionError("_locate")):
            for size in (*range(1, 201), formats._BLOCK_BYTES):
                with mock.patch.object(formats, "_BLOCK_BYTES", size):
                    back = parse_map_csv(io.BytesIO(data))
                assert back.values.tobytes() == fmap.values.tobytes(), size
            assert parse_map_csv(text).values.tobytes() == fmap.values.tobytes()

    def test_cli_reader_peaks_below_the_file_size(self, tmp_path):
        # 0.83x here (tracemalloc): the blocks' arrays and their concatenation
        path = tmp_path / "map.csv"
        vals = np.random.default_rng(8).uniform(-350.0, 0.0, (1001, 1001))
        path.write_text(write_map_csv(_db_map(vals)))
        tracemalloc.start()
        try:
            fmap = cli._read(str(path), formats.parse_map_csv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fmap.values.tobytes() == vals.tobytes()
        assert peak < 1.0 * path.stat().st_size


def _stored_arrays():
    """Every array kept by a FieldMap, NetworkData or CFTable, built from
    caller arrays and by the parsers."""
    fmap = synth_map(nx=3, ny=2)
    net = synth_network(n=4)
    table = CFTable(f=[1e9, 2e9], cf_db=[30.0, 25.0], kernel="paper", d=1e-3, h=1.6e-3)
    owners = {"FieldMap": fmap, "parse_map_csv": parse_map_csv(write_map_csv(fmap)),
              "parse_map_csv -0": parse_map_csv(with_cell(fmap, 0, 0, "-0")[0]),
              "NetworkData": net, "parse_touchstone": parse_touchstone(write_touchstone(net)),
              "CFTable": table, "parse_cf_csv": parse_cf_csv(write_cf_csv(table))}
    attrs = {FieldMap: ("values",), NetworkData: ("f", "s21"), CFTable: ("f", "cf_db")}
    return [pytest.param(getattr(obj, attr), id=f"{name}.{attr}")
            for name, obj in owners.items() for attr in attrs[type(obj)]]


class TestReadOnlyValues:
    def test_later_write_to_caller_array_changes_nothing(self):
        grid = ScanGrid(x_min=0, x_max=1e-3, y_min=0, y_max=0, dx=1e-3, dy=1e-3,
                        z_height=1e-3)
        vals = np.array([[-1.0, -2.0]])
        fmap = FieldMap(grid=grid, f=1e9, component="hy", values=vals)
        vals[0, 0] = np.nan
        assert write_map_csv(fmap).endswith("\n-1.0,-2.0\n")

    @pytest.mark.parametrize("values", _stored_arrays())
    def test_stored_arrays_reject_writes(self, values):
        assert values.size
        with pytest.raises(ValueError, match="read-only"):
            values.flat[0] = 0

    @pytest.mark.parametrize("cell", ["-1.5", "-0"])
    def test_parsed_values_are_kept_without_a_copy(self, monkeypatch, cell):
        text = with_cell(synth_map(nx=3, ny=2), 1, 1, cell)[0]
        kept = []

        def spy(a, dtype):
            out = model.readonly(a, dtype)
            kept.append(out is a)
            return out

        monkeypatch.setattr(formats, "readonly", spy)
        parse_map_csv(text)
        assert kept == [True]


@st.composite
def cf_tables(draw):
    f = sorted(set(draw(st.lists(_DOUBLES.filter(lambda x: x > 0), min_size=1, max_size=8))))
    cf = draw(st.lists(_DOUBLES, min_size=len(f), max_size=len(f)))
    d, h = draw(_DOUBLES.filter(lambda x: x > 0)), draw(_DOUBLES.filter(lambda x: x > 0))
    return CFTable(f=f, cf_db=cf, kernel=draw(st.sampled_from(KERNELS)), d=d, h=h)



class TestCfCsv:
    def test_round_trip(self):
        table = CFTable(f=np.geomspace(1e8, 3e9, 16), cf_db=np.linspace(45, 15, 16),
                        kernel="image-theory", d=1e-3, h=1.6e-3)
        text = write_cf_csv(table)
        back = parse_cf_csv(text)
        assert np.array_equal(back.f, table.f)
        assert np.array_equal(back.cf_db, table.cf_db)
        assert back.kernel == "image-theory"
        assert back.d == 1e-3 and back.h == 1.6e-3
        assert write_cf_csv(back) == text

    def test_empty_rejected(self):
        with pytest.raises(ParseError, match="no rows"):
            parse_cf_csv("# nfscan-cf 1\n# kernel: paper\n# d: 0.001\n# h: 0.0016\n")

    @pytest.mark.parametrize("text, message", [
        (_CF_HEAD + "1e9,30\n2e9,25,1\n", "line 7: row 1: expected 2 columns, got 3"),
        (_CF_HEAD + "1e9,30\n2e9,1e999\n", "line 7: non-finite db cell '1e999'"),
        (_CF_HEAD + "1e9,x\n", "line 6: bad db cell 'x'"),
        ("# nfscan-cf 1\n# kernel: paper\n1e9,30\n", "missing header keys: d, h"),
        ("# nfscan-cf 1\n1e9,30\n", "missing header keys: d, h, kernel"),
        (_CF_HEAD.replace("d: 0.001", "d: abc") + "1e9,30\n", "header d: not a number: 'abc'"),
        (_CF_HEAD.replace("d: 0.001", "d: nan") + "1e9,30\n",
         "header d: not a finite number: 'nan'"),
        (_CF_HEAD.replace("h: 0.0016", "h: -inf") + "1e9,30\n",
         "header h: not a finite number: '-inf'"),
        (_CF_HEAD + "# kernel: image-theory\n1e9,30\n", "line 6: header key 'kernel' given twice"),
    ], ids=["columns", "non-finite", "bad-cell", "missing-d-h", "missing-all", "bad-number",
            "non-finite-d", "non-finite-h", "repeated-key"])
    def test_errors_are_the_map_readers(self, text, message):
        """CF tables are read by the map reader and raise its error texts."""
        with pytest.raises(ParseError) as info:
            parse_cf_csv(text)
        assert str(info.value) == message

    def test_cells_json_does_not_read(self):
        """A cell JSON does not read is a bad cell, as in a map; a `-0`
        keeps its sign, and CRLF and padding read."""
        with pytest.raises(ParseError) as info:
            parse_cf_csv(_CF_HEAD + "1e9, 5\n+1_0e8, .5\n")
        assert str(info.value) == "line 7: bad db cell '+1_0e8'"
        back = parse_cf_csv((_CF_HEAD + "1e9,\t-0\n2e9 , 1E+1\n").replace("\n", "\r\n"))
        assert back.f.tolist() == [1e9, 2e9]
        assert back.cf_db.tobytes() == np.array([-0.0, 10.0]).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(cf_tables())
    def test_parse_returns_the_written_table_bit_for_bit(self, table):
        text = write_cf_csv(table)
        for back in (parse_cf_csv(text), parse_cf_csv(io.BytesIO(text.encode()))):
            assert back.f.tobytes() == table.f.tobytes()
            assert back.cf_db.tobytes() == table.cf_db.tobytes()
            assert (back.kernel, back.d.hex(), back.h.hex()) == (table.kernel, table.d.hex(),
                                                                  table.h.hex())


#: Cells the body writer spells with `repr` (0 < |x| < 1e-4, |x| >= 1e16,
#: non-finite) or where a sign or a subnormal could be lost.
_TABLE_CELLS = [1e-7, 9.999999999999999e-05, 1e16, -1e16, -0.0, 5e-324, math.nan, -math.inf]


class TestTableBytes:
    """CF and profile CSVs are written by the map writer's body code; each
    must equal the per-row `repr` writer it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(cf_tables())
    @example(CFTable(f=[5e-324, 1e-7, 1e16, 1.5e16], cf_db=[-0.0, -1e16, 9.999999999999999e-05,
                                                          5e-324], kernel="paper", d=1e-3, h=1e16))
    def test_cf_matches_per_row_writer(self, table):
        assert write_cf_csv(table) == write_cf_csv_per_row(table)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_DOUBLES, st.one_of(_DOUBLES, st.floats())), min_size=1,
                    max_size=8),
           st.sampled_from(["x", "y"]), _DOUBLES, _DOUBLES)
    @example(list(zip(_TABLE_CELLS, _TABLE_CELLS[::-1])), "y", -0.0, 1e16)
    def test_profile_matches_per_row_writer(self, rows, axis, at, f_hz):
        coords, values = (np.array(col) for col in zip(*rows))
        args = (coords, values, axis, at, f_hz, "hy")
        assert formats.write_profile_csv(*args) == write_profile_csv_per_row(*args)


class TestPgm:
    def _map(self, vals):
        vals = np.asarray(vals, dtype=float)
        ny, nx = vals.shape
        grid = ScanGrid(x_min=0, x_max=(nx - 1) * 1e-3, y_min=0, y_max=(ny - 1) * 1e-3,
                        dx=1e-3, dy=1e-3, z_height=1e-3)
        return FieldMap(grid=grid, f=1e9, component="hy", values=vals)

    def test_endpoints_and_midpoint(self):
        img = render_pgm(self._map([[-53.0, -21.0, -37.0]]), lo=-53, hi=-21)
        header, _, body = img.partition(b"255\n")
        assert header == b"P5\n3 1\n"
        assert body == bytes([0, 255, 128])  # round-half-up at the midpoint

    def test_clamping(self):
        img = render_pgm(self._map([[-100.0, 50.0]]), lo=-53, hi=-21)
        assert img.endswith(bytes([0, 255]))

    def test_row0_is_ymax(self):
        # rows written bottom-up in CSV must render top-down in the image
        img = render_pgm(self._map([[-50.0], [-30.0], [-10.0]]), lo=-50, hi=-10)
        body = img.split(b"255\n", 1)[1]
        assert list(body) == [255, 128, 0]

    def test_deterministic(self):
        fmap = synth_map(seed=11)
        assert render_pgm(fmap, -60, 0) == render_pgm(fmap, -60, 0)

    def test_bad_range(self):
        with pytest.raises(ConfigError, match="lo"):
            render_pgm(self._map([[0.0]]), lo=0, hi=0)

    def test_overflowing_scale_clamps(self):
        # (v - lo) / (hi - lo) overflows for a range far narrower than v - lo,
        # and v - lo for v and lo far apart: +-inf, clamped with no warning
        img = render_pgm(self._map([[-30.0, 0.0, 5e-324, 1.0]]), lo=0, hi=5e-324)
        assert img.endswith(bytes([0, 0, 255, 255]))
        img = render_pgm(self._map([[1e308, -1e308, 0.0]]), lo=-1e308, hi=-0.5e308)
        assert img.endswith(bytes([255, 0, 255]))

    def test_peak_memory_below_one_and_a_half_maps(self):
        # 1.38x here (tracemalloc; 3.0x with a float temporary per step): one
        # float buffer, the pixels, their bytes and the image
        fmap = _db_map(np.random.default_rng(9).uniform(-80.0, 0.0, (1001, 1001)))
        tracemalloc.start()
        try:
            img = render_pgm(fmap, -60, -10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(img) == len(b"P5\n1001 1001\n255\n") + fmap.values.size
        assert peak < 1.5 * fmap.values.nbytes


def _mutate(text, r):
    """Random byte-level mutation preserving (usually invalid) text shape."""
    raw = list(text)
    n = max(1, len(raw) // 50)
    for _ in range(r.randrange(1, n + 1)):
        if not raw:
            break
        op = r.randrange(4)
        pos = r.randrange(len(raw))
        ch = chr(r.randrange(32, 127))
        if op == 0:
            raw[pos] = ch
        elif op == 1:
            raw.insert(pos, ch)
        elif op == 2:
            del raw[pos]
        else:
            a, b = sorted((pos, r.randrange(len(raw))))
            raw[a:b] = []
    return "".join(raw)


class TestFuzz:
    def test_mutated_inputs_error_but_never_crash(self):
        r = random.Random(20240817)
        ts_seed = write_touchstone(synth_network(n=25, seed=13))
        db_seed = write_map_csv(synth_map(nx=9, ny=7, seed=14))
        db_seed_2 = write_map_csv(synth_map(nx=5, ny=11, seed=21))
        survived = 0
        for i in range(1500):
            if i % 3 == 0:
                text = _mutate(ts_seed, r)
                parser = parse_touchstone
            else:
                text = _mutate(db_seed if i % 3 == 1 else db_seed_2, r)
                parser = parse_map_csv
            try:
                parser(text)
                survived += 1  # mutation happened to stay valid
            except (ParseError, ConfigError):
                pass
        # most mutations must actually be rejected for the fuzz to mean anything
        assert survived < 750
