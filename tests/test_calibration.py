import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nfscan import (CFTable, ConfigError, FrequencySweep, NetworkData, ParseError,
                    calibrate, cf_from_s21, field_from_voltage, geometry_term_db,
                    center_over_trace, parse_touchstone, probe_transfer)

from conftest import H_SUB, SCAN_HEIGHT
from kernel_reference import closed_form_line_h

D_CAL = SCAN_HEIGHT  # probe-to-conductor distance of the reference setup


def _direct_paper(d, h):
    return 20 * math.log10(d / (math.pi * h * (h + 2 * d)))


def _direct_image(d, h):
    return 20 * math.log10(h / (math.pi * d * (d + 2 * h)))


class TestGeometryTerm:
    def test_printed_kernel_reference_point(self):
        g = geometry_term_db(1e-3, 1.6e-3, "paper")
        assert_allclose(g, 34.85, atol=0.01)
        assert_allclose(g, _direct_paper(1e-3, 1.6e-3), rtol=1e-12)

    def test_image_theory_kernel_reference_point(self):
        g = geometry_term_db(1e-3, 1.6e-3, "image-theory")
        assert_allclose(g, 41.67, atol=0.01)
        assert_allclose(g, _direct_image(1e-3, 1.6e-3), rtol=1e-12)

    def test_d_equals_h_reduction(self):
        h = 1.6e-3
        assert_allclose(geometry_term_db(h, h, "paper"),
                        20 * math.log10(1 / (3 * math.pi * h)), rtol=1e-12)

    def test_kernel_offset_constant(self):
        # the two kernels differ by a fixed, frequency-independent offset
        diff = geometry_term_db(1e-3, 1.6e-3, "paper") - geometry_term_db(1e-3, 1.6e-3,
                                                                          "image-theory")
        assert_allclose(diff, -6.82, atol=0.01)
        assert_allclose(diff, _direct_paper(1e-3, 1.6e-3) - _direct_image(1e-3, 1.6e-3),
                        rtol=1e-12)

    def test_unknown_kernel(self):
        with pytest.raises(ConfigError):
            geometry_term_db(1e-3, 1.6e-3, "hfss")

    def test_domain(self):
        with pytest.raises(ConfigError):
            geometry_term_db(0.0, 1.6e-3)


class TestCfFromS21:
    def test_reference_value(self):
        cf = cf_from_s21(-40.0, 1e-3, 1.6e-3, "paper")
        assert_allclose(cf, 40.85, atol=0.01)
        assert_allclose(cf, _direct_paper(1e-3, 1.6e-3) + 40 - 34, rtol=1e-12)

    def test_algebraic_zero(self):
        g = geometry_term_db(1e-3, 1.6e-3, "paper")
        assert_allclose(cf_from_s21(g - 34.0, 1e-3, 1.6e-3, "paper"), 0.0, atol=1e-12)

    def test_affine_slope_minus_one(self):
        vals = [cf_from_s21(s, 1e-3, 1.6e-3, "paper") for s in (-50, -40, -30, -20)]
        assert_allclose(np.diff(vals), -10.0, rtol=1e-12)


class TestFieldFromVoltage:
    def test_reference_extraction(self):
        assert_allclose(field_from_voltage(-60.0, 40.0), -20.0, rtol=1e-12)

    def test_unit_voltage(self):
        assert field_from_voltage(0.0, 40.0, "eq1-consistent") == 40.0
        assert field_from_voltage(0.0, 40.0, "eq3-printed") == 40.0

    def test_round_trip_definitional_inverse(self):
        h_db = -17.3456
        cf_db = 41.2
        v_db = h_db - cf_db  # from CF = H/V
        assert_allclose(field_from_voltage(v_db, cf_db, "eq1-consistent"), h_db,
                        atol=1e-12)

    def test_printed_sign_mode_flips_voltage(self):
        assert_allclose(field_from_voltage(-60.0, 40.0, "eq3-printed"), 100.0, rtol=1e-12)

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            field_from_voltage(0.0, 0.0, "eq2")


def _probe_network(cal_probe, straight_trace, substrate, drive, sweep):
    center = center_over_trace(straight_trace, substrate, D_CAL)
    f, s21 = probe_transfer(straight_trace, substrate, cal_probe, center, sweep, drive)
    return NetworkData(f=f, s21=s21)


class TestCalibrate:
    def test_cf_trend_minus_20db_per_decade(self, cal_probe, straight_trace, substrate,
                                            drive):
        sweep = FrequencySweep(f_min=0.1e9, f_max=1e9, n_points=11, spacing="log")
        net = _probe_network(cal_probe, straight_trace, substrate, drive, sweep)
        table = calibrate(net, d=D_CAL, h=H_SUB, kernel="paper")
        slope = (table.cf_db[-1] - table.cf_db[0]) / math.log10(table.f[-1] / table.f[0])
        assert abs(slope - (-20.0)) < 2.0

    def test_single_row(self, cal_probe, straight_trace, substrate, drive):
        sweep = FrequencySweep(f_min=1e9, f_max=1e9, n_points=1)
        net = _probe_network(cal_probe, straight_trace, substrate, drive, sweep)
        table = calibrate(net, d=D_CAL, h=H_SUB)
        assert len(table.f) == 1
        assert table.cf_at(1e9) == table.cf_db[0]

    def test_out_of_order_rejected(self):
        with pytest.raises(ConfigError):
            CFTable(f=np.array([2e9, 1e9]), cf_db=np.array([1.0, 2.0]),
                    kernel="paper", d=1e-3, h=1.6e-3)

    @pytest.mark.parametrize("f", [[0.0, 2.0], [-1.0, 1.0]])
    def test_non_positive_frequency_rejected(self, f):
        with pytest.raises(ConfigError, match=f"frequency {f[0]!r} Hz is not > 0"):
            CFTable(f=np.array(f), cf_db=np.array([10.0, 12.0]),
                    kernel="paper", d=1e-3, h=1.6e-3)
        net = NetworkData(f=np.array(f), s21=np.full(2, 0.5 + 0j))
        with pytest.raises(ConfigError, match="is not > 0"):
            calibrate(net, d=D_CAL, h=H_SUB)

    @pytest.mark.parametrize("d, h", [(math.nan, 1.6e-3), (math.inf, 1.6e-3), (0.0, 1.6e-3),
                                      (1e-3, math.nan), (1e-3, -math.inf), (1e-3, -1.6e-3)])
    def test_geometry_must_be_finite_and_positive(self, d, h):
        name, bad = ("d", d) if not 0 < d < math.inf else ("h", h)
        with pytest.raises(ConfigError, match=f"CF table: {name} = {bad!r} m must be finite"):
            CFTable(f=np.array([1e9]), cf_db=np.array([10.0]), kernel="paper", d=d, h=h)

    def test_one_port_network_has_no_s21(self):
        # a 1-port file is rejected as it is read, before calibrate
        with pytest.raises(ParseError, match="^line 2: expected 9 columns, got 3$"):
            calibrate(parse_touchstone("# GHz S RI R 50\n1 0.5 0\n"), d=D_CAL, h=H_SUB)

    def test_bad_s21_row_reported_before_bad_geometry(self):
        # every row is checked before the one geometry term of the table
        net = NetworkData(f=np.array([1e9, 2e9]), s21=np.array([0.5, 0.0]))
        with pytest.raises(ParseError, match=r"^row 1 \(f=2000000000.0 Hz\): S21 magnitude "
                                             r"0.0 has no dB value$"):
            calibrate(net, d=0.0, h=H_SUB)

    @pytest.mark.parametrize("z_ref", [75.0, 49.9])
    def test_non_50_ohm_reference_rejected(self, z_ref):
        # the -34 dB constant of the CF formula holds for a 50 ohm port only,
        # so a probe file referred to another R is rejected as it is read
        with pytest.raises(ParseError, match=f"^line 1: reference impedance is R {z_ref!r} ohm; "
                                             "the CF formula's 34 dB constant assumes R 50$"):
            calibrate(parse_touchstone(f"# GHz S RI R {z_ref}\n1 0 0 0.5 0 0.5 0 0 0\n"),
                      d=D_CAL, h=H_SUB)

    def test_kernel_choice_is_constant_offset_over_frequency(self, cal_probe,
                                                             straight_trace, substrate,
                                                             drive):
        sweep = FrequencySweep(f_min=0.1e9, f_max=3e9, n_points=7, spacing="log")
        net = _probe_network(cal_probe, straight_trace, substrate, drive, sweep)
        t_p = calibrate(net, d=D_CAL, h=H_SUB, kernel="paper")
        t_i = calibrate(net, d=D_CAL, h=H_SUB, kernel="image-theory")
        offsets = t_p.cf_db - t_i.cf_db
        assert_allclose(offsets, offsets[0], atol=1e-12)
        assert_allclose(offsets[0], -6.82, atol=0.01)

    @pytest.mark.parametrize("cf", [0.1 + 0.2, -0.0, -1e-300])
    def test_one_row_table_serves_its_frequency(self, cf):
        # its value bit for bit within the 1e-9 tolerance, an error outside it
        table = CFTable(f=np.array([2e9]), cf_db=np.array([cf]), kernel="paper",
                        d=1e-3, h=1.6e-3)
        for f in (2e9, 2e9 * (1 - 5e-10), 2e9 * (1 + 5e-10)):
            assert np.float64(table.cf_at(f)).tobytes() == np.float64(cf).tobytes()
        for f in (2e9 * (1 - 2e-9), 2e9 * (1 + 2e-9), 1e9, 0.0):
            with pytest.raises(ConfigError, match="outside calibration table span"):
                table.cf_at(f)

    def test_interpolation_log_f(self):
        table = CFTable(f=np.array([1e8, 1e10]), cf_db=np.array([40.0, 0.0]),
                        kernel="paper", d=1e-3, h=1.6e-3)
        assert_allclose(table.cf_at(1e9), 20.0, rtol=1e-12)  # log midpoint
        with pytest.raises(ConfigError):
            table.cf_at(5e7)
        with pytest.raises(ConfigError):
            table.cf_at(2e10)


class TestClosure:
    def test_extraction_recovers_closed_form_across_sweep(self, cal_probe, straight_trace,
                                                          substrate, drive):
        """Full simulation loop: S21 -> CF (image kernel) -> H from V.

        The recovered level must sit on the closed-form line field within
        0.5 dB at every frequency from 0.1 to 1 GHz.
        """
        sweep = FrequencySweep(f_min=0.1e9, f_max=1e9, n_points=10, spacing="log")
        net = _probe_network(cal_probe, straight_trace, substrate, drive, sweep)
        f, s21 = net.f, net.s21
        table = calibrate(net, d=D_CAL, h=H_SUB, kernel="image-theory")
        # port voltage from the same chain: V = S21 * sqrt(Z*P)
        v_db = 20 * np.log10(np.abs(s21) * math.sqrt(50 * drive.power))
        i_rms = math.sqrt(drive.power / 50)
        h_expect = 20 * math.log10(closed_form_line_h(D_CAL, H_SUB, i_rms))
        for fi, vi in zip(f, v_db):
            h_db = field_from_voltage(vi, table.cf_at(fi), "eq1-consistent")
            assert abs(h_db - h_expect) < 0.5
