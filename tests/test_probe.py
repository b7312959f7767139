import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nfscan import (ConfigError, DriveSpec, FrequencySweep, LoopProbe, PortWaveModel,
                    SingularityError, current_distribution, h_trace_grounded,
                    induced_emf, port_voltage, probe_transfer, synthesize_s21)
from nfscan import fields

from conftest import H_SUB, SCAN_HEIGHT

F = 0.5e9
ONE_F = FrequencySweep(f_min=F, f_max=F, n_points=1)


def s21_at(probe, trace, substrate, drive, aperture="integrated", quad_n=8):
    model = PortWaveModel(probe=probe, aperture=aperture, quad_n=quad_n)
    return probe_transfer(model, trace, substrate, ONE_F, drive)[1][0]


def uniform_kernel(direction):
    """Stand-in kernel: every physical segment gives `direction` per ampere
    at every point, and every image nothing."""
    def kernel(starts, ends, points, n_real):
        g = np.zeros((len(points), len(starts), 3))
        g[:, :n_real] = direction
        return g
    return kernel


class TestLoopFlux:
    def test_uniform_parallel(self, monkeypatch, straight_trace, substrate, drive):
        monkeypatch.setattr(fields, "segment_kernel", uniform_kernel((0, 0, 1)))
        probe = LoopProbe(center=(0, 0, 5e-3), normal=(0, 0, 1))
        s_int = s21_at(probe, straight_trace, substrate, drive)
        s_uni = s21_at(probe, straight_trace, substrate, drive, aperture="uniform")
        assert s_uni != 0
        assert_allclose(s_int, s_uni, rtol=1e-12)

    def test_uniform_perpendicular(self, monkeypatch, straight_trace, substrate, drive):
        monkeypatch.setattr(fields, "segment_kernel", uniform_kernel((1, 0, 0)))
        probe = LoopProbe(center=(0, 0, 5e-3), normal=(0, 0, 1))
        assert abs(s21_at(probe, straight_trace, substrate, drive)) < 1e-20

    def test_quadrature_16_vs_32(self, straight_trace, substrate, drive):
        # standoff side/4 = 1 mm over the trace: integrand is smooth
        probe = LoopProbe(center=(0, 0, H_SUB + SCAN_HEIGHT), normal=(0, 1, 0))
        f16, f32 = (s21_at(probe, straight_trace, substrate, drive, quad_n=n)
                    for n in (16, 32))
        assert abs(f16 - f32) / abs(f32) < 1e-3

    def test_richardson_monotone(self, straight_trace, substrate, drive):
        probe = LoopProbe(center=(0, 0, H_SUB + SCAN_HEIGHT), normal=(0, 1, 0))
        f4, f8, f16, f32 = (s21_at(probe, straight_trace, substrate, drive, quad_n=n)
                            for n in (4, 8, 16, 32))
        assert abs(f8 - f4) >= abs(f16 - f8) >= abs(f32 - f16)

    def test_quad_n_minimum(self):
        probe = LoopProbe(center=(0, 0, 5e-3), normal=(0, 0, 1))
        with pytest.raises(ConfigError):
            PortWaveModel(probe=probe, aperture="integrated", quad_n=1)

    def test_quad_n_maximum(self):
        probe = LoopProbe(center=(0, 0, 5e-3), normal=(0, 0, 1))
        PortWaveModel(probe=probe, aperture="integrated", quad_n=32)
        with pytest.raises(ConfigError, match="probe.quad_n: must be between 2 and 32"):
            PortWaveModel(probe=probe, aperture="integrated", quad_n=33)

    def test_singularity_carries_probe_location(self, straight_trace, substrate, drive):
        # odd quad_n puts a node at the center, which here sits on the filament
        probe = LoopProbe(center=(0, 0, H_SUB), normal=(0, 0, 1))
        with pytest.raises(SingularityError, match=r"probe at \[0\.0, 0\.0, 0\.0016\]"):
            s21_at(probe, straight_trace, substrate, drive, quad_n=9)

    def test_uniform_flux_small_loop_model(self, cal_model, straight_trace, substrate,
                                           drive):
        probe = cal_model.probe
        currents = current_distribution(straight_trace, F, drive, substrate)
        hy = h_trace_grounded(straight_trace, currents, probe.center)[1]
        want = synthesize_s21(port_voltage(induced_emf(hy * probe.side_s ** 2, F), cal_model),
                              drive, probe.port_z)
        assert_allclose(s21_at(probe, straight_trace, substrate, drive, aperture="uniform"),
                        want, rtol=1e-12)


class TestEmfAndPort:
    def test_reference_emf(self):
        # uniform 1 A/m over a 4 mm loop at 1 GHz
        v = induced_emf(1.6e-5, 1e9)
        assert_allclose(abs(v), 0.12633, atol=5e-6)
        # phase: -j times a positive flux
        assert_allclose(np.angle(v), -math.pi / 2, rtol=1e-12)

    def test_linearity_in_f(self):
        assert_allclose(abs(induced_emf(1.6e-5, 2e9)), 2 * abs(induced_emf(1.6e-5, 1e9)),
                        rtol=1e-12)

    def test_zero_flux(self):
        assert induced_emf(0.0, 1e9) == 0.0

    def test_port_voltage_modes(self):
        probe = LoopProbe(center=(0, 0, 1e-3), normal=(0, 1, 0))
        halving = PortWaveModel(probe=probe, loading="matched-halving")
        open_ck = PortWaveModel(probe=probe, loading="open-circuit")
        assert port_voltage(0.2, halving) == 0.1
        assert port_voltage(0.2, open_ck) == 0.2
        assert port_voltage(0.0, halving) == 0.0

    def test_bad_loading_rejected(self):
        probe = LoopProbe(center=(0, 0, 1e-3), normal=(0, 1, 0))
        with pytest.raises(ConfigError):
            PortWaveModel(probe=probe, loading="thevenin")


class TestS21:
    def test_unity_reference(self):
        s = synthesize_s21(0.0707, DriveSpec(power=1e-4), 50.0)
        assert_allclose(abs(s), 1.0, atol=2e-4)

    def test_zero(self):
        assert synthesize_s21(0.0, DriveSpec(), 50.0) == 0.0

    def test_halving_is_6db(self):
        s1 = synthesize_s21(0.2, DriveSpec(), 50.0)
        s2 = synthesize_s21(0.1, DriveSpec(), 50.0)
        assert_allclose(20 * math.log10(abs(s1) / abs(s2)), 6.02, atol=5e-3)


class TestProbeTransfer:
    def test_octave_rise(self, cal_model, straight_trace, substrate, drive):
        sweep = FrequencySweep(f_min=0.1e9, f_max=0.2e9, n_points=2)
        _, s21 = probe_transfer(cal_model, straight_trace, substrate, sweep, drive)
        rise = 20 * math.log10(abs(s21[1]) / abs(s21[0]))
        assert abs(rise - 6.02) < 0.5

    def test_slope_20db_per_decade_small_loop(self, cal_model, straight_trace, substrate,
                                              drive):
        # perimeter 16 mm < lambda/20 up to ~0.9 GHz
        sweep = FrequencySweep(f_min=0.08e9, f_max=0.8e9, n_points=11, spacing="log")
        f, s21 = probe_transfer(cal_model, straight_trace, substrate, sweep, drive)
        db = 20 * np.log10(np.abs(s21))
        slope = (db[-1] - db[0]) / math.log10(f[-1] / f[0])
        assert abs(slope - 20.0) < 1.0

    def test_monotone_increasing(self, cal_model, straight_trace, substrate, drive):
        sweep = FrequencySweep(f_min=0.1e9, f_max=1e9, n_points=8, spacing="log")
        _, s21 = probe_transfer(cal_model, straight_trace, substrate, sweep, drive)
        assert np.all(np.diff(np.abs(s21)) > 0)

    def test_drive_invariance(self, cal_model, straight_trace, substrate):
        sweep = FrequencySweep(f_min=0.5e9, f_max=0.5e9, n_points=1)
        _, s_a = probe_transfer(cal_model, straight_trace, substrate, sweep, DriveSpec())
        _, s_b = probe_transfer(cal_model, straight_trace, substrate, sweep,
                                DriveSpec(power=1e-2))
        assert_allclose(s_a, s_b, rtol=1e-12)

    def test_single_point_sweep(self, cal_model, straight_trace, substrate, drive,
                                single_point_sweep):
        f, s21 = probe_transfer(cal_model, straight_trace, substrate,
                                single_point_sweep, drive)
        assert len(f) == 1 and len(s21) == 1

    def test_chain_linearity_in_drive_amplitude(self, cal_model, straight_trace):
        # quadrupled power doubles the drive current and every chain voltage
        volts = []
        for power in (1e-4, 4e-4):
            h = h_trace_grounded(straight_trace, [math.sqrt(power / 50)], cal_model.probe.center)
            flux = (h @ np.asarray(cal_model.probe.normal)) * cal_model.probe.side_s ** 2
            volts.append(port_voltage(induced_emf(flux, 0.5e9), cal_model))
        assert_allclose(volts[1], 2 * volts[0], rtol=1e-12)

    def test_integrated_aperture_averages(self, cal_model, straight_trace, substrate,
                                          drive):
        # a 4 mm aperture averages the 1 mm-standoff peak well below its center value
        sweep = FrequencySweep(f_min=0.5e9, f_max=0.5e9, n_points=1)
        model_avg = PortWaveModel(probe=cal_model.probe, aperture="integrated")
        _, s_point = probe_transfer(cal_model, straight_trace, substrate, sweep, drive)
        _, s_avg = probe_transfer(model_avg, straight_trace, substrate, sweep, drive)
        assert abs(s_avg[0]) < 0.75 * abs(s_point[0])
