import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nfscan import (ConfigError, DriveSpec, FrequencySweep, LoopProbe, SingularityError,
                    TracePath, current_distribution, probe_transfer)
from nfscan import fields

from conftest import H_SUB, MU0, SCAN_HEIGHT, grounded_h, port_oracle
from kernel_reference import segment_arrays, stokes_flux_z

F = 0.5e9
ONE_F = FrequencySweep(f_min=F, f_max=F, n_points=1)


#: A probe center over the straight trace: 5 mm above z=0, and at the
#: 1 mm calibration height.
HIGH = (0.0, 0.0, 5e-3)
OVER = (0.0, 0.0, H_SUB + SCAN_HEIGHT)


def s21_at(probe, center, trace, substrate, drive, aperture="integrated", quad_n=8):
    probe = replace(probe, aperture=aperture, quad_n=quad_n)
    return probe_transfer(trace, substrate, probe, center, ONE_F, drive)[1][0]


def uniform_kernel(direction):
    """Stand-in kernel: every physical segment gives the field `direction`
    per ampere at every point, and every image nothing."""
    def kernel(vertices, points, axis):
        return np.full((len(vertices) - 1, np.broadcast(*points).size),
                       float(direction["xyz".index(axis)]))
    return kernel


class TestLoopFlux:
    def test_uniform_parallel(self, monkeypatch, straight_trace, substrate, drive):
        monkeypatch.setattr(fields, "segment_kernel", uniform_kernel((0, 0, 1)))
        probe = LoopProbe(normal="z")
        s_int = s21_at(probe, HIGH, straight_trace, substrate, drive)
        s_uni = s21_at(probe, HIGH, straight_trace, substrate, drive, aperture="uniform")
        assert s_uni != 0
        assert_allclose(s_int, s_uni, rtol=1e-12)

    def test_uniform_perpendicular(self, monkeypatch, straight_trace, substrate, drive):
        monkeypatch.setattr(fields, "segment_kernel", uniform_kernel((1, 0, 0)))
        probe = LoopProbe(normal="z")
        assert abs(s21_at(probe, HIGH, straight_trace, substrate, drive)) < 1e-20

    def test_quadrature_16_vs_32(self, straight_trace, substrate, drive):
        # standoff side/4 = 1 mm over the trace: integrand is smooth
        probe = LoopProbe(normal="y")
        f16, f32 = (s21_at(probe, OVER, straight_trace, substrate, drive, quad_n=n)
                    for n in (16, 32))
        assert abs(f16 - f32) / abs(f32) < 1e-3

    def test_richardson_monotone(self, straight_trace, substrate, drive):
        probe = LoopProbe(normal="y")
        f4, f8, f16, f32 = (s21_at(probe, OVER, straight_trace, substrate, drive, quad_n=n)
                            for n in (4, 8, 16, 32))
        assert abs(f8 - f4) >= abs(f16 - f8) >= abs(f32 - f16)

    @pytest.mark.parametrize("y", [0.5e-3, 1e-3, 3e-3])
    def test_node_grid_matches_stokes_flux(self, substrate, drive, y):
        # table3's trace (30 segments of 1 mm) at 2 GHz, a z-normal loop 1 mm
        # above it and off its centreline: the node grid's flux against the
        # loop integral of A (64 nodes per edge).  Measured: quad_n 32 within
        # 2.1e-12 dB, quad_n 16 -1.4e-5 / -1.5e-6 / -6.8e-14 dB at y = 0.5 /
        # 1 / 3 mm
        trace = TracePath(vertices=[(x, 0.0, H_SUB) for x in np.linspace(-15e-3, 15e-3, 31)])
        f = 2e9
        center = (0.0, y, H_SUB + SCAN_HEIGHT)
        probe = LoopProbe(normal="z", aperture="integrated")
        currents = current_distribution(trace, f, drive, substrate)
        flux = stokes_flux_z(*segment_arrays(trace), currents, center, probe.side_s)
        want = abs(port_oracle(flux, f, probe, drive)[1])
        sweep = FrequencySweep(f_min=f, f_max=f, n_points=1)
        for quad_n, tol_db in ((32, 1e-9), (16, 1e-4)):
            got = probe_transfer(trace, substrate, replace(probe, quad_n=quad_n), center, sweep,
                                 drive)[1][0]
            assert abs(20 * math.log10(abs(got) / want)) <= tol_db

    def test_quad_n_minimum(self):
        with pytest.raises(ConfigError):
            LoopProbe(normal="z", aperture="integrated", quad_n=1)

    def test_quad_n_maximum(self):
        LoopProbe(normal="z", aperture="integrated", quad_n=32)
        with pytest.raises(ConfigError, match="probe.quad_n: must be between 2 and 32"):
            LoopProbe(normal="z", aperture="integrated", quad_n=33)

    def test_singularity_carries_probe_location(self, straight_trace, substrate, drive):
        # odd quad_n puts a node at the center, which here sits on the filament
        with pytest.raises(SingularityError, match=r"probe at \[0\.0, 0\.0, 0\.0016\]"):
            s21_at(LoopProbe(normal="z"), (0, 0, H_SUB), straight_trace, substrate, drive,
                   quad_n=9)

    def test_uniform_flux_small_loop_model(self, cal_probe, cal_center, straight_trace,
                                           substrate, drive):
        probe = cal_probe
        currents = current_distribution(straight_trace, F, drive, substrate)
        hy = grounded_h(straight_trace, currents, cal_center)[1]
        want = port_oracle(hy * probe.side_s ** 2, F, probe, drive)[1]
        assert_allclose(s21_at(probe, cal_center, straight_trace, substrate, drive,
                               aperture="uniform"), want, rtol=1e-12)


def fed_s21(monkeypatch, trace, substrate, drive, freqs, per_amp, **port):
    """(S21, H) per frequency of a uniform y-normal probe whose loop sees
    H = `per_amp` x the current of the trace's one segment, through the
    `uniform_kernel` stand-in: the chain's port stage fed a known field."""
    monkeypatch.setattr(fields, "segment_kernel", uniform_kernel((0, per_amp, 0)))
    probe = LoopProbe(normal="y", **port)
    sweep = FrequencySweep(f_min=freqs[0], f_max=freqs[-1], n_points=len(freqs))
    f, s21 = probe_transfer(trace, substrate, probe, HIGH, sweep, drive)
    h = [per_amp * current_distribution(trace, fi, drive, substrate)[0] for fi in f]
    return s21, np.array(h)


class TestEmfAndPort:
    def test_reference_emf(self, monkeypatch, straight_trace, substrate, drive):
        # 1 A/m over a 4 mm loop at 1 GHz, open circuit: V is the EMF
        i0 = math.sqrt(drive.power / straight_trace.z0_line)
        s21, h = fed_s21(monkeypatch, straight_trace, substrate, drive, [1e9], 1 / i0,
                         loading="open-circuit")
        assert_allclose(abs(h), 1.0, rtol=1e-12)
        assert_allclose(abs(s21) * math.sqrt(50 * drive.power), 0.12633, atol=5e-6)
        # phase: -j times the flux
        assert_allclose(np.angle(s21 / h), -math.pi / 2, rtol=1e-12)

    def test_linearity_in_f(self, monkeypatch, straight_trace, substrate, drive):
        s21, h = fed_s21(monkeypatch, straight_trace, substrate, drive, [1e9, 2e9], 1.0)
        assert_allclose(abs(s21[1] / h[1]), 2 * abs(s21[0] / h[0]), rtol=1e-12)

    def test_zero_flux(self, monkeypatch, straight_trace, substrate, drive):
        for loading in ("matched-halving", "open-circuit"):
            s21, _ = fed_s21(monkeypatch, straight_trace, substrate, drive, [1e9], 0.0,
                             loading=loading)
            assert s21[0] == 0.0

    def test_loading_modes(self, monkeypatch, straight_trace, substrate, drive):
        halving, _ = fed_s21(monkeypatch, straight_trace, substrate, drive, [1e9], 1.0)
        open_ck, h = fed_s21(monkeypatch, straight_trace, substrate, drive, [1e9], 1.0,
                             loading="open-circuit")
        assert halving[0] != 0 and open_ck[0] == 2 * halving[0]
        probe = LoopProbe(normal="y", loading="open-circuit")
        assert_allclose(open_ck, port_oracle(h * probe.side_s ** 2, 1e9, probe, drive)[1],
                        rtol=1e-12)

    def test_bad_loading_rejected(self):
        with pytest.raises(ConfigError, match="probe.loading: must be one of"):
            LoopProbe(normal="y", loading="thevenin")


class TestS21:
    def test_unity_reference(self, monkeypatch, straight_trace, substrate):
        # the field whose port voltage is sqrt(50 ohm * P) gives |S21| = 1
        for power in (1e-4, 1e-2, 1.0):
            drive = DriveSpec(power=power)
            i0 = math.sqrt(power / straight_trace.z0_line)
            h = 2 * math.sqrt(50.0 * power) / (2 * math.pi * 1e9 * MU0 * 4e-3 ** 2)
            s21, _ = fed_s21(monkeypatch, straight_trace, substrate, drive, [1e9], h / i0)
            assert_allclose(abs(s21[0]), 1.0, rtol=1e-12)

    def test_zero(self, straight_trace, substrate, drive):
        # a z-normal loop right over a trace along x sees no Hz
        probe = LoopProbe(normal="z")
        assert s21_at(probe, OVER, straight_trace, substrate, drive, aperture="uniform") == 0.0

    def test_halving_is_6db(self, cal_probe, straight_trace, substrate, drive):
        for aperture in ("uniform", "integrated"):
            s1 = s21_at(replace(cal_probe, loading="open-circuit"), OVER, straight_trace,
                        substrate, drive, aperture=aperture)
            s2 = s21_at(cal_probe, OVER, straight_trace, substrate, drive, aperture=aperture)
            assert s1 == 2 * s2
            assert_allclose(20 * math.log10(abs(s1) / abs(s2)), 6.02, atol=5e-3)


class TestProbeTransfer:
    def test_octave_rise(self, cal_probe, straight_trace, substrate, drive):
        sweep = FrequencySweep(f_min=0.1e9, f_max=0.2e9, n_points=2)
        _, s21 = probe_transfer(straight_trace, substrate, cal_probe, OVER, sweep, drive)
        rise = 20 * math.log10(abs(s21[1]) / abs(s21[0]))
        assert abs(rise - 6.02) < 0.5

    def test_slope_20db_per_decade_small_loop(self, cal_probe, straight_trace, substrate,
                                              drive):
        # perimeter 16 mm < lambda/20 up to ~0.9 GHz
        sweep = FrequencySweep(f_min=0.08e9, f_max=0.8e9, n_points=11, spacing="log")
        f, s21 = probe_transfer(straight_trace, substrate, cal_probe, OVER, sweep, drive)
        db = 20 * np.log10(np.abs(s21))
        slope = (db[-1] - db[0]) / math.log10(f[-1] / f[0])
        assert abs(slope - 20.0) < 1.0

    def test_monotone_increasing(self, cal_probe, straight_trace, substrate, drive):
        sweep = FrequencySweep(f_min=0.1e9, f_max=1e9, n_points=8, spacing="log")
        _, s21 = probe_transfer(straight_trace, substrate, cal_probe, OVER, sweep, drive)
        assert np.all(np.diff(np.abs(s21)) > 0)

    def test_drive_invariance(self, cal_probe, straight_trace, substrate):
        sweep = FrequencySweep(f_min=0.5e9, f_max=0.5e9, n_points=1)
        _, s_a = probe_transfer(straight_trace, substrate, cal_probe, OVER, sweep, DriveSpec())
        _, s_b = probe_transfer(straight_trace, substrate, cal_probe, OVER, sweep,
                                DriveSpec(power=1e-2))
        assert_allclose(s_a, s_b, rtol=1e-12)

    def test_single_point_sweep(self, cal_probe, straight_trace, substrate, drive,
                                single_point_sweep):
        f, s21 = probe_transfer(straight_trace, substrate, cal_probe, OVER,
                                single_point_sweep, drive)
        assert len(f) == 1 and len(s21) == 1

    def test_chain_linearity_in_drive_amplitude(self, cal_probe, straight_trace):
        # quadrupled power doubles the drive current and every chain voltage
        volts = []
        for power in (1e-4, 4e-4):
            h = grounded_h(straight_trace, [math.sqrt(power / 50)], OVER)
            flux = h["xyz".index(cal_probe.normal)] * cal_probe.side_s ** 2
            volts.append(port_oracle(flux, 0.5e9, cal_probe, DriveSpec(power=power))[0])
        assert_allclose(volts[1], 2 * volts[0], rtol=1e-12)

    def test_integrated_aperture_averages(self, cal_probe, straight_trace, substrate,
                                          drive):
        # a 4 mm aperture averages the 1 mm-standoff peak well below its center value
        sweep = FrequencySweep(f_min=0.5e9, f_max=0.5e9, n_points=1)
        probe_avg = replace(cal_probe, aperture="integrated")
        _, s_point = probe_transfer(straight_trace, substrate, cal_probe, OVER, sweep, drive)
        _, s_avg = probe_transfer(straight_trace, substrate, probe_avg, OVER, sweep, drive)
        assert abs(s_avg[0]) < 0.75 * abs(s_point[0])

    @pytest.mark.parametrize("center", [(math.nan, 0.0, 2.6e-3), (0.0, math.inf, 2.6e-3),
                                        (-math.inf, 0.0, 2.6e-3), (0.0, 0.0, math.nan),
                                        (0.0, 0.0, math.inf), (0.0, 0.0, 0.0),
                                        (0.0, 0.0, -1e-3)])
    @pytest.mark.parametrize("aperture", ["uniform", "integrated"])
    def test_center_off_the_field_domain_rejected(self, monkeypatch, cal_probe, straight_trace,
                                                  substrate, drive, center, aperture):
        # not finite, or not above the ground plane: refused, naming the
        # center, before any kernel pass
        calls = []
        monkeypatch.setattr(fields, "segment_kernel", lambda *args: calls.append(args))
        probe = replace(cal_probe, aperture=aperture)
        with pytest.raises(ConfigError) as err:
            probe_transfer(straight_trace, substrate, probe, center, ONE_F, drive)
        assert str(err.value) == (f"field point {list(center)} must be finite "
                                  "and above the ground plane z=0")
        assert not calls
