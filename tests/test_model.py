import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nfscan.model as m
from nfscan import ConfigError, ScanGrid, parse_touchstone

from conftest import grid_points


class TestGridPoints:
    def test_table3_shape(self):
        # 20 x 25 mm extent at 0.5 mm steps: 41 x 51 = 2091 points
        grid = ScanGrid(x_min=-10e-3, x_max=10e-3, y_min=-12.5e-3, y_max=12.5e-3,
                        dx=0.5e-3, dy=0.5e-3, z_height=1e-3)
        assert (grid.nx, grid.ny) == (41, 51)
        pts = grid_points(grid)
        assert pts.shape == (2091, 3)

    def test_table2_line(self):
        grid = ScanGrid(x_min=0, x_max=0, y_min=-5e-3, y_max=5e-3,
                        dx=0.5e-3, dy=0.5e-3, z_height=1e-3)
        assert grid.nx * grid.ny == 21

    def test_degenerate_single_point(self):
        grid = ScanGrid(x_min=1e-3, x_max=1e-3, y_min=2e-3, y_max=2e-3,
                        dx=1e-3, dy=1e-3, z_height=1e-3)
        pts = grid_points(grid)
        assert pts.shape == (1, 3)
        assert_allclose(pts[0], [1e-3, 2e-3, 1e-3])

    def test_row_major_ordering_and_step_multiples(self):
        grid = ScanGrid(x_min=0, x_max=2e-3, y_min=0, y_max=1e-3,
                        dx=1e-3, dy=1e-3, z_height=2e-3)
        pts = grid_points(grid)
        # y outer, x inner
        expected_xy = [(0, 0), (1e-3, 0), (2e-3, 0), (0, 1e-3), (1e-3, 1e-3), (2e-3, 1e-3)]
        for p, (x, y) in zip(pts, expected_xy):
            assert p[0] == x and p[1] == y and p[2] == 2e-3

    def test_ordering_deterministic(self):
        grid = ScanGrid(x_min=-3e-3, x_max=3e-3, y_min=-2e-3, y_max=2e-3,
                        dx=0.5e-3, dy=0.5e-3, z_height=1e-3)
        assert np.array_equal(grid_points(grid), grid_points(grid))

    def test_non_divisible_extent_rejected(self):
        with pytest.raises(ConfigError):
            ScanGrid(x_min=0, x_max=1e-3, y_min=0, y_max=1e-3,
                     dx=0.3e-3, dy=0.5e-3, z_height=1e-3)

    @pytest.mark.parametrize("kw", [
        dict(x_min=1e-3, x_max=0.0),
        dict(dx=-1e-3),
        dict(dy=0.0),
        dict(z_height=0.0),
    ])
    def test_invalid_grid(self, kw):
        base = dict(x_min=0, x_max=1e-3, y_min=0, y_max=1e-3,
                    dx=0.5e-3, dy=0.5e-3, z_height=1e-3)
        base.update(kw)
        with pytest.raises(ConfigError):
            ScanGrid(**base)


def _db_magnitudes(levels):
    """|S21| of a DB Touchstone file with one row per level (dB)."""
    rows = "".join(f"{i + 1} 0 0 {float(level)!r} 0 0 0 0 0\n" for i, level in enumerate(levels))
    return np.abs(parse_touchstone("# GHz S DB R 50\n" + rows).s21)


class TestDb20:
    """The 20*log10 scale as Touchstone DB rows decode it."""

    def test_unit_ratio(self):
        assert _db_magnitudes([0.0])[0] == 1.0

    def test_decade(self):
        assert_allclose(_db_magnitudes([-20.0]), [0.1], rtol=1e-12)

    def test_field_level(self):
        # level reused by the paper-range acceptance check; 5e-3 dB is a
        # ratio of 5.8e-4
        assert_allclose(_db_magnitudes([-15.31]), [0.1715], rtol=5.8e-4)

    def test_round_trip_12_decades(self):
        xs = np.logspace(-6, 6, 121)
        assert_allclose(_db_magnitudes(20.0 * np.log10(xs)), xs, rtol=1e-12)

    def test_array_input(self):
        assert_allclose(_db_magnitudes([0.0, 20.0]), [1.0, 10.0], rtol=1e-15)


class TestDefaults:
    """Default constants of the reference bench."""

    def test_substrate_defaults(self):
        s = m.Substrate()
        assert s.h == 1.6e-3
        assert s.eps_r == 4.6

    def test_line_and_probe_defaults(self):
        tr = m.TracePath(vertices=((0, 0, 1.6e-3), (0.1, 0, 1.6e-3)))
        assert tr.width == 3e-3
        assert tr.z0_line == 50.0
        assert tr.termination == "matched"
        pr = m.LoopProbe(normal="z")
        assert pr.side_s == 4e-3
        assert m.Z_REF == 50.0
        assert (pr.loading, pr.quad_n, pr.aperture) == ("matched-halving", 8, "uniform")

    def test_sweep_and_drive_defaults(self):
        sw = m.FrequencySweep()
        assert sw.f_min == 0.1e9 and sw.f_max == 3e9
        dr = m.DriveSpec()
        assert dr.power == 1e-4


class TestInvariants:
    def test_trace_needs_two_distinct_vertices(self):
        with pytest.raises(ConfigError):
            m.TracePath(vertices=((0, 0, 1e-3),))
        with pytest.raises(ConfigError):
            m.TracePath(vertices=((0, 0, 1e-3), (0, 0, 1e-3)))
        verts = ((0, 0, 1e-3), (1e-3, 0, 1e-3), (1e-3, 0, 1e-3), (2e-3, 0, 1e-3))
        with pytest.raises(ConfigError, match="^trace.vertices: vertex 2 is the same point as "
                                              "vertex 1$"):
            m.TracePath(vertices=verts)

    def test_trace_above_ground(self):
        with pytest.raises(ConfigError):
            m.TracePath(vertices=((0, 0, 0.0), (0.1, 0, 1.6e-3)))

    @pytest.mark.parametrize("z, k", [(2e-3, 2), (-1e-3, 1), (1e-3 + 2e-19, 3)])
    def test_trace_is_planar(self, z, k):
        # every vertex at vertex 0's height; the error names the first that is not
        verts = [(0, 0, 1e-3), (0.1, 0, 1e-3), (0.1, 0.1, 1e-3), (0.2, 0.1, 1e-3)]
        verts[k] = (*verts[k][:2], z)
        verts[3] = (*verts[3][:2], z)
        with pytest.raises(ConfigError, match=f"^trace.vertices: vertex {k} is at z = {z!r} m, "
                                              "not at vertex 0's height 0.001 m$"):
            m.TracePath(vertices=verts)

    def test_segment_square_overflow_rejected(self):
        # the library reaches the kernel without the config's length bound
        with pytest.raises(ConfigError, match="segment 0 is 1e[+]305 m long, its square"):
            m.TracePath(vertices=((0, 0, 1e-3), (1e305, 0, 1e-3)))

    def test_unknown_aperture_rejected(self):
        with pytest.raises(ConfigError, match="probe.aperture: must be one of"):
            m.LoopProbe(normal="z", aperture="disc")

    def test_unit_normal_enforced(self):
        with pytest.raises(ConfigError, match="probe.normal: must be 'x', 'y' or 'z'"):
            m.LoopProbe(normal=(0, 1, 0))

    def test_probe_has_no_pose(self):
        # the entry points place the probe; a LoopProbe takes no center
        with pytest.raises(TypeError, match="center"):
            m.LoopProbe(center=(0, 0, 1e-3), normal="z")

    def test_sweep_bounds(self):
        with pytest.raises(ConfigError):
            m.FrequencySweep(f_min=0.0, f_max=1e9)
        with pytest.raises(ConfigError):
            m.FrequencySweep(f_min=2e9, f_max=1e9)
        with pytest.raises(ConfigError):
            m.FrequencySweep(n_points=0)

    @pytest.mark.parametrize("f_min, f_max, key", [
        (math.inf, math.inf, "sweep.f_min"), (1e9, math.inf, "sweep.f_max"),
        (math.nan, 1e9, "sweep.f_min"), (1e9, math.nan, "sweep.f_max")])
    def test_sweep_rejects_non_finite_frequency(self, f_min, f_max, key):
        with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
            m.FrequencySweep(f_min=f_min, f_max=f_max)

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize("f_min, f_max", [(1e8, 3e9), (0.7e9, 0.7e9 * (1 + 2e-16)),
                                              (3.3e9, 1e15)])
    def test_one_point_sweep_is_f_min(self, spacing, f_min, f_max):
        # one point is f_min exactly, bit for bit, whatever f_max is
        f = m.FrequencySweep(f_min=f_min, f_max=f_max, n_points=1, spacing=spacing).frequencies()
        assert f.dtype == float and f.tobytes() == np.array([f_min]).tobytes()

    def test_drive_positive(self):
        with pytest.raises(ConfigError):
            m.DriveSpec(power=0.0)


class TestReadonly:
    def test_writable_array_is_copied(self):
        a = np.array([1.0, 2.0])
        out = m.readonly(a, float)
        a[0] = np.nan
        assert out.tolist() == [1.0, 2.0]
        assert not out.flags.writeable

    def test_read_only_owner_and_its_views_are_kept(self):
        a = np.arange(6.0)
        a.flags.writeable = False
        assert m.readonly(a, float) is a
        view = a.reshape(2, 3)[1]
        assert m.readonly(view, float) is view

    def test_read_only_view_of_writable_array_is_copied(self):
        a = np.arange(3.0)
        view = a[:]
        view.flags.writeable = False
        out = m.readonly(view, float)
        a[0] = 7.0
        assert out is not view and out.tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("a, dtype", [([1, 2], float), (np.arange(2), float),
                                          (np.ones(2), complex)])
    def test_other_inputs_are_converted(self, a, dtype):
        out = m.readonly(a, dtype)
        assert out.dtype == dtype and out.tolist() == list(np.asarray(a, dtype=dtype))
        assert not out.flags.writeable
