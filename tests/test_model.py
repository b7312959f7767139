import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nfscan.model as m
from nfscan import ConfigError, ScanGrid, db20, grid_points, undb20


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


class TestDb20:
    def test_unit_ratio(self):
        assert db20(1.0, 1.0) == 0.0

    def test_decade(self):
        assert_allclose(db20(0.1, 1.0), -20.0, rtol=1e-12)

    def test_field_level(self):
        # level reused by the paper-range acceptance check
        assert_allclose(db20(0.1715), -15.31, atol=5e-3)

    def test_round_trip_12_decades(self):
        xs = np.logspace(-6, 6, 121)
        back = undb20(db20(xs))
        assert_allclose(back, xs, rtol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError, match="cannot express in dB"):
            db20(bad)

    def test_array_input(self):
        assert_allclose(db20(np.array([1.0, 10.0])), [0.0, 20.0], atol=1e-12)


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
        pr = m.LoopProbe(center=(0, 0, 1e-3), normal=(0, 0, 1))
        assert pr.side_s == 4e-3
        assert pr.port_z == 50.0

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

    def test_trace_above_ground(self):
        with pytest.raises(ConfigError):
            m.TracePath(vertices=((0, 0, 0.0), (0.1, 0, 1.6e-3)))

    def test_unit_normal_enforced(self):
        with pytest.raises(ConfigError):
            m.LoopProbe(center=(0, 0, 1e-3), normal=(0, 0.5, 0))

    def test_sweep_bounds(self):
        with pytest.raises(ConfigError):
            m.FrequencySweep(f_min=0.0, f_max=1e9)
        with pytest.raises(ConfigError):
            m.FrequencySweep(f_min=2e9, f_max=1e9)
        with pytest.raises(ConfigError):
            m.FrequencySweep(n_points=0)

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
