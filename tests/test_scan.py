import copy
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from nfscan import (CFTable, ConfigError, DriveSpec, FieldMap, FrequencySweep, LoopProbe,
                    ScanGrid, SingularityError, Substrate, TracePath,
                    apply_calibration_to_scan, current_distribution, extract_profile,
                    map_stats, probe_transfer, run_simulated_scan)
from nfscan import fields, scan
from nfscan.config import build_config
from nfscan.fields import EPS_GEOM, PAIRS
from nfscan.model import Z_REF
from nfscan.scan import MapStats, ScanResult

from conftest import H_SUB, MU0, SCAN_HEIGHT, grid_points, port_oracle, rng
from kernel_reference import segment_arrays, segment_field_sum


def run_table2(probe, straight_trace, substrate, drive, table2_grid, f=2e9):
    sweep = FrequencySweep(f_min=f, f_max=f, n_points=1)
    return run_simulated_scan(straight_trace, substrate, probe, table2_grid,
                              sweep, drive)


def db_of(values):
    return 20 * np.log10(np.abs(values))


class TestRunSimulatedScan:
    def test_table2_line_scan(self, cal_probe, straight_trace, substrate, drive,
                              table2_grid):
        res = run_table2(cal_probe, straight_trace, substrate, drive, table2_grid)
        assert res.hfield[0].shape == (21, 1)
        peak = db_of(res.hfield[0]).max()
        assert -20.0 <= peak <= 0.0

    def test_observables_consistent(self, cal_probe, straight_trace, substrate, drive,
                                    table2_grid):
        res = run_table2(cal_probe, straight_trace, substrate, drive, table2_grid)
        s21 = res.s21[0]
        v = res.vport[0]
        # S21 = V / sqrt(Z*P) pointwise
        assert_allclose(s21, v / math.sqrt(50 * drive.power), rtol=1e-12)
        # V = -j*2*pi*f*mu0 * Hy * area / 2 pointwise (uniform aperture, halving)
        emf = -1j * 2 * math.pi * 2e9 * 4e-7 * math.pi * res.hfield[0] * (4e-3) ** 2
        assert_allclose(v, emf / 2, rtol=1e-12)

    def test_single_point_everything(self, cal_probe, straight_trace, substrate, drive):
        grid = ScanGrid(x_min=0, x_max=0, y_min=0, y_max=0, dx=1e-3, dy=1e-3,
                        z_height=SCAN_HEIGHT)
        res = run_table2(cal_probe, straight_trace, substrate, drive, grid, f=1e9)
        assert res.s21[0].shape == (1, 1)
        assert res.vport[0].shape == (1, 1)

    def test_drive_scaling_linearity(self, cal_probe, straight_trace, substrate,
                                     table2_grid):
        weak = run_table2(cal_probe, straight_trace, substrate, DriveSpec(power=1e-4),
                          table2_grid)
        strong = run_table2(cal_probe, straight_trace, substrate, DriveSpec(power=1e-2),
                            table2_grid)
        assert_allclose(strong.vport[0], 10 * weak.vport[0], rtol=1e-12)
        assert_allclose(strong.s21[0], weak.s21[0], rtol=1e-12)

    def test_arrays_read_only_and_shared(self, cal_probe, straight_trace, substrate, drive,
                                         table2_grid):
        res = run_table2(cal_probe, straight_trace, substrate, drive, table2_grid)
        for values in (res.freqs, res.s21, res.vport, res.hfield):
            with pytest.raises(ValueError, match="read-only"):
                values.flat[0] = 0
        # the scan's own buffer is kept, not copied
        assert res.s21.base is res.vport.base is res.hfield.base is not None

    def test_caller_arrays_are_copied(self, table2_grid):
        maps = np.ones((1, 21, 1), dtype=complex)
        res = ScanResult(freqs=np.array([1e9]), grid=table2_grid, component="hy",
                         s21=maps, vport=maps, hfield=maps)
        maps[0, 0, 0] = np.nan
        assert np.isfinite(res.s21).all() and np.isfinite(res.hfield).all()

    def test_singularity_names_grid_point(self, cal_probe, straight_trace, substrate,
                                          drive):
        # scan surface grazing the conductor plane: points right on the filament
        grid = ScanGrid(x_min=-1e-3, x_max=1e-3, y_min=0, y_max=0, dx=1e-3, dy=1e-3,
                        z_height=1e-12)
        with pytest.raises(SingularityError, match=r"grid point \(ix=0, iy=0\)"):
            run_table2(cal_probe, straight_trace, substrate, drive, grid)

    def test_node_singularity_names_grid_point(self, cal_probe, substrate, drive,
                                               table2_grid, monkeypatch):
        # a trace through one quadrature node of the probes in grid row 15; at
        # 2**16 pairs, 1,025 points per probe and 2 segments a block holds 15
        # rows of 2 probes, so row 15 opens the second block and the index
        # must be rebased
        monkeypatch.setattr(fields, "PAIRS", 2 ** 16)
        probe = replace(cal_probe, aperture="integrated", quad_n=32)
        grid = replace(table2_grid, x_max=table2_grid.dx)
        assert fields.PAIRS // 2 // (1 + 32 * 32) // grid.nx == 15
        half = probe.side_s / 2
        y = grid.y_coords()[15] + half * np.polynomial.legendre.leggauss(32)[0][3]
        z = SCAN_HEIGHT + H_SUB
        trace = TracePath(vertices=((-0.1, y, z), (0.1, y, z)))
        with pytest.raises(SingularityError, match=r"grid point \(ix=0, iy=15\)") as err:
            run_table2(probe, trace, substrate, drive, grid)
        assert err.value.point == 15 * grid.nx

    def test_first_probe_with_any_singular_point_is_named(self, cal_probe, substrate,
                                                           drive):
        # at the trace height, the node 1.55 mm right of x = 1 mm lies on the
        # trace, which starts at x = 2.5 mm; the center x = 3 mm lies on it too
        z = H_SUB + SCAN_HEIGHT
        trace = TracePath(vertices=((2.5e-3, 0, z), (10e-3, 0, z), (10e-3, 5e-3, z)))
        grid = ScanGrid(x_min=0, x_max=3e-3, y_min=0, y_max=0, dx=1e-3, dy=1e-3,
                        z_height=SCAN_HEIGHT)
        probe = replace(cal_probe, aperture="integrated", quad_n=3)
        with pytest.raises(SingularityError, match=r"grid point \(ix=1, iy=0\)"):
            run_table2(probe, trace, substrate, drive, grid)

    def test_integrated_aperture_scan_runs(self, cal_probe, straight_trace, substrate,
                                           drive, table2_grid):
        probe = replace(cal_probe, aperture="integrated", quad_n=4)
        res = run_table2(probe, straight_trace, substrate, drive, table2_grid)
        # averaged |V| differs from the small-loop model over a peaked field
        res_u = run_table2(cal_probe, straight_trace, substrate, drive, table2_grid)
        assert not np.allclose(np.abs(res.vport[0]), np.abs(res_u.vport[0]), rtol=0.05)

    def test_determinism_across_runs_and_threads(self, cal_probe, straight_trace,
                                                 substrate, drive, table2_grid):
        a = run_table2(cal_probe, straight_trace, substrate, drive, table2_grid)
        b = run_table2(cal_probe, straight_trace, substrate, drive, table2_grid)
        with ThreadPoolExecutor(max_workers=2) as pool:
            c, d = pool.map(lambda _: run_table2(cal_probe, straight_trace, substrate, drive,
                                                 table2_grid), range(2))
        for x, y in ((a, b), (a, c), (a, d)):
            assert x.vport[0].tobytes() == y.vport[0].tobytes()
            assert x.s21[0].tobytes() == y.s21[0].tobytes()
            assert x.hfield[0].tobytes() == y.hfield[0].tobytes()

    def test_probe_transfer_is_one_point_scan(self, cal_probe, straight_trace, substrate,
                                              drive):
        grid = ScanGrid(x_min=0, x_max=0, y_min=0, y_max=0, dx=1e-3, dy=1e-3,
                        z_height=SCAN_HEIGHT)
        sweep = FrequencySweep(f_min=0.1e9, f_max=3e9, n_points=5)
        center = (0.0, 0.0, substrate.h + SCAN_HEIGHT)
        for probe in (cal_probe, replace(cal_probe, aperture="integrated")):
            res = run_simulated_scan(straight_trace, substrate, probe, grid, sweep, drive)
            _, s21 = probe_transfer(straight_trace, substrate, probe, center, sweep, drive)
            assert s21.tobytes() == np.array([m[0, 0] for m in res.s21]).tobytes()

    def test_scan_points_are_grid_points(self, monkeypatch, cal_probe, straight_trace,
                                         substrate, drive):
        # the grid lines the scan hands the chain, broadcast, are grid_points
        # lifted by the substrate height, bit for bit
        seen = []
        chain = scan._probe_chain

        def spy(trace, substrate, probe, centers, *args):
            seen.append(centers)
            return chain(trace, substrate, probe, centers, *args)

        monkeypatch.setattr(scan, "_probe_chain", spy)
        grid = ScanGrid(x_min=-2.1e-3, x_max=3.5e-3, y_min=-1.3e-3, y_max=2.3e-3, dx=0.7e-3,
                        dy=0.4e-3, z_height=SCAN_HEIGHT)
        run_table2(cal_probe, straight_trace, substrate, drive, grid)
        want = grid_points(grid)
        want[:, 2] += substrate.h
        got = np.stack(np.broadcast_arrays(*map(np.asarray, seen[0])), axis=-1).reshape(-1, 3)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_kernel_calls_independent_of_sweep_length(self, monkeypatch, cal_probe,
                                                      straight_trace, substrate, drive,
                                                      table2_grid):
        calls = []       # points per kernel call, one call for the trace and its image
        kernel = fields.segment_kernel

        def counted(vertices, points, *args, **kwargs):
            g = kernel(vertices, points, *args, **kwargs)
            npts = np.broadcast(*points).size
            # the fast path: one field component, never a 3-vector per pair
            assert g.shape == (len(vertices) - 1, npts)
            calls.append(npts)
            return g

        monkeypatch.setattr(fields, "segment_kernel", counted)
        nseg = 2 * straight_trace.n_segments
        probes = [(cal_probe, 1)] + [
            (replace(cal_probe, aperture="integrated", quad_n=q), 1 + q * q)
            for q in (2, 8, 32)]
        for probe, m in probes:
            counts = []
            for n in (1, 31):
                calls.clear()
                sweep = FrequencySweep(f_min=0.1e9, f_max=3e9, n_points=n)
                run_simulated_scan(straight_trace, substrate, probe, table2_grid, sweep, drive)
                counts.append(len(calls))
                # whole probes per call, within the pair budget or one probe
                assert all(k % m == 0 and (k * nseg <= PAIRS or k == m) for k in calls)
            assert counts[0] == counts[1] > 0
            calls.clear()
            probe_transfer(straight_trace, substrate, probe, (0, 0, 5e-3), sweep, drive)
            assert calls == [m]


lattice = st.integers(-24, 24).map(lambda k: k * 0.25e-3)
level = st.integers(1, 12).map(lambda k: k * 0.25e-3)


@st.composite
def scan_cases(draw):
    """A planar trace, a small grid, a probe and a sweep of 1-7
    frequencies, on a 0.25 mm lattice."""
    z = draw(level)
    verts = [(draw(lattice), draw(lattice), z)]
    for _ in range(draw(st.integers(1, 4))):
        xy = draw(st.tuples(lattice, lattice).filter(lambda p: p != verts[-1][:2]))
        verts.append((*xy, z))
    st_step = st.sampled_from((0.25e-3, 0.5e-3, 1e-3))
    dx, dy = draw(st_step), draw(st_step)
    # the grid passes over a vertex, so points line up with segment ends
    vx, vy, _ = draw(st.sampled_from(verts))
    x0, y0 = vx - dx * draw(st.integers(0, 3)), vy - dy * draw(st.integers(0, 3))
    grid = ScanGrid(x_min=x0, x_max=x0 + dx * draw(st.integers(0, 4)), y_min=y0,
                    y_max=y0 + dy * draw(st.integers(0, 4)), dx=dx, dy=dy, z_height=draw(level))
    normal = draw(st.sampled_from(("x", "y", "z")))
    probe = LoopProbe(normal=normal, side_s=draw(st.sampled_from((2e-3, 4e-3))),
                      aperture=draw(st.sampled_from(("uniform", "integrated"))),
                      quad_n=draw(st.integers(2, 8)))
    f0 = draw(st.floats(0.1e9, 3e9))
    sweep = FrequencySweep(f_min=f0, f_max=f0 + draw(st.floats(0.0, 2e9)),
                           n_points=draw(st.integers(1, 7)))
    return TracePath(vertices=tuple(verts)), grid, probe, sweep


def reference_scan(trace, substrate, probe, grid, sweep, drive):
    """(H, V, S21) per frequency from the per-segment loop, images and
    quadrature, each with its tolerance: 1e-12 of the largest |H| at any
    evaluated point, carried through the chain.  None when a point is
    within EPS_GEOM of a filament."""
    centers = grid_points(grid)
    centers[:, 2] += substrate.h
    points = centers
    normal = np.eye(3)["xyz".index(probe.normal)]
    area = probe.side_s ** 2
    if probe.aperture == "integrated":
        x, w = np.polynomial.legendre.leggauss(probe.quad_n)
        half = probe.side_s / 2
        gx, gy = np.meshgrid(half * x, half * x, indexing="ij")
        offsets = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
        weights = np.outer(w, w).ravel() * half * half
        points = np.vstack([centers, (centers[:, None, :] + offsets).reshape(-1, 3)])
    # the trace's segments, then their images mirrored through z=0
    starts, ends = segment_arrays(trace)
    mirror = np.array([1.0, 1.0, -1.0])
    starts, ends = np.vstack([starts, starts * mirror]), np.vstack([ends, ends * mirror])
    fields_at = []
    for f in sweep.frequencies():
        cur = current_distribution(trace, f, drive, substrate)
        h = np.empty((len(points), 3), dtype=complex)
        if segment_field_sum(starts, ends, np.concatenate([cur, -cur]), points,
                             EPS_GEOM, h) >= 0:
            return None
        fields_at.append((f, h))
    tol_h = 1e-12 * max(np.abs(h).max() for _, h in fields_at)
    out = []
    for f, h in fields_at:
        hn = h @ normal
        h0 = hn[:len(centers)]
        if probe.aperture == "integrated":
            flux = hn[len(centers):].reshape(len(centers), -1) @ weights
        else:
            flux = h0 * area
        v, s21 = port_oracle(flux, f, probe, drive)
        tol_v, tol_s21 = np.abs(port_oracle(tol_h * area, f, probe, drive))
        out.append(((h0, tol_h), (v, tol_v), (s21, tol_s21)))
    return out


with open(os.path.join(os.path.dirname(__file__), "..", "configs", "table2.json")) as _fh:
    TABLE2_DOC = json.load(_fh)


class TestDriveLinearity:
    @settings(max_examples=25, deadline=None)
    @given(st.floats(-80.0, 40.0), st.floats(-80.0, 40.0))
    def test_observables_scale_with_drive_amplitude(self, dbm1, dbm2):
        """Through config, currents and probe chain: S21 does not depend on
        the drive level, V and H scale with sqrt(P2 / P1)."""
        runs = []
        for dbm in (dbm1, dbm2):
            doc = copy.deepcopy(TABLE2_DOC)
            doc["drive"]["power_dbm"] = dbm
            cfg = build_config(doc)
            runs.append((cfg.drive.power, run_simulated_scan(cfg.trace, cfg.substrate, cfg.probe,
                                                             cfg.grid, cfg.sweep, cfg.drive)))
        (p1, a), (p2, b) = runs
        scale = math.sqrt(p2 / p1)
        assert_allclose(b.s21, a.s21, rtol=1e-12, atol=0)
        assert_allclose(b.vport, scale * a.vport, rtol=1e-12, atol=0)
        assert_allclose(b.hfield, scale * a.hfield, rtol=1e-12, atol=0)


class TestChainMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(scan_cases())
    def test_scan_matches_reference_loop(self, case):
        trace, grid, probe, sweep = case
        substrate, drive = Substrate(), DriveSpec()
        want = reference_scan(trace, substrate, probe, grid, sweep, drive)
        if want is None:
            with pytest.raises(SingularityError):
                run_simulated_scan(trace, substrate, probe, grid, sweep, drive)
            return
        res = run_simulated_scan(trace, substrate, probe, grid, sweep, drive)
        for k, maps in enumerate((res.hfield, res.vport, res.s21)):
            for values, w in zip(maps, want):
                assert_allclose(values.ravel(), w[k][0], rtol=0, atol=w[k][1])


def random_block(r, nseg, npts):
    """A (nseg, npts) kernel block of both signs over 16 decades, one
    value in ten a signed zero."""
    g = r.standard_normal((nseg, npts)) * 10.0 ** r.integers(-8, 8, (nseg, npts))
    zero = r.random(g.shape) < 0.1
    g[zero] = np.copysign(0.0, r.standard_normal(zero.sum()))
    return g


class TestContractionOrder:
    """The chain contracts each kernel block in the kernel's (segments,
    points) layout.  Its sums must round as the former (points, segments)
    forms did, byte for byte, on each numpy the package supports."""

    def test_center_rows_match_points_major_form(self, monkeypatch, substrate, drive):
        r = rng(29)
        freqs = np.array([0.3e9, 1.1e9, 2.9e9])
        nf = len(freqs)
        for nseg in (1, 2, 7, 30):
            xs = np.linspace(-0.05, 0.05, nseg + 1)
            trace = TracePath(vertices=[(x, 0.0, H_SUB) for x in xs])
            currents = np.stack([current_distribution(trace, f, drive, substrate) for f in freqs],
                                axis=1)
            cur = np.concatenate([currents.real, currents.imag], axis=1)
            for aperture, m in (("uniform", 1), ("integrated", 10)):
                probe = LoopProbe(normal="y", aperture=aperture, quad_n=3)
                blocks, npts = [], 0
                for size in (17, 40, 3):
                    blocks.append((npts, npts + size, random_block(r, nseg, size * m)))
                    npts += size
                monkeypatch.setattr(fields, "kernel_blocks", lambda *args: iter(blocks))
                centers = (np.arange(npts, dtype=float)[None, :], np.zeros((1, 1)), np.ones((1, 1)))
                hfield = scan._probe_chain(trace, substrate, probe, centers, freqs, drive)[0]
                for lo, hi, g in blocks:
                    rows = np.ascontiguousarray(g.T).reshape(hi - lo, m, nseg)
                    h = np.einsum("ps,sf->pf", rows[:, 0], cur)
                    assert hfield[:, lo:hi].tobytes() == (h[:, :nf] + 1j * h[:, nf:]).T.tobytes()

    def test_port_stage_matches_per_frequency_loop(self, monkeypatch, substrate, drive):
        # V and S21 from the chain's whole-sweep array operations, against
        # the per-frequency loop they replaced, byte for byte
        r = rng(37)
        freqs = np.array([0.3e9, 1.1e9, 2.9e9])
        nf = len(freqs)
        trace = TracePath(vertices=[(x, 0.0, H_SUB) for x in np.linspace(-0.05, 0.05, 8)])
        centers = (np.arange(20, dtype=float)[None, :], np.zeros((1, 1)), np.ones((1, 1)))
        # 5.763 mm: a side whose side ** 2 (libm pow) and side * side can differ
        for aperture, m, side in (("uniform", 1, 4e-3), ("integrated", 10, 4e-3),
                                  ("uniform", 1, 5.763e-3)):
            for loading in ("matched-halving", "open-circuit"):
                probe = LoopProbe(normal="y", side_s=side, aperture=aperture, quad_n=3,
                                  loading=loading)
                blocks = [(0, 20, random_block(r, trace.n_segments, 20 * m))]
                monkeypatch.setattr(fields, "kernel_blocks", lambda *args: iter(blocks))
                got = scan._probe_chain(trace, substrate, probe, centers, freqs, drive)
                if aperture == "integrated":
                    currents = np.stack([current_distribution(trace, f, drive, substrate)
                                         for f in freqs], axis=1)
                    cur = np.concatenate([currents.real, currents.imag], axis=1)
                    weights = scan.quad_offsets(probe)[1]
                    flux = scan._node_flux(blocks[0][2].reshape(-1, 20, m), weights, cur)
                for i, f in enumerate(freqs):
                    fl = (flux[i] + 1j * flux[nf + i] if aperture == "integrated"
                          else got[0, i] * (probe.side_s * probe.side_s))
                    v = -1j * 2.0 * math.pi * f * MU0 * fl
                    if loading == "matched-halving":
                        v /= 2.0
                    s21 = v / math.sqrt(Z_REF * drive.power)
                    assert got[1, i].tobytes() == v.tobytes()
                    assert got[2, i].tobytes() == s21.tobytes()

    def test_node_sum_matches_points_major_form(self):
        r = rng(31)
        for nseg, npts, m in ((1, 13, 10), (2, 5, 65), (7, 40, 2), (30, 9, 17)):
            g = random_block(r, nseg, npts * m)
            weights, cur = r.standard_normal(m - 1), r.standard_normal((nseg, 6))
            rows = np.ascontiguousarray(g.T).reshape(npts, m, nseg)
            want = np.einsum("ps,sf->pf", np.einsum("pqs,q->ps", rows[:, 1:], weights), cur)
            got = scan._node_flux(g.reshape(nseg, npts, m), weights, cur)
            assert got.tobytes() == want.T.tobytes()


class TestApplyCalibration:
    def _vmap(self, value, grid=None):
        grid = grid or ScanGrid(x_min=0, x_max=2e-3, y_min=0, y_max=2e-3,
                                dx=1e-3, dy=1e-3, z_height=1e-3)
        vals = np.full((grid.ny, grid.nx), value, dtype=float)
        return FieldMap(grid=grid, f=1e9, component="vport", values=vals, meta={"normal": "hy"})

    def _cf(self, *rows):
        f = np.array([r[0] for r in rows], dtype=float)
        cf = np.array([r[1] for r in rows], dtype=float)
        return CFTable(f=f, cf_db=cf, kernel="image-theory", d=1e-3, h=H_SUB)

    def test_uniform_map_reference(self):
        out = apply_calibration_to_scan(self._vmap(-60.0), self._cf((1e9, 40.0)), 1e9)
        assert np.all(out.values == -20.0)
        assert out.component == "hy"
        assert out.meta["sign_mode"] == "eq1-consistent"
        assert out.meta["kernel"] == "image-theory"

    def test_single_row_exact(self):
        out = apply_calibration_to_scan(self._vmap(-50.0), self._cf((1e9, 35.0)), 1e9)
        assert np.all(out.values == -15.0)

    def test_out_of_span_rejected(self):
        vmap = self._vmap(-50.0)
        with pytest.raises(ConfigError, match="span"):
            apply_calibration_to_scan(vmap, self._cf((0.5e9, 40.0), (0.8e9, 36.0)), 1e9)

    def test_log_f_interpolation(self):
        vmap = self._vmap(0.0)
        table = self._cf((1e8, 40.0), (1e10, 0.0))
        out = apply_calibration_to_scan(vmap, table, 1e9)
        assert_allclose(out.values, 20.0, rtol=1e-12)

    def test_sign_mode_printed(self):
        out = apply_calibration_to_scan(self._vmap(-60.0), self._cf((1e9, 40.0)), 1e9,
                                        sign_mode="eq3-printed")
        assert np.all(out.values == 100.0)

    @pytest.mark.parametrize("component", ["s21", "hy", "mag"])
    def test_non_vport_map_rejected(self, component):
        vmap = replace(self._vmap(-60.0), component=component, meta={})
        with pytest.raises(ConfigError, match=f"scan map component is '{component}'"):
            apply_calibration_to_scan(vmap, self._cf((1e9, 40.0)), 1e9)

    @pytest.mark.parametrize("normal", ["vport", "s21", "x", ""])
    def test_normal_must_name_a_field_component(self, normal):
        vmap = replace(self._vmap(-60.0), meta={"normal": normal})
        with pytest.raises(ConfigError) as info:
            apply_calibration_to_scan(vmap, self._cf((1e9, 40.0)), 1e9)
        assert str(info.value) == (f"scan map meta.normal is {normal!r}: must be one of "
                                   "'hx', 'hy', 'hz', 'mag'")

    @pytest.mark.parametrize("meta, component", [({"normal": "hx"}, "hx"),
                                                 ({"normal": "hz"}, "hz"),
                                                 ({"normal": "mag"}, "mag"), ({}, "mag")])
    def test_normal_is_the_output_component(self, meta, component):
        vmap = replace(self._vmap(-60.0), meta=meta)
        out = apply_calibration_to_scan(vmap, self._cf((1e9, 40.0)), 1e9)
        assert out.component == component
        assert "normal" not in out.meta

    def test_frequency_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="does not match"):
            apply_calibration_to_scan(self._vmap(-60.0), self._cf((2e9, 40.0)), 2e9)


class TestExtractProfile:
    def _dbmap(self, cal_probe, straight_trace, substrate, drive, table2_grid):
        res = run_table2(cal_probe, straight_trace, substrate, drive, table2_grid)
        return FieldMap(grid=res.grid, f=float(res.freqs[0]), component="hy",
                        values=db_of(res.hfield[0]))

    def test_symmetric_about_trace(self, cal_probe, straight_trace, substrate, drive,
                                   table2_grid):
        dbmap = self._dbmap(cal_probe, straight_trace, substrate, drive, table2_grid)
        y, vals = extract_profile(dbmap, axis="y", at=0.0)
        assert len(vals) == 21
        assert np.max(np.abs(vals - vals[::-1])) < 0.1

    def test_single_column(self):
        grid = ScanGrid(x_min=0, x_max=0, y_min=0, y_max=3e-3, dx=1e-3, dy=1e-3,
                        z_height=1e-3)
        fmap = FieldMap(grid=grid, f=1e9, component="hy",
                        values=[[-1.0], [-2.0], [-3.0], [-4.0]])
        x, vals = extract_profile(fmap, axis="x", at=2e-3)
        assert len(x) == 1 and vals[0] == -3.0
        y, col = extract_profile(fmap, axis="y", at=0.0)
        assert_allclose(col, [-1.0, -2.0, -3.0, -4.0])

    def test_off_grid_reports_neighbors(self):
        grid = ScanGrid(x_min=0, x_max=4e-3, y_min=0, y_max=2e-3, dx=1e-3, dy=1e-3,
                        z_height=1e-3)
        fmap = FieldMap(grid=grid, f=1e9, component="hy",
                        values=np.zeros((3, 5)))
        with pytest.raises(ConfigError, match="0.001.*0.002"):
            extract_profile(fmap, axis="x", at=1.4e-3)


class TestMapStats:
    def test_constant_map_ties_to_first_point(self):
        grid = ScanGrid(x_min=0, x_max=2e-3, y_min=0, y_max=2e-3, dx=1e-3, dy=1e-3,
                        z_height=1e-3)
        fmap = FieldMap(grid=grid, f=1e9, component="hy", values=np.full((3, 3), -7.0))
        s = map_stats(fmap)
        assert s == MapStats(-7.0, -7.0, (0.0, 0.0), (0.0, 0.0), (0, 0), (0, 0))

    def test_bounds_property(self):
        r = rng(21)
        grid = ScanGrid(x_min=0, x_max=4e-3, y_min=0, y_max=3e-3, dx=1e-3, dy=1e-3,
                        z_height=1e-3)
        vals = r.uniform(-60, 0, (4, 5))
        s = map_stats(FieldMap(grid=grid, f=1e9, component="hy", values=vals))
        assert s.min_db <= vals.min() + 1e-15
        assert np.all(vals >= s.min_db) and np.all(vals <= s.max_db)

    def test_stats_ignore_axis_metadata_relabeling(self):
        grid = ScanGrid(x_min=0, x_max=2e-3, y_min=0, y_max=1e-3, dx=1e-3, dy=1e-3,
                        z_height=1e-3)
        vals = [[-3.0, -9.0, -1.0], [-7.0, -2.0, -8.0]]
        a = map_stats(FieldMap(grid=grid, f=1e9, component="hy", values=vals,
                               meta={"kernel": "paper"}))
        b = map_stats(FieldMap(grid=grid, f=2e9, component="mag", values=vals,
                               meta={"anything": "else"}))
        assert a == b

    def test_argmax_on_conductor_centerline(self, cal_probe, substrate, drive):
        # full-surface scan (table3-config shape) of a straight trace along x at y=0
        trace = TracePath(vertices=((-15e-3, 0.0, H_SUB), (15e-3, 0.0, H_SUB)))
        grid = ScanGrid(x_min=-10e-3, x_max=10e-3, y_min=-12.5e-3, y_max=12.5e-3,
                        dx=0.5e-3, dy=0.5e-3, z_height=SCAN_HEIGHT)
        sweep = FrequencySweep(f_min=2e9, f_max=2e9, n_points=1)
        res = run_simulated_scan(trace, substrate, cal_probe, grid, sweep, drive)
        dbmap = FieldMap(grid=grid, f=2e9, component="hy", values=db_of(res.hfield[0]))
        s = map_stats(dbmap)
        assert s.argmax[1] == 0.0      # on the centerline y = 0
        assert s.argmax_idx[1] == 25   # middle row of 51
