import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from nfscan import (ConfigError, SingularityError, TracePath, closed_form_line_h,
                    current_distribution, eps_eff_hammerstad, h_segment,
                    h_trace_grounded)
from nfscan import fields
from nfscan.config import MAX_SEGMENTS
from nfscan.fields import PAIRS, kernel_blocks, segment_kernel

from conftest import H_SUB, rng
from kernel_reference import segment_arrays, segment_field_sum, vector_kernel

lattice = st.integers(-8, 8).map(lambda k: k * 0.25e-3)


@st.composite
def kernel_cases(draw):
    """Polylines of 1-5 segments on a 0.25 mm lattice, vertical ones among
    them; when n_real is set the polyline lies above z=0 and the segments
    of its ground-plane image (mirrored through z=0) are appended to
    starts and ends.  Probes are a triple (x, y, z) that broadcasts to
    (rows, cols).  Either a raster: 1-6 grid lines in x and in y on the
    lattice at one height, sometimes with 1-3 flat quadrature offsets on
    the lattice; or one row of points: on the lattice, on segment axes past
    an end, and sometimes one on a filament, images included."""
    grounded = draw(st.booleans())
    height = lattice.filter(lambda z: z > 0) if grounded else lattice
    verts = [draw(st.tuples(lattice, lattice, height))]
    for _ in range(draw(st.integers(1, 5))):
        a = verts[-1]
        if draw(st.booleans()):
            verts.append((a[0], a[1], draw(height.filter(lambda z: z != a[2]))))
        else:
            verts.append(draw(st.tuples(lattice, lattice, height).filter(lambda p: p != a)))
    verts = np.array(verts)
    starts, ends = verts[:-1], verts[1:]
    n_real = None
    if grounded:
        n_real = len(starts)
        mirror = np.array([1.0, 1.0, -1.0])
        starts, ends = np.vstack([starts, starts * mirror]), np.vstack([ends, ends * mirror])
    offsets = None
    if draw(st.booleans()):
        lines = st.lists(lattice, min_size=1, max_size=6, unique=True).map(np.array)
        probes = (draw(lines)[None, :], draw(lines)[:, None], np.array([[draw(lattice)]]))
        if draw(st.booleans()):
            offsets = np.array([(draw(lattice), draw(lattice), 0.0)
                                for _ in range(draw(st.integers(1, 3)))])
        return verts, starts, ends, probes, offsets, n_real
    pts = [draw(st.tuples(lattice, lattice, lattice)) for _ in range(draw(st.integers(1, 8)))]
    for k in draw(st.lists(st.integers(0, len(starts) - 1), max_size=3)):
        t = draw(st.sampled_from((-2.0, -0.5, 1.5, 3.0)))
        pts.append(starts[k] + t * (ends[k] - starts[k]))
    if draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, len(starts) - 1))
        pts.insert(draw(st.integers(0, len(pts))), (starts[k] + ends[k]) / 2)
    return verts, starts, ends, np.array(pts, dtype=float).T, offsets, n_real


def flat_points(probes, offsets):
    """The points of `probes` (a triple) in row-major order, each its center
    then center + each of `offsets`: (n, 3), built one point at a time."""
    centers = np.stack(np.broadcast_arrays(*probes), axis=-1).reshape(-1, 3)
    if offsets is None:
        return centers
    return np.array([q for c in centers for q in (c, *(c + o for o in offsets))])


def kernel_triple(probes, offsets):
    """The kernel's triple for `probes`, `offsets` a trailing axis."""
    if offsets is None:
        return probes
    return tuple(np.concatenate([c[..., None], c[..., None] + o], axis=-1)
                 for c, o in zip(probes, offsets.T))


NORMALS = ("x", "y", "z")


def via_to(x, y, z):
    """A 30-segment trace: 29 segments 1 mm above (x, y, z), then segment 29
    straight down to it."""
    top = [(x - 0.5e-3 * (29 - k), y, z + 1e-3) for k in range(30)]
    return TracePath(vertices=top + [(x, y, z)])


class TestHSegment:
    def test_infinite_line_limit(self):
        # 2 m segment along +x, point 1 mm off axis: I/(2*pi*rho) in +z
        h = h_segment((-1, 0, 0), (1, 0, 0), 1.0, (0, 1e-3, 0))
        expect = 1.0 / (2 * math.pi * 1e-3)
        assert_allclose(abs(h[2]), expect, rtol=1e-6)
        assert h[2].real > 0
        assert abs(h[0]) < 1e-12 and abs(h[1]) < 1e-12

    def test_zero_current(self):
        h = h_segment((0, 0, 0), (1, 0, 0), 0.0, (0.5, 2e-3, 0))
        assert np.all(h == 0)

    def test_superposition_midpoint_split(self):
        a, b, mid = (0, 0, 0), (0.1, 0.02, 0.01), (0.05, 0.01, 0.005)
        p = (0.03, 0.05, -0.02)
        whole = h_segment(a, b, 1.0 + 0.5j, p)
        parts = h_segment(a, mid, 1.0 + 0.5j, p) + h_segment(mid, b, 1.0 + 0.5j, p)
        assert_allclose(parts, whole, rtol=1e-12)

    def test_singularity_names_segment(self):
        with pytest.raises(SingularityError) as err:
            h_segment((0, 0, 0), (1, 0, 0), 1.0, (0.5, 0, 0))
        assert err.value.segment == 0

    def test_finite_segment_closed_form(self):
        # segment [0, L] on the x axis, points at x off the axis by rho, against
        # I/(4*pi*rho) * (cos(theta1) - cos(theta2)) in 50-digit decimal
        length = 0.25
        for x in (0.125, 0.0625, 0.5, -0.25):      # inside the span, and past each end
            for rho in 10.0 ** np.arange(-7, 0):
                h = h_segment((0, 0, 0), (length, 0, 0), 1.0, (x, rho, 0))
                with localcontext() as ctx:
                    ctx.prec = 50
                    X, R, L = Decimal(x), Decimal(rho), Decimal(length)
                    cos1 = X / (X * X + R * R).sqrt()
                    cos2 = (X - L) / ((X - L) ** 2 + R * R).sqrt()
                    want = float((cos1 - cos2) / (4 * Decimal(math.pi) * R))
                assert_allclose(h[2].real, want, rtol=1e-13)
                assert h[0] == 0 and h[1] == 0
            # collinear points past either end: the field is exactly 0
            for gap in 10.0 ** np.arange(-7, 0):
                for p in ((length + gap, 0, 0), (-gap, 0, 0)):
                    assert np.all(h_segment((0, 0, 0), (length, 0, 0), 1.0, p) == 0)
        assert np.all(h_segment((0, 0, 1), (1, 0, 1), 1.0, (2, 0, 1)) == 0)

    def test_linearity_in_current(self):
        p = (0.2, 3e-3, 1e-3)
        h1 = h_segment((0, 0, 0), (0.4, 0, 0), 1.0, p)
        h2 = h_segment((0, 0, 0), (0.4, 0, 0), 2.5, p)
        assert_allclose(h2, 2.5 * h1, rtol=1e-12)
        hp = h_segment((0, 0, 0), (0.4, 0, 0), 1j, p)
        assert_allclose(hp, 1j * h1, rtol=1e-12)


class TestGroundedTrace:
    def test_matches_image_pair_closed_form(self):
        # 2 m straight trace: finite-length error far below the tolerance
        tr = TracePath(vertices=((-1, 0, H_SUB), (1, 0, H_SUB)))
        h = h_trace_grounded(tr, [1.0], (0, 0, H_SUB + 1e-3))
        assert_allclose(abs(h[1]), 121.26, atol=5e-3)
        assert_allclose(abs(h[1]), closed_form_line_h(1e-3, H_SUB, 1.0), rtol=1e-4)

    def test_far_image_leaves_bare_line(self):
        # conductor 1 m above ground: image contributes < 0.2 %
        tr = TracePath(vertices=((-50, 0, 1.0), (50, 0, 1.0)))
        h = h_trace_grounded(tr, [1.0], (0, 0, 1.0 + 1e-3))
        assert_allclose(abs(h[1]), 1.0 / (2 * math.pi * 1e-3), rtol=2e-3)

    def test_pec_boundary_normal_field_vanishes(self):
        # zigzag 3-D trace; z component of H must vanish on the plane z=0
        r = rng(7)
        verts = tuple((x, y, z) for x, y, z in
                      zip(r.uniform(-0.05, 0.05, 6), r.uniform(-0.05, 0.05, 6),
                          r.uniform(5e-4, 5e-3, 6)))
        tr = TracePath(vertices=verts)
        cur = r.uniform(0.5, 2.0, tr.n_segments) * np.exp(1j * r.uniform(0, 6.28, tr.n_segments))
        pts = np.column_stack([r.uniform(-0.1, 0.1, 100), r.uniform(-0.1, 0.1, 100),
                               np.zeros(100)])
        h = h_trace_grounded(tr, cur, pts)
        mag = np.linalg.norm(np.abs(h), axis=1)
        assert np.all(np.abs(h[:, 2]) <= 1e-9 * mag)

    def test_transverse_symmetry_at_midpoint(self):
        tr = TracePath(vertices=((-0.1, 0, H_SUB), (0.1, 0, H_SUB)))
        z = H_SUB + 1e-3
        for y in (0.5e-3, 2e-3, 4e-3):
            hp = h_trace_grounded(tr, [1.0], (0, +y, z))
            hm = h_trace_grounded(tr, [1.0], (0, -y, z))
            assert_allclose(hp[1], hm[1], rtol=1e-9)
            assert_allclose(hp[2], -hm[2], rtol=1e-9)

    def test_far_field_antiparallel_pair_decay(self):
        # pair decays as 1/r^2: doubling r quarters |H| (within 5 %)
        tr = TracePath(vertices=((-2, 0, H_SUB), (2, 0, H_SUB)))
        for r_fac in (50, 100):
            r = r_fac * H_SUB
            h1 = np.linalg.norm(np.abs(h_trace_grounded(tr, [1.0], (0, 0, H_SUB + r))))
            h2 = np.linalg.norm(np.abs(h_trace_grounded(tr, [1.0], (0, 0, H_SUB + 2 * r))))
            assert abs(h2 / h1 - 0.25) < 0.05 * 0.25

    @settings(max_examples=150, deadline=None)
    @given(xz=st.lists(st.tuples(lattice, lattice.filter(lambda z: z > 0)), min_size=2,
                       max_size=6, unique=True),
           phases=st.lists(st.floats(0, 6.28), min_size=5, max_size=5),
           pts=st.lists(st.tuples(lattice, lattice.filter(lambda y: y != 0), lattice),
                        min_size=1, max_size=6))
    def test_mirror_symmetry_about_trace_plane(self, xz, phases, pts):
        # a trace in the plane y=0 (vias included): H(x, -y, z) = (-Hx, Hy, -Hz)(x, y, z)
        tr = TracePath(vertices=tuple((x, 0.0, z) for x, z in xz))
        cur = np.exp(1j * np.array(phases[:tr.n_segments]))
        p = np.array(pts)
        q = p * [1, -1, 1]
        assert_allclose(h_trace_grounded(tr, cur, q), h_trace_grounded(tr, cur, p) * [-1, 1, -1],
                        rtol=1e-12, atol=0)

    def test_wrong_current_count(self):
        tr = TracePath(vertices=((-0.1, 0, H_SUB), (0.1, 0, H_SUB)))
        with pytest.raises(ConfigError):
            h_trace_grounded(tr, [1.0, 1.0], (0, 0, 2e-3))

    def test_image_singularity_reported(self):
        # probing exactly on the mirrored filament
        tr = TracePath(vertices=((-0.1, 0, 2e-3), (0.1, 0, 2e-3)))
        with pytest.raises(SingularityError) as err:
            h_trace_grounded(tr, [1.0], (0, 0, -2e-3))
        assert err.value.image
        assert (err.value.point, err.value.segment) == (0, 0)


class TestClosedForm:
    def test_reference_level(self):
        h = closed_form_line_h(1e-3, H_SUB, math.sqrt(1e-4 / 50))
        assert_allclose(h, 0.1715, atol=5e-5)
        assert_allclose(20 * math.log10(h), -15.31, atol=1e-2)

    def test_zero_current(self):
        assert closed_form_line_h(2e-3, H_SUB, 0.0) == 0.0

    def test_algebraic_identity(self):
        y, h = 0.7e-3, 2.2e-3
        a = closed_form_line_h(y, h, 1.3)
        b = 1.3 * h / (math.pi * y * (y + 2 * h))
        assert_allclose(a, b, rtol=1e-12)

    def test_matches_numeric_within_1pct(self):
        tr = TracePath(vertices=((-0.1, 0, H_SUB), (0.1, 0, H_SUB)))
        hy = abs(h_trace_grounded(tr, [1.0], (0, 0, H_SUB + 1e-3))[1])
        assert abs(hy / closed_form_line_h(1e-3, H_SUB, 1.0) - 1) < 0.01

    def test_domain(self):
        with pytest.raises(ConfigError):
            closed_form_line_h(0.0, H_SUB, 1.0)


class TestCurrentDistribution:
    def test_matched_magnitude(self, straight_trace, substrate, drive):
        cur = current_distribution(straight_trace, 1e9, drive, substrate)
        assert_allclose(np.abs(cur), math.sqrt(1e-4 / 50), rtol=1e-12)

    def test_eps_eff_hammerstad(self):
        assert_allclose(eps_eff_hammerstad(4.6, 1.6e-3, 3e-3), 3.462, atol=5e-4)

    def test_dc_limit_phases_equal(self, substrate, drive):
        tr = TracePath(vertices=tuple((x, 0.0, H_SUB) for x in np.linspace(-0.1, 0.1, 21)))
        cur = current_distribution(tr, 1.0, drive, substrate)  # ~DC
        assert np.ptp(np.angle(cur)) < 1e-6

    def test_traveling_wave_phase_progression(self, substrate, drive):
        tr = TracePath(vertices=tuple((x, 0.0, H_SUB) for x in np.linspace(0, 0.2, 41)))
        f = 1e9
        cur = current_distribution(tr, f, drive, substrate)
        beta = 2 * math.pi * f * math.sqrt(eps_eff_hammerstad(4.6, 1.6e-3, 3e-3)) / 299792458.0
        dl = 0.2 / 40
        dphase = np.angle(cur[1:] / cur[:-1])
        assert_allclose(dphase, -beta * dl, rtol=1e-9)

    def test_open_short_standing_waves(self, substrate, drive):
        tr = TracePath(vertices=tuple((x, 0.0, H_SUB) for x in np.linspace(0, 0.2, 201)),
                       termination="open")
        cur = current_distribution(tr, 1e9, drive, substrate)
        # current node at the open far end, antinode when shorted
        assert abs(cur[-1]) < 0.05 * np.max(np.abs(cur))
        tr_s = TracePath(vertices=tr.vertices, termination="short")
        cur_s = current_distribution(tr_s, 1e9, drive, substrate)
        assert abs(cur_s[-1]) > 0.95 * np.max(np.abs(cur_s))

    def test_unknown_termination_rejected(self):
        with pytest.raises(ConfigError):
            TracePath(vertices=((0, 0, 1e-3), (0.1, 0, 1e-3)), termination="load")

    def test_f_positive(self, straight_trace, substrate, drive):
        with pytest.raises(ConfigError):
            current_distribution(straight_trace, 0.0, drive, substrate)


class TestKernel:
    def test_matches_reference_loop(self):
        # the folded blocks of h_trace_grounded against the per-segment sum
        # over the trace and its images
        r = rng(3)
        ns = 17
        npts = PAIRS // (2 * ns) + 40          # two kernel blocks
        steps = r.uniform(0.01, 0.05, (ns, 3))
        steps[0, :2] = 0.0                     # one vertical segment
        tr = TracePath(vertices=np.cumsum(np.vstack([[-0.1, -0.1, 0.01], steps]), axis=0))
        starts, ends = segment_arrays(tr)
        currents = r.uniform(-1, 1, ns) + 1j * r.uniform(-1, 1, ns)
        points = r.uniform(0.2, 0.4, (npts, 3))
        points[-1] = starts[0] + 3 * (ends[0] - starts[0])    # on its axis, past the end
        out_a = h_trace_grounded(tr, currents, points)
        out_b = np.empty_like(out_a)
        mirror = np.array([1.0, 1.0, -1.0])
        assert segment_field_sum(np.vstack([starts, starts * mirror]),
                                 np.vstack([ends, ends * mirror]),
                                 np.concatenate([currents, -currents]),
                                 points, 1e-9, out_b) == -1
        assert_allclose(out_a, out_b, rtol=1e-12, atol=1e-20)

    def test_singularity_code_point_major(self):
        starts = np.array([[0.0, 0, 0], [0, 1, 0]])
        ends = np.array([[1.0, 0, 0], [1, 1, 0]])
        cur = np.array([1.0 + 0j, 1.0])
        pts = np.array([[0.5, 5.0, 0], [0.5, 1.0, 0], [0.5, 0.0, 0]])
        # first singular pair in point-major order: point 1 x segment 1
        assert segment_field_sum(starts, ends, cur, pts, 1e-9, np.empty((3, 3), complex)) == 3
        # the same two filaments as segments 0 and 2 of a polyline
        verts = np.array([[1.0, 1, 0], [0, 1, 0], [0, 0, 0], [1, 0, 0]])
        normal = "z"
        with pytest.raises(SingularityError) as err:
            segment_kernel(verts, pts.T, normal)
        assert (err.value.point, err.value.segment, err.value.image) == (1, 0, False)
        with pytest.raises(SingularityError) as err:
            segment_kernel(verts, pts.T, normal, image=True)
        assert (err.value.segment, err.value.image) == (0, True)
        assert "image segment 0" in str(err.value)
        # past the first block the index still refers to the caller's points
        tr = TracePath(vertices=verts + [0, 0, 1])
        nfar = PAIRS // (2 * tr.n_segments)
        far = np.column_stack([np.full(nfar, 0.5), np.full(nfar, 3.0), np.ones(nfar)])
        with pytest.raises(SingularityError) as err:
            list(kernel_blocks(tr, np.vstack([far, pts + [0, 0, 1]]).T, normal))
        assert (err.value.point, err.value.segment, err.value.image) == (nfar + 1, 0, False)
        with pytest.raises(SingularityError) as err:
            list(kernel_blocks(tr, np.vstack([far, pts - [0, 0, 1]]).T, normal))
        assert (err.value.point, err.value.segment, err.value.image) == (nfar + 1, 0, True)

    def test_earlier_image_hit_reported_first(self):
        # the real filament is hit at point 2 and its image at point 1: in
        # point-major order the image comes first, though the real segments
        # are computed first; swapped, the real one does
        tr = TracePath(vertices=((-0.1, 0, 2e-3), (0.1, 0, 2e-3), (0.1, 0.1, 2e-3)))
        pts = np.array([[0, 0.05, 1e-3], [0.1, 0.05, -2e-3], [0, 0, 2e-3]])
        for normal in NORMALS:
            with pytest.raises(SingularityError) as err:
                list(kernel_blocks(tr, pts.T, normal))
            assert (err.value.point, err.value.segment, err.value.image) == (1, 1, True)
            assert str(err.value) == (f"field point {pts[1].tolist()} is within 1e-09 m "
                                      "of image segment 1")
            with pytest.raises(SingularityError) as err:
                list(kernel_blocks(tr, pts[[0, 2, 1]].T, normal))
            assert (err.value.point, err.value.segment, err.value.image) == (1, 0, False)

    def test_rows_over_several_blocks(self, monkeypatch):
        # a raster whose rows fill three whole blocks and part of a fourth:
        # the blocks are flat ranges of whole rows, their bytes those of one
        # block over the raster, and a hit in the third names its flat index
        nx, z = 40, 2.6e-3
        line = TracePath(vertices=[(x, 0.0, 1.6e-3) for x in np.linspace(-15e-3, 15e-3, 31)])
        rows = PAIRS // (2 * line.n_segments) // nx
        xs, ys = -10e-3 + 0.5e-3 * np.arange(nx), -12.5e-3 + 0.1e-3 * np.arange(3 * rows + 5)
        probes = (xs[None, :], ys[:, None], np.array([[z]]))
        blocks = list(kernel_blocks(line, probes, "y"))
        assert [(lo, hi) for lo, hi, _ in blocks] == [
            (k * rows * nx, min((k + 1) * rows, len(ys)) * nx) for k in range(4)]
        assert all(g.flags.c_contiguous for *_, g in blocks)
        monkeypatch.setattr(fields, "PAIRS", 2 * line.n_segments * nx * len(ys))
        (lo, hi, whole), = kernel_blocks(line, probes, "y")
        assert (lo, hi) == (0, nx * len(ys))
        assert np.vstack([g for *_, g in blocks]).tobytes() == whole.tobytes()
        monkeypatch.undo()
        ix, iy = 7, 2 * rows + 3
        with pytest.raises(SingularityError) as err:
            list(kernel_blocks(via_to(xs[ix], ys[iy], z), probes, "y"))
        assert (err.value.point, err.value.segment, err.value.image) == (iy * nx + ix, 29, False)
        where = [float(xs[ix]), float(ys[iy]), z]
        assert str(err.value) == f"field point {where} is within 1e-09 m of segment 29"

    def test_row_longer_than_a_block(self, monkeypatch):
        # two rows of 2.5 blocks each: a block is a chunk of one row, and a hit
        # in the third chunk of the second row names its flat index
        z = 2.6e-3
        line = TracePath(vertices=[(x, 0.0, 1.6e-3) for x in np.linspace(-15e-3, 15e-3, 31)])
        step = PAIRS // (2 * line.n_segments)
        nx = 2 * step + step // 2
        xs, ys = -60e-3 + 0.05e-3 * np.arange(nx), np.array([0.0, 0.5e-3])
        probes = (xs[None, :], ys[:, None], np.array([[z]]))
        blocks = list(kernel_blocks(line, probes, "z"))
        assert [(lo, hi) for lo, hi, _ in blocks] == [
            (r * nx + c, r * nx + min(c + step, nx)) for r in range(2) for c in (0, step, 2 * step)]
        monkeypatch.setattr(fields, "PAIRS", 2 * line.n_segments * 2 * nx)
        (lo, hi, whole), = kernel_blocks(line, probes, "z")
        assert (lo, hi) == (0, 2 * nx)
        assert np.vstack([g for *_, g in blocks]).tobytes() == whole.tobytes()
        monkeypatch.undo()
        ix = 2 * step + 10
        with pytest.raises(SingularityError) as err:
            list(kernel_blocks(via_to(xs[ix], ys[1], z), probes, "z"))
        assert (err.value.point, err.value.segment, err.value.image) == (nx + ix, 29, False)

    def test_near_corner_past_both_segment_ends(self):
        # within 1 nm of the corner vertex but beyond the span of both
        # segments that meet there: only the distance to the vertex finds it
        verts = np.array([[0.0, 0, 1e-3], [1e-3, 0, 1e-3], [1e-3, 1e-3, 1e-3]])
        pts = np.array([[5e-4, 5e-4, 1e-3], [1e-3 + 5e-10, -5e-10, 1e-3]])
        with pytest.raises(SingularityError) as ref:
            vector_kernel(verts[:-1], verts[1:], pts)
        for normal in NORMALS:
            with pytest.raises(SingularityError) as err:
                segment_kernel(verts, pts.T, normal)
            assert (err.value.point, err.value.segment, err.value.image) == (1, 0, False)
            assert str(err.value) == str(ref.value)

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_matches_vector_kernel(self, case):
        # the polyline kernel and the grounded blocks against the 3-vector
        # kernel over the same segments and the flattened points, images
        # appended when n_real is set
        verts, starts, ends, probes, offsets, n_real = case
        pts = flat_points(probes, offsets)
        triple = kernel_triple(probes, offsets)
        m = 1 if offsets is None else 1 + len(offsets)

        def kernel(normal):
            if n_real is None:
                return segment_kernel(verts, triple, normal)
            (lo, hi, g), = kernel_blocks(TracePath(vertices=verts), probes, normal, offsets)
            assert (lo, hi) == (0, len(pts) // m) and g.flags.c_contiguous
            return g

        try:
            g = vector_kernel(starts, ends, pts, n_real)
        except SingularityError as ref:
            for normal in NORMALS:
                with pytest.raises(SingularityError) as err:
                    kernel(normal)
                # kernel_blocks names the probe, the kernel the point
                point = ref.point if n_real is None else ref.point // m
                assert (err.value.point, err.value.segment, err.value.image) == \
                    (point, ref.segment, ref.image)
                assert str(err.value) == str(ref)
            return
        for normal in NORMALS:
            want = np.einsum("psk,k->ps", g, np.eye(3)[NORMALS.index(normal)])
            if n_real is not None:
                mirror = verts * [1.0, 1.0, -1.0]
                assert segment_kernel(verts, triple, normal).tobytes() == \
                    want[:, :n_real].tobytes()
                assert segment_kernel(mirror, triple, normal, image=True).tobytes() == \
                    want[:, n_real:].tobytes()
                want = want[:, :n_real] - want[:, n_real:]
            assert kernel(normal).tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_polyline_columns_equal_segment_calls(self, case):
        verts, _, _, probes, offsets, _ = case
        triple = kernel_triple(probes, offsets)
        for normal in NORMALS:
            try:
                g = segment_kernel(verts, triple, normal)
            except SingularityError:
                return
            for k in range(len(verts) - 1):
                assert g[:, k].tobytes() == segment_kernel(verts[k:k + 2], triple, normal).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_reversed_segment_negates_column(self, case):
        verts, _, _, probes, offsets, _ = case
        triple = kernel_triple(probes, offsets)
        try:
            fwd = [segment_kernel(verts, triple, normal) for normal in NORMALS]
        except SingularityError:
            return
        # u x r1 and u x r2 round apart, so a component that cancels to 0
        # is compared against the largest field component
        atol = 1e-12 * max(np.abs(g).max() for g in fwd)
        for normal, g in zip(NORMALS, fwd):
            rev = segment_kernel(verts[::-1], triple, normal)[:, ::-1]
            assert_allclose(rev, -g, rtol=1e-12, atol=atol)

    def test_peak_memory_within_pair_budget(self):
        # the longest trace a config may ask for, 2,000 segments, x 200
        # points: one kernel call over them and their images would hold
        # 8e5 pairs.  h_trace_grounded peaks near 55 B per pair here and
        # 54 B on a 60-segment trace x 2,000 points (measured); 72 B leaves
        # room for numpy's temporaries to differ.
        r = rng(5)
        ns = MAX_SEGMENTS
        tr = TracePath(vertices=np.column_stack([np.arange(ns + 1) * 1e-4,
                                                 r.uniform(-0.01, 0.01, ns + 1),
                                                 r.uniform(0.5, 1.0, ns + 1)]))
        currents = np.ones(ns, dtype=complex)
        points = r.uniform(2, 3, (200, 3))
        tracemalloc.start()
        try:
            h_trace_grounded(tr, currents, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PAIRS * 72
