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
from nfscan.config import MAX_SEGMENTS
from nfscan.fields import PAIRS, kernel_blocks, segment_kernel

from conftest import H_SUB, rng
from kernel_reference import segment_field_sum, vector_kernel

lattice = st.integers(-8, 8).map(lambda k: k * 0.25e-3)


@st.composite
def kernel_cases(draw):
    """Segments on a 0.25 mm lattice, vertical ones among them, with their
    ground-plane images (mirrored through z=0) appended when n_real is
    set; points on the lattice and on segment axes past an end, and
    sometimes one on a filament."""
    starts, ends = [], []
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.tuples(lattice, lattice, lattice))
        if draw(st.booleans()):
            b = (a[0], a[1], draw(lattice.filter(lambda z: z != a[2])))
        else:
            b = draw(st.tuples(lattice, lattice, lattice).filter(lambda p: p != a))
        starts.append(a)
        ends.append(b)
    starts, ends = np.array(starts), np.array(ends)
    pts = [draw(st.tuples(lattice, lattice, lattice)) for _ in range(draw(st.integers(1, 8)))]
    for k in draw(st.lists(st.integers(0, len(starts) - 1), max_size=3)):
        t = draw(st.sampled_from((-2.0, -0.5, 1.5, 3.0)))
        pts.append(starts[k] + t * (ends[k] - starts[k]))
    if draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, len(starts) - 1))
        pts.insert(draw(st.integers(0, len(pts))), (starts[k] + ends[k]) / 2)
    n_real = None
    if draw(st.booleans()):
        n_real = len(starts)
        mirror = np.array([1.0, 1.0, -1.0])
        starts, ends = np.vstack([starts, starts * mirror]), np.vstack([ends, ends * mirror])
    return starts, ends, np.array(pts, dtype=float), n_real


NORMALS = ("x", "y", "z")


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
        starts, ends = tr.segment_arrays()
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
        normal = "z"
        with pytest.raises(SingularityError) as err:
            segment_kernel(starts, ends, pts, normal)
        assert (err.value.point, err.value.segment, err.value.image) == (1, 1, False)
        with pytest.raises(SingularityError) as err:
            segment_kernel(starts, ends, pts, normal, n_real=1)
        assert (err.value.segment, err.value.image) == (0, True)
        # past the first block the index still refers to the caller's points
        tr = TracePath(vertices=((1.0, 1, 1), (0.0, 1, 1), (0.0, 0, 1), (1.0, 0, 1)))
        nfar = PAIRS // (2 * tr.n_segments)
        far = np.column_stack([np.full(nfar, 0.5), np.full(nfar, 3.0), np.ones(nfar)])
        with pytest.raises(SingularityError) as err:
            list(kernel_blocks(tr, np.vstack([far, pts + [0, 0, 1]]), normal))
        assert (err.value.point, err.value.segment, err.value.image) == (nfar + 1, 0, False)
        with pytest.raises(SingularityError) as err:
            list(kernel_blocks(tr, np.vstack([far, pts - [0, 0, 1]]), normal))
        assert (err.value.point, err.value.segment, err.value.image) == (nfar + 1, 0, True)

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_matches_vector_kernel(self, case):
        starts, ends, pts, n_real = case
        try:
            g = vector_kernel(starts, ends, pts, n_real)
        except SingularityError as ref:
            for normal in NORMALS:
                with pytest.raises(SingularityError) as err:
                    segment_kernel(starts, ends, pts, normal, n_real)
                assert (err.value.point, err.value.segment, err.value.image) == \
                    (ref.point, ref.segment, ref.image)
                assert str(err.value) == str(ref)
            return
        for normal in NORMALS:
            got = segment_kernel(starts, ends, pts, normal, n_real)
            want = np.einsum("psk,k->ps", g, np.eye(3)[NORMALS.index(normal)])
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_reversed_segment_negates_column(self, case):
        starts, ends, pts, _ = case
        try:
            fwd = [segment_kernel(starts, ends, pts, normal) for normal in NORMALS]
        except SingularityError:
            return
        # u x r1 and u x r2 round apart, so a component that cancels to 0
        # is compared against the largest field component
        atol = 1e-12 * max(np.abs(g).max() for g in fwd)
        for normal, g in zip(NORMALS, fwd):
            assert_allclose(segment_kernel(ends, starts, pts, normal), -g, rtol=1e-12, atol=atol)

    def test_peak_memory_within_pair_budget(self):
        # the longest trace a config may ask for, 2,000 segments, x 200
        # points: one kernel call over them and their images would hold
        # 8e5 pairs.  h_trace_grounded peaks near 113 B per pair (measured
        # on a 60-segment trace x 2,000 points); 128 B leaves room for the
        # per-segment arrays.
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
        assert peak < PAIRS * 128
