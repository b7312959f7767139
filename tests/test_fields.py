import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st
from numpy.testing import assert_allclose

from nfscan import (ConfigError, SingularityError, TracePath, current_distribution,
                    eps_eff_hammerstad)
from nfscan import fields
from nfscan.config import MAX_SEGMENTS
from nfscan.fields import PAIRS, kernel_blocks, segment_kernel

from conftest import H_SUB, grounded_h, rng
from kernel_reference import (closed_form_line_h, decimal_h, segment_arrays,
                              segment_field_sum, vector_kernel)

lattice = st.integers(-8, 8).map(lambda k: k * 0.25e-3)
#: The lattice's heights on or above the ground plane z=0.
height = st.integers(0, 8).map(lambda k: k * 0.25e-3)


@st.composite
def kernel_cases(draw):
    """Planar polylines of 1-5 segments on a 0.25 mm lattice, at one
    height above z=0.  starts and ends hold the polyline's segments, then
    those of its ground-plane image (mirrored through z=0).  Probes are a
    triple (x, y, z) that broadcasts to (rows, cols), on or above z=0.
    Either a raster: 1-6 grid lines in x and in y on the lattice at one
    height, sometimes with 1-3 flat quadrature offsets on the lattice; or
    one row of points: on the lattice, on segment axes past an end, and
    sometimes one on a filament."""
    z = draw(height.filter(lambda z: z > 0))
    verts = [(draw(lattice), draw(lattice), z)]
    for _ in range(draw(st.integers(1, 5))):
        xy = draw(st.tuples(lattice, lattice).filter(lambda q: q != verts[-1][:2]))
        verts.append((*xy, z))
    verts = np.array(verts)
    offsets = None
    if draw(st.booleans()):
        lines = st.lists(lattice, min_size=1, max_size=6, unique=True).map(np.array)
        probes = (draw(lines)[None, :], draw(lines)[:, None], np.array([[draw(height)]]))
        if draw(st.booleans()):
            offsets = np.array([(draw(lattice), draw(lattice), 0.0)
                                for _ in range(draw(st.integers(1, 3)))])
        return kernel_case(verts, probes, offsets)
    pts = [draw(st.tuples(lattice, lattice, height)) for _ in range(draw(st.integers(1, 8)))]
    n = len(verts) - 1
    for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        t = draw(st.sampled_from((-2.0, -0.5, 1.5, 3.0)))
        pts.append(verts[k] + t * (verts[k + 1] - verts[k]))
    if draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, n - 1))
        pts.insert(draw(st.integers(0, len(pts))), (verts[k] + verts[k + 1]) / 2)
    return kernel_case(verts, np.array(pts, dtype=float).T, offsets)


def kernel_case(verts, probes, offsets=None):
    """A `kernel_cases` case: the polyline `verts`, its segments' starts
    and ends, then those of its ground-plane image, `probes` and
    `offsets`."""
    verts = np.asarray(verts, dtype=float)
    mirror = np.array([1.0, 1.0, -1.0])
    starts = np.vstack([verts[:-1], verts[:-1] * mirror])
    ends = np.vstack([verts[1:], verts[1:] * mirror])
    return verts, starts, ends, probes, offsets


#: A bent polyline over two probes at one height.  A one-segment kernel
#: call gathers u, and r1_z at one height, as numpy scalars, on which
#: `** 2` would be libm pow; its second segment alone must still round
#: as the polyline's column and as the 3-vector reference do.
BENT = [[0, 0, 1.5e-3], [0.75e-3, 2e-3, 1.5e-3], [-2e-3, 0.25e-3, 1.5e-3]]
BENT_PROBES = (np.array([[0.0]]), np.array([[0.0], [0.25e-3]]), np.array([[1.25e-3]]))


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


@st.composite
def grounded_cases(draw, kind):
    """A planar polyline above the ground plane on the lattice: along x or
    y (`kind` "x" or "y", each segment running either way along it) or in
    any lattice direction ("xy").  Its probes
    take their coordinates from its vertices' as well as the lattice, so
    that r is +0 against a segment running either way, and lie on, below
    and above the trace plane and on and above the ground plane.  Either a
    raster triple, sometimes with 1-3 flat quadrature offsets, or one row
    of points."""
    verts = [(draw(lattice), draw(lattice), draw(height.filter(lambda z: z > 0)))]
    for _ in range(draw(st.integers(1, 5))):
        a = verts[-1]
        if kind in ("x", "y"):
            j = "xy".index(kind)
            b = list(a)
            b[j] = draw(lattice.filter(lambda c: c != a[j]))
        else:
            b = (*draw(st.tuples(lattice, lattice).filter(lambda q: q != a[:2])), a[2])
        verts.append(tuple(b))
    verts = np.array(verts)
    coord = [st.sampled_from(sorted(set(verts[:, j]))) | axis
             for j, axis in enumerate((lattice, lattice, height))]
    if draw(st.booleans()):
        xs, ys = (np.array(draw(st.lists(c, min_size=1, max_size=6, unique=True)))
                  for c in coord[:2])
        offsets = None
        if draw(st.booleans()):
            offsets = np.array([(draw(lattice), draw(lattice), 0.0)
                                for _ in range(draw(st.integers(1, 3)))])
        return verts, (xs[None, :], ys[:, None], np.array([[draw(coord[2])]])), offsets
    pts = [[draw(c) for c in coord] for _ in range(draw(st.integers(1, 8)))]
    return verts, np.array(pts).T, None


def lead_to(x, y, z):
    """A 30-segment trace at height z: 29 segments along x, 1 m beyond y,
    then segment 29 along -y, ending at (x, y, z).  Of the points of a
    raster at height z within 1 m past y, only those at x with y' >= y lie
    on it."""
    far = [(x - 0.5e-3 * (29 - k), y + 1.0, z) for k in range(30)]
    return TracePath(vertices=far + [(x, y, z)])


def segment_h(start, end, point):
    """The kernel's (hx, hy, hz) per unit current at one point: one segment's
    field minus its image's."""
    verts, triple = np.array([start, end], dtype=float), np.reshape(point, (3, 1))
    return np.array([segment_kernel(verts, triple, normal)[0, 0] for normal in NORMALS])


def image_of(*points):
    """`points` mirrored through the ground plane z=0."""
    return [(x, y, -z) for x, y, z in points]


def filament_distance(start, end, point):
    """Distance from `point` to the segment start -> end."""
    a, b, p = (np.asarray(v, dtype=float) for v in (start, end, point))
    t = np.clip(np.dot(p - a, b - a) / np.dot(b - a, b - a), 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * (b - a))))


class TestHSegment:
    """The field of one segment over the ground plane, its image's included."""

    def test_infinite_line_limit(self):
        # 2 m segment along +x at H_SUB, the point 1 mm above its middle: the
        # line and its image give the closed form, along -y
        h = segment_h((-1, 0, H_SUB), (1, 0, H_SUB), (0, 0, H_SUB + 1e-3))
        assert_allclose(-h[1], closed_form_line_h(1e-3, H_SUB, 1.0), rtol=1e-5)
        assert h[0] == 0 and h[2] == 0

    def test_superposition_midpoint_split(self):
        a, b, mid = (0, 0, 0.01), (0.1, 0.02, 0.01), (0.05, 0.01, 0.01)
        p = np.reshape((0.03, 0.05, 0.02), (3, 1))
        for normal in NORMALS:
            whole = segment_kernel((a, b), p, normal)
            parts = segment_kernel((a, mid, b), p, normal)
            assert_allclose(parts.sum(axis=0), whole[0], rtol=1e-12)

    def test_singularity_names_segment(self):
        with pytest.raises(SingularityError) as err:
            segment_h((0, 0, 1), (1, 0, 1), (0.5, 0, 1.0))
        assert err.value.segment == 0

    def test_finite_segment_closed_form(self):
        # segment [0, L] along x, 0.5 m above the ground plane, points off it
        # by rho, inside its span and past each end: the segment's field minus
        # its image's, each in 50-digit decimal
        length, z = 0.25, 0.5
        seg = ((0, 0, z), (length, 0, z))
        for x in (0.125, 0.0625, 0.5, -0.25):      # inside the span, and past each end
            for rho in 10.0 ** np.arange(-7, 0):
                p = (x, rho, z)
                want = np.subtract(decimal_h(*seg, p), decimal_h(*image_of(*seg), p))
                h = segment_h(*seg, p)
                assert_allclose(h, want, rtol=1e-13)
                assert h[0] == 0
        # probed on its axis past its ends, the segment's own field is
        # exactly 0, and its image's is all there is
        for px in (-1e-7, -0.5, length + 1e-7, 2.0):
            h = segment_h(*seg, (px, 0, z))
            assert h[0] == 0 and h[2] == 0
            assert_allclose(h, np.negative(decimal_h(*image_of(*seg), (px, 0, z))), rtol=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(centre=st.tuples(st.floats(-5e-3, 5e-3), st.floats(-5e-3, 5e-3),
                            st.floats(1e-4, 5e-3)),
           direction=st.tuples(*2 * [st.floats(-1.0, 1.0)]),
           length=st.floats(1e-4, 1e-2), along=st.floats(-0.5, 1.5),
           across=st.tuples(*3 * [st.floats(-1.0, 1.0)]), log_gap=st.floats(-5.0, -2.0))
    def test_random_segments_match_decimal(self, centre, direction, length, along, across,
                                           log_gap):
        # horizontal segments 0.1-10 mm long in any in-plane direction, at
        # heights of 0.1-5 mm, coordinates within 1 cm, and points 10 um to
        # 1 cm from the filament in any direction.  r = p - v is rounded
        # to an ulp of the largest coordinate M, so each side's error, on
        # every axis, stays within a few ulps of M over its distance d to the
        # point, relative to the field scale 1 / (4 pi d): 8 ulps, twice the
        # worst of 40,000 random cases
        u = np.array([*direction, 0.0])
        assume(np.linalg.norm(u) > 0.1)
        u /= np.linalg.norm(u)
        n = np.array(across) - np.dot(across, u) * u
        assume(np.linalg.norm(n) > 0.1)
        a, b = np.array(centre) - length / 2 * u, np.array(centre) + length / 2 * u
        p = a + along * (b - a) + 10.0 ** log_gap * n / np.linalg.norm(n)
        seg, img = (a, b), image_of(a, b)
        d = [filament_distance(*s, p) for s in (seg, img)]
        assume(1e-5 <= d[0] <= 1e-2 and d[1] >= 1e-5)
        want = np.subtract(decimal_h(*seg, p), decimal_h(*img, p))
        ulp = math.ulp(np.abs([a, b, p]).max())
        tol = sum(8 * ulp / dk / (4 * math.pi * dk) for dk in d)
        assert np.all(np.abs(segment_h(*seg, p) - want) <= tol)


class TestGroundedTrace:
    def test_matches_image_pair_closed_form(self):
        # 2 m straight trace: finite-length error far below the tolerance
        tr = TracePath(vertices=((-1, 0, H_SUB), (1, 0, H_SUB)))
        h = grounded_h(tr, [1.0], (0, 0, H_SUB + 1e-3))
        assert_allclose(abs(h[1]), 121.26, atol=5e-3)
        assert_allclose(abs(h[1]), closed_form_line_h(1e-3, H_SUB, 1.0), rtol=1e-4)

    def test_far_image_leaves_bare_line(self):
        # conductor 1 m above ground: image contributes < 0.2 %
        tr = TracePath(vertices=((-50, 0, 1.0), (50, 0, 1.0)))
        h = grounded_h(tr, [1.0], (0, 0, 1.0 + 1e-3))
        assert_allclose(abs(h[1]), 1.0 / (2 * math.pi * 1e-3), rtol=2e-3)

    def test_pec_boundary_normal_field_vanishes(self):
        # zigzag trace; z component of H must vanish on the plane z=0, which
        # the kernel reaches (kernel_blocks takes only points above it)
        r = rng(7)
        z = r.uniform(5e-4, 5e-3)
        verts = np.column_stack([r.uniform(-0.05, 0.05, 6), r.uniform(-0.05, 0.05, 6),
                                 np.full(6, z)])
        cur = r.uniform(0.5, 2.0, 5) * np.exp(1j * r.uniform(0, 6.28, 5))
        pts = (r.uniform(-0.1, 0.1, 100), r.uniform(-0.1, 0.1, 100), np.zeros(100))
        h = np.column_stack([segment_kernel(verts, pts, normal).T @ cur for normal in NORMALS])
        mag = np.linalg.norm(np.abs(h), axis=1)
        assert np.all(np.abs(h[:, 2]) <= 1e-9 * mag)

    def test_transverse_symmetry_at_midpoint(self):
        tr = TracePath(vertices=((-0.1, 0, H_SUB), (0.1, 0, H_SUB)))
        z = H_SUB + 1e-3
        for y in (0.5e-3, 2e-3, 4e-3):
            hp = grounded_h(tr, [1.0], (0, +y, z))
            hm = grounded_h(tr, [1.0], (0, -y, z))
            assert_allclose(hp[1], hm[1], rtol=1e-9)
            assert_allclose(hp[2], -hm[2], rtol=1e-9)

    def test_far_field_antiparallel_pair_decay(self):
        # pair decays as 1/r^2: doubling r quarters |H| (within 5 %)
        tr = TracePath(vertices=((-2, 0, H_SUB), (2, 0, H_SUB)))
        for r_fac in (50, 100):
            r = r_fac * H_SUB
            h1 = np.linalg.norm(np.abs(grounded_h(tr, [1.0], (0, 0, H_SUB + r))))
            h2 = np.linalg.norm(np.abs(grounded_h(tr, [1.0], (0, 0, H_SUB + 2 * r))))
            assert abs(h2 / h1 - 0.25) < 0.05 * 0.25

    @settings(max_examples=150, deadline=None)
    @given(xs=st.lists(lattice, min_size=2, max_size=6, unique=True),
           z=lattice.filter(lambda z: z > 0),
           phases=st.lists(st.floats(0, 6.28), min_size=5, max_size=5),
           pts=st.lists(st.tuples(lattice, lattice.filter(lambda y: y != 0),
                                  height.filter(lambda z: z > 0)), min_size=1, max_size=6))
    def test_mirror_symmetry_about_trace_plane(self, xs, z, phases, pts):
        # a trace on the line y=0, its segments running either way along it:
        # H(x, -y, z) = (-Hx, Hy, -Hz)(x, y, z)
        tr = TracePath(vertices=tuple((x, 0.0, z) for x in xs))
        cur = np.exp(1j * np.array(phases[:tr.n_segments]))
        p = np.array(pts)
        q = p * [1, -1, 1]
        assert_allclose(grounded_h(tr, cur, q), grounded_h(tr, cur, p) * [-1, 1, -1],
                        rtol=1e-12, atol=0)


class TestFieldDomain:
    """The image rule gives the field only on or above the ground plane:
    `kernel_blocks` refuses any other point before a kernel pass."""

    OFF = [(math.nan, 0.0, 2e-3), (0.0, math.inf, 2e-3), (-math.inf, 0.0, 2e-3),
           (0.0, 0.0, math.nan), (0.0, 0.0, math.inf), (0.0, 0.0, -math.inf),
           (0.0, 0.0, 0.0), (0.0, 0.0, -1e-3)]

    @staticmethod
    def no_kernel(monkeypatch):
        calls = []
        monkeypatch.setattr(fields, "segment_kernel", lambda *args: calls.append(args))
        return calls

    @pytest.mark.parametrize("bad", OFF)
    def test_h_trace_grounded_names_point(self, monkeypatch, straight_trace, bad):
        # one row of points, as 1-D triples: the bad point alone, and
        # between a good point and another bad one
        calls = self.no_kernel(monkeypatch)
        for pts in ([bad], [(0.0, 1e-3, 2e-3), bad, (0.0, 0.0, -1.0)]):
            with pytest.raises(ConfigError) as err:
                next(kernel_blocks(straight_trace, np.array(pts).T, "y"))
            assert str(err.value) == (f"field point {list(bad)} must be finite "
                                      "and above the ground plane z=0")
        assert not calls

    def test_raster_names_first_point_row_major(self, monkeypatch, straight_trace):
        calls = self.no_kernel(monkeypatch)
        probes = (np.array([[0.0, 1e-3, math.inf]]), np.array([[1e-3], [math.nan]]),
                  np.array([[2e-3]]))
        with pytest.raises(ConfigError, match=r"^field point \[inf, 0\.001, 0\.002\] "):
            next(kernel_blocks(straight_trace, probes, "y"))
        probes = (probes[0][:, :2], probes[1][:1], np.array([[0.0]]))
        with pytest.raises(ConfigError, match=r"^field point \[0\.0, 0\.001, 0\.0\] "):
            next(kernel_blocks(straight_trace, probes, "y", offsets=np.zeros((1, 3))))
        assert not calls


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
        hy = abs(grounded_h(tr, [1.0], (0, 0, H_SUB + 1e-3))[1])
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

    @pytest.mark.parametrize("termination", ["matched", "open", "short"])
    def test_sweep_matches_per_frequency_calls(self, substrate, drive, termination):
        # a bent trace of unequal segments, so the arclengths are unevenly spaced
        xs = np.concatenate([np.linspace(0.0, 0.03, 23), 0.03 + np.geomspace(1e-3, 0.02, 17)])
        tr = TracePath(vertices=tuple((x, 0.1 * x * x, H_SUB) for x in xs),
                       termination=termination)
        freqs = np.linspace(0.1e9, 3e9, 31)
        cur = current_distribution(tr, freqs, drive, substrate)
        assert cur.shape == (tr.n_segments, 31) and cur.dtype == complex
        each = np.stack([current_distribution(tr, f, drive, substrate) for f in freqs], axis=1)
        assert cur.tobytes() == each.tobytes()

    def test_unknown_termination_rejected(self):
        with pytest.raises(ConfigError):
            TracePath(vertices=((0, 0, 1e-3), (0.1, 0, 1e-3)), termination="load")

    def test_f_positive(self, straight_trace, substrate, drive):
        with pytest.raises(ConfigError):
            current_distribution(straight_trace, 0.0, drive, substrate)


class TestKernel:
    def test_matches_reference_loop(self):
        # the folded blocks, contracted per axis, against the per-segment
        # sum over the trace and its images
        r = rng(3)
        ns = 17
        npts = PAIRS // (2 * ns) + 40          # two kernel blocks
        steps = r.uniform(-0.05, 0.05, (ns, 3))
        steps[:, 2] = 0.0
        steps[0, 1] = 0.0                      # one segment along x
        tr = TracePath(vertices=np.cumsum(np.vstack([[-0.1, -0.1, 0.01], steps]), axis=0))
        starts, ends = segment_arrays(tr)
        currents = r.uniform(-1, 1, ns) + 1j * r.uniform(-1, 1, ns)
        points = r.uniform(0.2, 0.4, (npts, 3))
        points[-1] = starts[0] + 3 * (ends[0] - starts[0])    # on its axis, past the end
        out_a = grounded_h(tr, currents, points)
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
        # the same two filaments as segments 0 and 2 of a polyline 1 m over
        # the ground plane, probed at that height
        verts = np.array([[1.0, 1, 1], [0, 1, 1], [0, 0, 1], [1, 0, 1]])
        pts = pts + [0, 0, 1]
        normal = "z"
        with pytest.raises(SingularityError) as err:
            segment_kernel(verts, pts.T, normal)
        assert (err.value.point, err.value.segment) == (1, 0)
        assert str(err.value) == f"field point {pts[1].tolist()} is within 1e-09 m of segment 0"
        # past the first block the index still refers to the caller's points
        tr = TracePath(vertices=verts)
        nfar = PAIRS // (2 * tr.n_segments)
        far = np.column_stack([np.full(nfar, 0.5), np.full(nfar, 3.0), np.ones(nfar)])
        with pytest.raises(SingularityError) as err:
            list(kernel_blocks(tr, np.vstack([far, pts]).T, normal))
        assert (err.value.point, err.value.segment) == (nfar + 1, 0)

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
        assert np.hstack([g for *_, g in blocks]).tobytes() == whole.tobytes()
        monkeypatch.undo()
        ix, iy = 7, 2 * rows + 3
        with pytest.raises(SingularityError) as err:
            list(kernel_blocks(lead_to(xs[ix], ys[iy], z), probes, "y"))
        assert (err.value.point, err.value.segment) == (iy * nx + ix, 29)
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
        assert np.hstack([g for *_, g in blocks]).tobytes() == whole.tobytes()
        monkeypatch.undo()
        ix = 2 * step + 10
        with pytest.raises(SingularityError) as err:
            list(kernel_blocks(lead_to(xs[ix], ys[1], z), probes, "z"))
        assert (err.value.point, err.value.segment) == (nx + ix, 29)

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
            assert (err.value.point, err.value.segment) == (1, 0)
            assert str(err.value) == str(ref.value)

    def test_searched_before_any_division(self):
        # rho**2 = 1e-320 is subnormal: dividing by it overflows, so only a
        # search that runs before the in-span formula refuses the point
        # with no warning
        trace = TracePath(vertices=[(0.0, 0.0, 1.6e-3), (1e-3, 0.0, 1.6e-3)])
        for normal in NORMALS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularityError):
                    list(kernel_blocks(trace, ([0.5e-3], [1e-160], [1.6e-3]), normal))

    @settings(max_examples=200, deadline=None)
    @given(log_h=st.floats(-12.0, -2.0), data=st.data())
    def test_reference_never_names_image_first(self, log_h, data):
        # why the kernel searches only the polyline: over planar polylines
        # at h > 0 and points at z >= 0 within 1 nm of a segment or a
        # vertex, the 3-vector reference over the polyline's segments and
        # its image's names a polyline segment at every point it refuses
        h = 10.0 ** log_h
        coord = st.floats(-5e-3, 5e-3)
        verts = [(data.draw(coord), data.draw(coord), h)]
        for _ in range(data.draw(st.integers(1, 3))):
            verts.append((data.draw(coord), data.draw(coord), h))
            assume(math.dist(verts[-1], verts[-2]) > 1e-5)
        verts = np.array(verts)
        n = len(verts) - 1
        mirror = np.array([1.0, 1.0, -1.0])
        starts = np.vstack([verts[:-1], verts[:-1] * mirror])
        ends = np.vstack([verts[1:], verts[1:] * mirror])
        unit = st.floats(-1.0, 1.0)
        refused = 0
        for _ in range(data.draw(st.integers(1, 6))):
            k, t = data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from((0.0, 1.0)) | unit)
            step = np.array([data.draw(unit) for _ in range(3)])
            p = verts[k] + t * (verts[k + 1] - verts[k])
            p += data.draw(st.floats(0.0, 1e-9)) * step / max(np.linalg.norm(step), 1.0)
            p[2] = 0.0 if data.draw(st.integers(0, 9)) < 3 else max(p[2], 0.0)
            try:
                vector_kernel(starts, ends, p[None, :], n)
            except SingularityError as err:
                assert "image" not in str(err) and err.segment < n
                refused += 1
        event(f"points refused: {refused > 0}")

    @pytest.mark.parametrize("kind", ["x", "y", "xy"])
    @settings(max_examples=75, deadline=None)
    @given(data=st.data())
    def test_one_pass_equals_trace_minus_image(self, kind, data):
        # the grounded kernel evaluates the polyline and its image in one
        # pass, sharing t = r.u; against
        # the 3-vector kernel over both sets of segments, byte for byte
        verts, probes, offsets = data.draw(grounded_cases(kind))
        pts = flat_points(probes, offsets)
        triple = kernel_triple(probes, offsets)
        n = len(verts) - 1
        mirror = np.array([1.0, 1.0, -1.0])
        starts = np.vstack([verts[:-1], verts[:-1] * mirror])
        ends = np.vstack([verts[1:], verts[1:] * mirror])
        try:
            g = vector_kernel(starts, ends, pts, n)
        except SingularityError as ref:
            for normal in NORMALS:
                with pytest.raises(SingularityError) as err:
                    segment_kernel(verts, triple, normal)
                assert (err.value.point, err.value.segment) == (ref.point, ref.segment)
                assert str(err.value) == str(ref)
            return
        for normal in NORMALS:
            want = np.einsum("psk,k->ps", g, np.eye(3)[NORMALS.index(normal)])
            one_pass = segment_kernel(verts, triple, normal)
            assert one_pass.flags.c_contiguous
            assert one_pass.T.tobytes() == (want[:, :n] - want[:, n:]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    @example(kernel_case(BENT[1:], BENT_PROBES))
    def test_matches_vector_kernel(self, case):
        # the kernel, and the blocks if every probe is above z=0, against
        # the 3-vector kernel over the polyline's segments and its image's
        # and the flattened points; blocks with a probe on z=0 are refused
        verts, starts, ends, probes, offsets = case
        pts = flat_points(probes, offsets)
        triple = kernel_triple(probes, offsets)
        m = 1 if offsets is None else 1 + len(offsets)
        n = len(verts) - 1
        ways = (False, True)
        if (np.asarray(probes[2]) == 0).any():
            ways = (False,)
            for normal in NORMALS:
                with pytest.raises(ConfigError, match="above the ground plane z=0"):
                    list(kernel_blocks(TracePath(vertices=verts), probes, normal, offsets))

        def kernel(normal, blocks):
            if not blocks:
                return segment_kernel(verts, triple, normal).T
            (lo, hi, g), = kernel_blocks(TracePath(vertices=verts), probes, normal, offsets)
            assert (lo, hi) == (0, len(pts) // m) and g.flags.c_contiguous
            return g.T

        try:
            g = vector_kernel(starts, ends, pts, n)
        except SingularityError as ref:
            for normal in NORMALS:
                for blocks in ways:
                    with pytest.raises(SingularityError) as err:
                        kernel(normal, blocks)
                    # kernel_blocks names the probe, the kernel the point
                    point = ref.point // m if blocks else ref.point
                    assert (err.value.point, err.value.segment) == (point, ref.segment)
                    assert str(err.value) == str(ref)
            return
        for normal in NORMALS:
            want = np.einsum("psk,k->ps", g, np.eye(3)[NORMALS.index(normal)])
            want = want[:, :n] - want[:, n:]
            for blocks in ways:
                assert kernel(normal, blocks).tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    @example(kernel_case(BENT, BENT_PROBES))
    def test_polyline_columns_equal_segment_calls(self, case):
        verts, _, _, probes, offsets = case
        triple = kernel_triple(probes, offsets)
        for normal in NORMALS:
            try:
                g = segment_kernel(verts, triple, normal)
            except SingularityError:
                return
            for k in range(len(verts) - 1):
                assert g[k].tobytes() == segment_kernel(verts[k:k + 2], triple, normal).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_reversed_segment_negates_column(self, case):
        verts, _, _, probes, offsets = case
        triple = kernel_triple(probes, offsets)
        try:
            fwd = [segment_kernel(verts, triple, normal) for normal in NORMALS]
        except SingularityError:
            return
        # u x r1 and u x r2 round apart, so a component that cancels to 0
        # is compared against the largest field component
        atol = 1e-12 * max(np.abs(g).max() for g in fwd)
        for normal, g in zip(NORMALS, fwd):
            rev = segment_kernel(verts[::-1], triple, normal)[::-1]
            assert_allclose(rev, -g, rtol=1e-12, atol=atol)

    def test_peak_memory_within_pair_budget(self):
        # the longest trace a config may ask for, 2,000 segments, x 200
        # points: one kernel pass over them and their images would hold
        # 8e5 pairs.  Its blocks, each contracted per axis (`grounded_h`),
        # peak near 49.5 B per pair here and 48.5 B on a 60-segment trace
        # x 2,000 points (measured, numpy 2.4); 60 B leaves 21% for
        # numpy's temporaries to differ.
        r = rng(5)
        ns = MAX_SEGMENTS
        tr = TracePath(vertices=np.column_stack([np.arange(ns + 1) * 1e-4,
                                                 r.uniform(-0.01, 0.01, ns + 1),
                                                 np.full(ns + 1, r.uniform(0.5, 1.0))]))
        currents = np.ones(ns, dtype=complex)
        points = r.uniform(2, 3, (200, 3))
        tracemalloc.start()
        try:
            grounded_h(tr, currents, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PAIRS * 60
