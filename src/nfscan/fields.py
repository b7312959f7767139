"""Quasi-static magnetic field of trace currents above a perfect ground plane.

The field of each straight filament segment is the exact finite-length
Biot-Savart result.  The coupling between a point and a segment depends
on geometry only, so `segment_kernel` returns it per unit current, as the
field component along one axis, for the segments of one polyline: an
(npts, nseg) array with no (npts, nseg, 3) temporary.  Its points are a
triple (x, y, z) of arrays that broadcast together, so that a raster's
per-axis work is done once per grid line (see there).

`kernel_blocks` is the one grounded path: it applies the image rule
(stated there), calling the kernel on the trace and on its image, over
blocks of whole rows, or a chunk of one row, of at most `PAIRS` point x
segment pairs, images counted (or one probe).  Callers contract each
block with the currents of the frequencies they need: the scan's probe
chain, and `h_trace_grounded` once per axis.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ConfigError, SingularityError
from .model import AXES, C_LIGHT, DriveSpec, Substrate, TracePath

#: Minimum distance from a field point to any source filament (m), 1 nm;
#: a closer point raises SingularityError.
EPS_GEOM = 1e-9

#: Most point x segment pairs per block, images counted, unless one probe
#: alone has more; each of a block's two kernel calls holds half.  A table3
#: raster block (5 rows of 201 points at 0.1 mm) peaks at 2.1 MB, 36 B per
#: pair (tracemalloc); at 2**15 pairs the scan took 17% longer.
PAIRS = 2 ** 16

_FOUR_PI = 4.0 * math.pi


def _sum3(x0, x1, x2):
    """x0 + x1 + x2 rounded as (x0 + x2) + x1, the order in which numpy's
    einsum sums a length-3 axis, which the kernel keeps for bit identity;
    a new array, each partial sum at its own broadcast shape."""
    s = x0 + x2
    return np.add(s, x1, out=s) if s.shape == np.broadcast(s, x1).shape else s + x1


def segment_kernel(vertices, points, axis, image=False):
    """Component `axis` ("x", "y" or "z") of H per unit current in each
    segment of the polyline `vertices` (nv, 3): (npts, nv - 1) in A/m per A.
    `points` is a triple (x, y, z) of arrays that broadcast to one shape S;
    the points are that broadcast in C order (an (n, 3) array's `.T` is
    such a triple).  Entry [i, k] is at point i of segment k, from vertex k
    to vertex k + 1, carrying 1 A:

        H = (cos(theta1) - cos(theta2)) / (4*pi*rho**2) * (u x r1)

    with u the unit vector along the segment, r1/r2 the vectors from its
    endpoints to the point, cos(theta) = r.u/|r| and rho = |u x r1| the
    distance to the supporting line.  Where the point projects beyond an
    end, both cosines have one sign and their difference is evaluated as
    rho**2 (t1 - t2)(t1 + t2) / (|r1| |r2| (t1 |r2| + t2 |r1|)), t = r.u,
    which does not cancel; points on the line beyond the segment get 0.

    r = p - v and |r| are formed once per vertex (r1/r2 are views one
    vertex apart), each coordinate difference, square and per-axis product
    at its own coordinate's shape: on a raster, once per grid line.  Only
    the sums that mix axes (|r|, t1, t2), the in-span mask, the beyond
    coefficient and the result are (nseg, *S).  The in-span formula runs
    only on the pairs with t1 * t2 <= 0, gathered by index.  Sums are
    rounded as the former (npts, nseg, 3) kernel's einsum projection
    rounded them, so the values equal it bit for bit.

    Computes every point it is given; `kernel_blocks` bounds the count.
    Raises SingularityError for the first (point, segment) pair, in
    point-major order, closer than EPS_GEOM to the segment or of zero
    length, naming the segment an image one if `image`.
    """
    verts = np.asarray(vertices, dtype=float)
    seg = verts[1:] - verts[:-1]
    nseg = len(seg)
    p = [np.asarray(c, dtype=float) for c in points]
    shape = np.broadcast_shapes(*(c.shape for c in p))
    npts = math.prod(shape)
    eps2 = EPS_GEOM * EPS_GEOM
    with np.errstate(divide="ignore", invalid="ignore"):
        length = np.sqrt(np.einsum("sk,sk->s", seg, seg))
        u = (seg / length[:, None]).T.reshape(3, nseg, *(1,) * len(shape))
        # Per coordinate, (nv, *its shape); segment k starts at vertex k.
        r = [c - v.reshape(-1, *(1,) * len(shape)) for c, v in zip(p, verts.T)]
        n = _sum3(r[0] * r[0], r[1] * r[1], r[2] * r[2])
        np.sqrt(n, out=n)
        r1, r2 = [rj[:-1] for rj in r], [rj[1:] for rj in r]
        n1, n2 = n[:-1], n[1:]
        t1 = _sum3(r1[0] * u[0], r1[1] * u[1], r1[2] * u[2])
        t2 = _sum3(r2[0] * u[0], r2[1] * u[1], r2[2] * u[2])
        a = AXES.index(axis)
        c = u[(a + 1) % 3] * r1[(a + 2) % 3] - u[(a + 2) % 3] * r1[(a + 1) % 3]
        # In-span pairs by flat index k * npts + q, which is also that of n
        # at segment k's start vertex (and + npts at its end).
        i = np.flatnonzero(t1 * t2 <= 0.0)
        at = np.unravel_index(i, (nseg, *shape))
        ri = [rj[(at[0],) + tuple(x if m > 1 else 0 for x, m in zip(at[1:], rj.shape[1:]))]
              for rj in r1]
        ui = u[:, at[0]].reshape(3, -1)
        rho2 = _sum3(*((ui[(j + 1) % 3] * ri[(j + 2) % 3] - ui[(j + 2) % 3] * ri[(j + 1) % 3]) ** 2
                       for j in range(3)))
        # Beyond an end the nearest point of the segment is a vertex.
        nmin = n.min()
        if nmin * nmin < eps2 or (rho2 < eps2).any() or not length.all():
            near = np.minimum(n1, n2) ** 2 < eps2
            np.put(near, i, rho2 < eps2)
            near[length == 0.0] = True
            pt, k = divmod(int(np.argmax(near.reshape(nseg, npts).T)), nseg)
            where = [float(np.broadcast_to(c, shape)[np.unravel_index(pt, shape)]) for c in p]
            kind = "image segment" if image else "segment"
            raise SingularityError(f"field point {where} is within {EPS_GEOM} m of {kind} {k}",
                                   segment=k, point=pt, image=image)
        den = _FOUR_PI * n1
        den *= n2
        w = t1 * n2
        w += t2 * n1
        den *= w
        coef = t1 - t2
        coef *= t1 + t2
        coef /= den
        t1, t2 = np.take(t1, i), np.take(t2, i)
        np.put(coef, i, (t1 / np.take(n, i) - t2 / np.take(n, i + npts)) / (_FOUR_PI * rho2))
    coef *= c
    coef += 0.0
    return coef.reshape(nseg, npts).T


def kernel_blocks(trace: TracePath, points, axis, offsets=None):
    """Coupling of a grounded trace to field component `axis` of probes
    centred at `points`, one block at a time.

    The ground plane enters here and nowhere else.  The trace is
    mirrored through z=0 and its image carries the negated current, which
    reverses horizontal current and preserves vertical current, enforcing
    zero normal H on the plane.  So g is the trace's `segment_kernel`
    block minus its image's: field component `axis` per unit current in
    each trace segment.

    `points` is a triple (x, y, z) that broadcasts to (rows, cols), probes
    in row-major order: a raster passes its grid lines, other points are
    one row.  A probe's points are its center, then center + each of
    `offsets` (its quadrature nodes) if given, the triple's trailing axis.
    A block holds at most PAIRS // (2 * n_segments) points and at least one
    probe: whole rows if a row fits, else a chunk of one row, so a flat
    range lo..hi-1.  Yields (lo, hi, g), g the block's C-ordered (npts,
    n_segments) coupling, rows probe-major.

    A SingularityError names the first near pair in point-major order, a
    trace segment before an image at the same point: if the trace is hit,
    the image runs over the whole block and is named if its first hit is
    at an earlier point.  Its `point` is the probe's index.
    """
    verts = np.asarray(trace.vertices, dtype=float)
    mirror = verts * [1.0, 1.0, -1.0]
    p = [np.atleast_2d(np.asarray(c, dtype=float)) for c in points]
    nrows, ncols = np.broadcast_shapes(*(c.shape for c in p))
    m = 1 if offsets is None else 1 + len(offsets)
    step = max(1, PAIRS // (2 * trace.n_segments) // m)
    # whole rows if a row fits, else chunks of one row
    nr, nc = max(1, step // ncols), min(step, ncols)
    for r0, c0 in itertools.product(range(0, nrows, nr), range(0, ncols, nc)):
        lo = r0 * ncols + c0
        pts = [c[r0:r0 + nr] if len(c) > 1 else c for c in p]  # a size-1 axis stays whole
        pts = [c[:, c0:c0 + nc] if c.shape[1] > 1 else c for c in pts]
        if offsets is not None:
            pts = [np.concatenate([c[..., None], c[..., None] + o], axis=-1)
                   for c, o in zip(pts, np.asarray(offsets, dtype=float).T)]
        try:
            g = segment_kernel(verts, pts, axis)
            g -= segment_kernel(mirror, pts, axis, image=True)
        except SingularityError as exc:
            err = exc
            try:  # if the trace is hit, an image hit at an earlier point comes first
                if not exc.image:
                    segment_kernel(mirror, pts, axis, image=True)
            except SingularityError as img:
                err = img if img.point < exc.point else exc
            err.point = lo + err.point // m
            raise err from None
        yield lo, lo + len(g) // m, np.ascontiguousarray(g)


def h_segment(start, end, current, point):
    """Field of a single straight segment in free space carrying RMS phasor
    `current` (A).

    Returns the complex (hx, hy, hz) vector in A/m:

        H = I/(4*pi*rho) * (sin(theta2) - sin(theta1)) * phi_hat

    with rho the perpendicular distance to the supporting line, theta the
    signed endpoint angles and phi_hat the right-hand circulation direction.
    """
    verts = np.array([start, end], dtype=float).reshape(2, 3)
    if np.array_equal(verts[0], verts[1]):
        raise ConfigError("segment start and end must be distinct")
    p = np.asarray(point, dtype=float).reshape(1, 3)
    g = np.array([segment_kernel(verts, p.T, axis)[0, 0] for axis in AXES])
    return g * complex(current)


def h_trace_grounded(trace: TracePath, currents, points):
    """Field of a grounded trace (see `kernel_blocks`), one pass per axis.

    `currents` is one complex RMS phasor per trace segment.  `points` may
    be a single (3,) point or an (n, 3) array; the result matches.
    """
    currents = np.asarray(currents, dtype=complex)
    if currents.shape != (trace.n_segments,):
        raise ConfigError(
            f"currents: expected {trace.n_segments} per-segment values, got {currents.shape}")
    pts = np.asarray(points, dtype=float)
    flat = np.atleast_2d(pts)
    out = np.empty((len(flat), 3), dtype=complex)
    for k, axis in enumerate(AXES):
        for lo, hi, g in kernel_blocks(trace, flat.T, axis):
            out[lo:hi, k] = g @ currents
    return out[0] if pts.ndim == 1 else out


def closed_form_line_h(y, h, i_rms):
    """|H| above an infinite horizontal line current over a ground plane.

    At height y above a filament that sits h above the plane, the filament
    and its antiparallel image give

        |H| = I * (1/y - 1/(y + 2h)) / (2*pi)  =  I * h / (pi * y * (y + 2h))

    Serves as the closed-form oracle for the numeric segment sum.
    """
    if y <= 0 or h <= 0 or i_rms < 0:
        raise ConfigError("closed_form_line_h requires y > 0, h > 0, i_rms >= 0")
    return i_rms * (1.0 / y - 1.0 / (y + 2.0 * h)) / (2.0 * math.pi)


def eps_eff_hammerstad(eps_r, h, width):
    """Static effective permittivity of a microstrip (Hammerstad)."""
    return (eps_r + 1.0) / 2.0 + (eps_r - 1.0) / 2.0 / math.sqrt(1.0 + 12.0 * h / width)


def current_distribution(trace: TracePath, f, drive: DriveSpec, substrate: Substrate):
    """Per-segment RMS current phasors along the trace at frequency f.

    matched:  traveling wave, uniform |I| = sqrt(P/Z0) and phase -beta*l
              at each segment midpoint arclength l from the feed.
    open:     standing wave |I| ~ |sin(beta*l')|, l' from the far end
              (current null at the open end).
    short:    standing wave |I| ~ |cos(beta*l')| (current antinode at the
              short).

    beta = 2*pi*f*sqrt(eps_eff)/c with the Hammerstad eps_eff.
    """
    if f <= 0:
        raise ConfigError("frequency must be > 0")
    i0 = math.sqrt(drive.power / trace.z0_line)
    eps_eff = eps_eff_hammerstad(substrate.eps_r, substrate.h, trace.width)
    beta = 2.0 * math.pi * f * math.sqrt(eps_eff) / C_LIGHT
    mid = trace.arclengths()
    if trace.termination == "matched":
        return i0 * np.exp(-1j * beta * mid)
    verts = np.asarray(trace.vertices, dtype=float)
    total = float(np.linalg.norm(np.diff(verts, axis=0), axis=1).sum())
    from_end = total - mid
    if trace.termination == "open":
        return i0 * np.sin(beta * from_end).astype(complex)
    return i0 * np.cos(beta * from_end).astype(complex)  # short
