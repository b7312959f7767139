"""Quasi-static magnetic field of trace currents above a perfect ground plane.

The field of each straight filament segment is the exact finite-length
Biot-Savart result.  The coupling between a point and a segment depends
on geometry only, so `segment_kernel` returns it per unit current, as the
field component along one axis, for the segments of one polyline: an
(npts, nseg) array with no (npts, nseg, 3) temporary.  Point-to-vertex
distances are formed once per vertex, and the in-span formula only where
a point projects into a segment (see there).

`kernel_blocks` is the one grounded path: it applies the image rule
(stated there), calling the kernel on the trace and on its image, and
feeds it whole probes at a time, at most `PAIRS` point x segment pairs
per block, images counted (or one probe).  Callers contract each block
with the currents of as many frequencies as they need: the scan's probe
chain, and `h_trace_grounded` once per axis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, SingularityError
from .model import AXES, C_LIGHT, DriveSpec, Substrate, TracePath

#: Minimum distance from a field point to any source filament (m), 1 nm;
#: a closer point raises SingularityError.
EPS_GEOM = 1e-9

#: Most point x segment pairs per block, images counted, unless one probe
#: alone has more.  A block's two kernel calls, trace then image, each hold
#: half of them; it peaks near 50 B per pair (tracemalloc), so 2**15 pairs
#: stay under 2 MB.  At 30 trace segments a block is 546 points.
PAIRS = 2 ** 15

_FOUR_PI = 4.0 * math.pi


def _sum3(x0, x1, x2):
    """x0 + x1 + x2 rounded as (x0 + x2) + x1, the order in which numpy's
    einsum sums a length-3 axis; the kernel keeps it so that its values
    are bit-identical to the 3-vector form it replaced.  Reuses x0."""
    x0 += x2
    x0 += x1
    return x0


def segment_kernel(vertices, points, axis, image=False):
    """Component `axis` ("x", "y" or "z") of H per unit current in each
    segment of the polyline `vertices` (nv, 3): (npts, nv - 1) in A/m per A.

    Entry [i, k] is that component of H at points[i] of segment k, from
    vertex k to vertex k + 1, carrying 1 A:

        H = (cos(theta1) - cos(theta2)) / (4*pi*rho**2) * (u x r1)

    with u the unit vector along the segment, r1/r2 the vectors from its
    endpoints to the point, cos(theta) = r.u/|r| and rho = |u x r1| the
    distance to the supporting line.  Where the point projects beyond an
    end, both cosines have one sign and their difference is evaluated as
    rho**2 (t1 - t2)(t1 + t2) / (|r1| |r2| (t1 |r2| + t2 |r1|)), t = r.u,
    which does not cancel; points on the line beyond the segment get 0.

    A segment's end is the next one's start, so r = p - v and |r| are
    formed once per vertex; r1/r2 and |r1|/|r2| are views one vertex
    apart.  Every pair gets the `axis` component of u x r1 and the beyond
    coefficient; the other two components, rho**2 and the in-span formula
    only the pairs with t1 * t2 <= 0, gathered by index.  Arrays are
    segment-major per component (the result is a transposed view).  u x r1
    uses np.cross's formula, every three-term sum is rounded in einsum's
    order, (x0 + x2) + x1, and the result is added to +0.0 as einsum's
    projection on a unit axis added it, so the values equal those of the
    former (npts, nseg, 3) kernel projected with einsum, bit for bit.

    Computes every point it is given; `kernel_blocks` bounds the count.
    Raises SingularityError for the first (point, segment) pair, in
    point-major order, closer than EPS_GEOM to the segment or of zero
    length, naming the segment an image one if `image`.
    """
    verts = np.asarray(vertices, dtype=float)
    seg = verts[1:] - verts[:-1]
    npts = len(points)
    eps2 = EPS_GEOM * EPS_GEOM
    with np.errstate(divide="ignore", invalid="ignore"):
        length = np.sqrt(np.einsum("sk,sk->s", seg, seg))
        u = (seg / length[:, None]).T[:, :, None]
        # (3, nv, npts): component, vertex, point; segment k starts at vertex k.
        r = np.ascontiguousarray(points.T)[:, None, :] - verts.T[:, :, None]
        n = np.sqrt(_sum3(r[0] * r[0], r[1] * r[1], r[2] * r[2]))
        r1, r2, n1, n2 = r[:, :-1], r[:, 1:], n[:-1], n[1:]
        t1 = _sum3(r1[0] * u[0], r1[1] * u[1], r1[2] * u[2])
        t2 = _sum3(r2[0] * u[0], r2[1] * u[1], r2[2] * u[2])
        a = AXES.index(axis)
        c = u[(a + 1) % 3] * r1[(a + 2) % 3] - u[(a + 2) % 3] * r1[(a + 1) % 3]
        # In-span pairs by flat index k * npts + p, which is also that of r and n
        # at segment k's start vertex (and + npts at its end).
        i = np.flatnonzero(t1 * t2 <= 0.0)
        ri, ui = r.reshape(3, -1)[:, i], u[:, i // npts, 0]
        rho2 = _sum3(*((ui[(j + 1) % 3] * ri[(j + 2) % 3] - ui[(j + 2) % 3] * ri[(j + 1) % 3]) ** 2
                       for j in range(3)))
        # Beyond an end the nearest point of the segment is a vertex.
        nmin = n.min()
        if nmin * nmin < eps2 or (rho2 < eps2).any() or not length.all():
            near = np.minimum(n1, n2) ** 2 < eps2
            np.put(near, i, rho2 < eps2)
            near[length == 0.0] = True
            pt, k = divmod(int(np.argmax(near.T)), len(seg))
            kind = "image segment" if image else "segment"
            raise SingularityError(
                f"field point {points[pt].tolist()} is within {EPS_GEOM} m of {kind} {k}",
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
    return coef.T


def kernel_blocks(trace: TracePath, centers, axis, offsets=None):
    """Coupling of a grounded trace to field component `axis` of probes
    at `centers`, one block at a time.

    The ground plane enters here and nowhere else.  The trace is
    mirrored through z=0 and its image carries the negated current, which
    reverses horizontal current and preserves vertical current, enforcing
    zero normal H on the plane.  So g is the trace's `segment_kernel`
    block minus its image's: field component `axis` per unit current in
    each trace segment.

    A probe's points are its center, then center + each of `offsets` (its
    quadrature nodes) if given.  Each block holds whole probes, at most
    PAIRS // (2 * n_segments) points, and always at least one probe.
    Yields (lo, hi, g) for probes lo..hi-1, g being the block's C-ordered
    (npts, n_segments) coupling, rows probe-major.  A SingularityError
    names the first near pair in point-major order, a trace segment
    before an image at the same point; its `point` is the index of the
    probe in `centers`, with `image` set if the filament is an image.
    """
    verts = np.asarray(trace.vertices, dtype=float)
    mirror = verts * [1.0, 1.0, -1.0]
    m = 1 if offsets is None else 1 + len(offsets)
    step = max(1, PAIRS // (2 * trace.n_segments) // m)
    for lo in range(0, len(centers), step):
        c = centers[lo:lo + step]
        pts = c if offsets is None else np.concatenate(
            [c[:, None], c[:, None] + offsets], axis=1).reshape(-1, 3)
        try:
            try:
                g = segment_kernel(verts, pts, axis)
            except SingularityError as exc:
                if exc.point:  # an image pair at an earlier point comes first
                    segment_kernel(mirror, pts[:exc.point], axis, image=True)
                raise
            g -= segment_kernel(mirror, pts, axis, image=True)
        except SingularityError as exc:
            exc.point = lo + exc.point // m
            raise
        yield lo, lo + len(c), np.ascontiguousarray(g)


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
    g = np.array([segment_kernel(verts, p, axis)[0, 0] for axis in AXES])
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
        for lo, hi, g in kernel_blocks(trace, flat, axis):
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
