"""Quasi-static magnetic field of trace currents above a perfect ground plane.

The field of each straight filament segment is the exact finite-length
Biot-Savart result.  The coupling between a point and a segment depends
on geometry only, so `segment_kernel` returns it per unit current, as the
field component along one axis: an (npts, nseg) array, built from
per-axis (npts, nseg) arrays with no (npts, nseg, 3) temporary.

`kernel_blocks` is the one grounded path: it applies the image rule
(stated there) and feeds the kernel whole probes at a time, at most
`PAIRS` point x segment pairs per call (or one probe).  Callers contract
each block with the currents of as many frequencies as they need: the
scan's probe chain, and `h_trace_grounded` once per axis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, SingularityError
from .model import AXES, C_LIGHT, DriveSpec, Substrate, TracePath

#: Minimum distance from a field point to any source filament (m), 1 nm;
#: a closer point raises SingularityError.
EPS_GEOM = 1e-9

#: Most point x segment pairs per kernel call, unless one probe alone has
#: more.  A call peaks near 106 B per pair (measured), so 2**15 pairs stay
#: under 4 MB; at 30 trace segments (60 with images) a block is 546 points.
PAIRS = 2 ** 15

_FOUR_PI = 4.0 * math.pi


def _sum3(x0, x1, x2):
    """x0 + x1 + x2 rounded as (x0 + x2) + x1, the order in which numpy's
    einsum sums a length-3 axis; the kernel keeps it so that its values
    are bit-identical to the 3-vector form it replaced.  Reuses x0."""
    x0 += x2
    x0 += x1
    return x0


def segment_kernel(starts, ends, points, axis, n_real=None):
    """Component `axis` ("x", "y" or "z") of H per unit current, (npts, nseg) in A/m per A.

    Entry [i, k] is that component of H at points[i] of segment k
    carrying 1 A:

        H = (cos(theta1) - cos(theta2)) / (4*pi*rho**2) * (u x r1)

    with u the unit vector along the segment, r1/r2 the vectors from its
    endpoints to the point, cos(theta) = r.u/|r| and rho = |u x r1| the
    distance to the supporting line.  Where the point projects beyond an
    end, both cosines have one sign and their difference is evaluated as
    rho**2 (t1 - t2)(t1 + t2) / (|r1| |r2| (t1 |r2| + t2 |r1|)), t = r.u,
    which does not cancel; points on the line beyond the segment get 0.

    Each vector quantity is held as three (npts, nseg) component arrays.
    u x r1 uses np.cross's formula, and every three-term sum (dot
    products, |r|**2) is rounded in einsum's order, (x0 + x2) + x1.  The
    component is added to +0.0, as einsum's projection on a unit axis
    added it, so even an exact zero comes out as +0.0, as before.  The values thus
    equal those of the former (npts, nseg, 3) kernel projected with
    einsum, bit for bit, and every map and .s2p stays byte-identical.

    Computes every point it is given; `kernel_blocks` bounds the count.
    `n_real` marks how many leading segments are physical; later ones
    are reported as image segments.  Raises SingularityError for the
    first (point, segment) pair, in point-major order, closer than
    EPS_GEOM to the segment.
    """
    seg = ends - starts
    length = np.sqrt(np.einsum("sk,sk->s", seg, seg))
    # Component-major copies: broadcasting strided columns is several times slower.
    u = np.ascontiguousarray((seg / length[:, None]).T)
    p = np.ascontiguousarray(points.T)[:, :, None]
    r2 = p - np.ascontiguousarray(ends.T)[:, None, :]
    t2 = _sum3(r2[0] * u[0], r2[1] * u[1], r2[2] * u[2])
    n2 = np.sqrt(_sum3(r2[0] * r2[0], r2[1] * r2[1], r2[2] * r2[2]))
    del r2
    r1 = p - np.ascontiguousarray(starts.T)[:, None, :]
    t1 = _sum3(r1[0] * u[0], r1[1] * u[1], r1[2] * u[2])
    n1 = np.sqrt(_sum3(r1[0] * r1[0], r1[1] * r1[1], r1[2] * r1[2]))
    c = (u[1] * r1[2] - u[2] * r1[1],
         u[2] * r1[0] - u[0] * r1[2],
         u[0] * r1[1] - u[1] * r1[0])
    del r1
    rho2 = _sum3(c[0] * c[0], c[1] * c[1], c[2] * c[2])
    beyond = t1 * t2 > 0.0
    dist2 = np.where(beyond, np.minimum(n1, n2) ** 2, rho2)
    near = (dist2 < EPS_GEOM * EPS_GEOM) | (length == 0.0)
    if near.any():
        pt, k = divmod(int(np.argmax(near)), near.shape[1])
        image = n_real is not None and k >= n_real
        idx = k - n_real if image else k
        kind = "image segment" if image else "segment"
        raise SingularityError(
            f"field point {points[pt].tolist()} is within {EPS_GEOM} m of {kind} {idx}",
            segment=idx, point=pt, image=image)
    del dist2, near
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(beyond,
                        (t1 - t2) * (t1 + t2) / (_FOUR_PI * n1 * n2 * (t1 * n2 + t2 * n1)),
                        (t1 / n1 - t2 / n2) / (_FOUR_PI * rho2))
    out = np.zeros_like(coef)
    out += coef * c[AXES.index(axis)]
    return out


def kernel_blocks(trace: TracePath, centers, axis, offsets=None):
    """Coupling of a grounded trace to field component `axis` of probes
    at `centers`, one block at a time.

    The ground plane enters here and nowhere else.  Each segment is
    mirrored through z=0 and its image carries the negated current, which
    reverses horizontal current and preserves vertical current, enforcing
    zero normal H on the plane.  So g is a segment's `segment_kernel`
    column minus its image's: field component `axis` per unit current in
    the trace segment.

    A probe's points are its center, then center + each of `offsets` (its
    quadrature nodes) if given.  Each block holds whole probes, at most
    PAIRS // (2 * n_segments) points, and always at least one probe.
    Yields (lo, hi, g) for probes lo..hi-1, g being the block's (npts,
    n_segments) coupling, rows probe-major.  A SingularityError's `point`
    is the index of the probe in `centers`, with `image` set if the
    filament is an image.
    """
    starts, ends = trace.segment_arrays()
    n = trace.n_segments
    mirror = np.array([1.0, 1.0, -1.0])
    starts = np.vstack([starts, starts * mirror])
    ends = np.vstack([ends, ends * mirror])
    m = 1 if offsets is None else 1 + len(offsets)
    step = max(1, PAIRS // (2 * n) // m)
    for lo in range(0, len(centers), step):
        c = centers[lo:lo + step]
        pts = c if offsets is None else np.concatenate(
            [c[:, None], c[:, None] + offsets], axis=1).reshape(-1, 3)
        try:
            g = segment_kernel(starts, ends, pts, axis, n)
        except SingularityError as exc:
            exc.point = lo + exc.point // m
            raise
        g = g[:, :n] - g[:, n:]  # rebound: the next call holds no unfolded block
        yield lo, lo + len(c), g


def h_segment(start, end, current, point):
    """Field of a single straight segment in free space carrying RMS phasor
    `current` (A).

    Returns the complex (hx, hy, hz) vector in A/m:

        H = I/(4*pi*rho) * (sin(theta2) - sin(theta1)) * phi_hat

    with rho the perpendicular distance to the supporting line, theta the
    signed endpoint angles and phi_hat the right-hand circulation direction.
    """
    start = np.asarray(start, dtype=float).reshape(1, 3)
    end = np.asarray(end, dtype=float).reshape(1, 3)
    if np.array_equal(start, end):
        raise ConfigError("segment start and end must be distinct")
    p = np.asarray(point, dtype=float).reshape(1, 3)
    g = np.array([segment_kernel(start, end, p, axis)[0, 0] for axis in AXES])
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
