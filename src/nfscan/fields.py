"""Quasi-static magnetic field of trace currents above a perfect ground plane.

The field of each straight filament segment is the exact finite-length
Biot-Savart result.  `segment_kernel` returns, per unit current, the
coupling of each segment of one planar polyline, less its ground-plane
image's, to one field component at points given as a triple (x, y, z)
that broadcasts, so that a raster's per-axis work is done once per grid
line; its docstring states the whole algorithm.  `kernel_blocks` is its
one caller: one kernel pass per block of whole rows, or a chunk of one
row, of at most `PAIRS` point x segment pairs, images counted (or one
probe).  The scan's probe chain contracts each block, in its (segments,
points) layout, with the currents of every sweep frequency.
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
#: alone has more; the block's one kernel pass holds the trace's half
#: and the image's.  A table3 raster block (10 rows of 201 points at
#: 0.1 mm) peaks at 2.5 MB, 21 B per pair (tracemalloc).  In-process scans
#: of table3 at 0.1 mm, 5 frequencies, took 67, 51, 45 and 48 ms at 2**15,
#: 2**16, 2**17 and 2**18 pairs (CPU time, medians of 15 interleaved
#: rounds, a shared 2-core x86-64 host).
PAIRS = 2 ** 17

_FOUR_PI = 4.0 * math.pi


def _sum(first, *rest):
    """first + rest[0] + ..., added left to right, each partial sum at its
    own broadcast shape; `first` is a new array the caller gives up.  The
    kernel adds the x, z and y terms of a 3-vector sum in that order,
    the order in which numpy's einsum sums a length-3 axis, for bit
    identity."""
    s = first
    for x in rest:
        s = np.add(s, x, out=s) if s.shape == np.broadcast_shapes(s.shape, x.shape) else s + x
    return s


def segment_kernel(vertices, points, axis):
    """Component `axis` ("x", "y" or "z") of H per unit current in each
    segment of the polyline `vertices` (nv, 3): (nv - 1, npts) in A/m per A.
    Unchecked, as TracePath and `kernel_blocks` check it: the vertices are
    at one height h > 0, each segment's squared length is a nonzero finite
    double, and the points are finite with z >= 0.
    `points` is a triple (x, y, z) of arrays that broadcast to one shape S;
    the points are that broadcast in C order (an (n, 3) array's `.T` is
    such a triple).  Entry [k, i] is at point i of segment k, from vertex k
    to vertex k + 1, carrying 1 A:

        H = (cos(theta1) - cos(theta2)) / (4*pi*rho**2) * (u x r1)

    with u the unit vector along the segment, r1/r2 the vectors from its
    endpoints to the point, cos(theta) = r.u/|r| and rho = |u x r1| the
    distance to the supporting line.  Where the point projects beyond an
    end, both cosines have one sign and their difference is evaluated as
    rho**2 (t1 - t2)(t1 + t2) / (|r1| |r2| (t1 |r2| + t2 |r1|)), t = r.u,
    which does not cancel; points on the line beyond the segment get 0.

    The polyline lies at height h above a perfect ground plane z=0.  Its
    image, mirrored through z=0, is the same polyline at height -h
    carrying the negated current, so that H normal to the plane is zero
    on it.  The result is each segment's coupling minus its image's,
    both sides in this one pass.

    r = p - v and |r| are formed once per vertex (r1/r2 are views one
    vertex apart), each coordinate difference, square and per-axis
    product at its own coordinate's shape: on a raster, once per grid
    line.  The image shares u, r_x and r_y, and its r_z is p_z + h.
    u_z is 0, so t = r.u leaves out z, and also an in-plane axis along
    which no segment runs, which drops only a signed zero.  So t1, t2,
    the in-span mask (t1 * t2 <= 0), the pairs it selects and
    (t1 - t2)(t1 + t2) keep the shape of the axes left, and the polyline
    and its image share them.  Per side, only |r|, the beyond-end
    denominator and the result are (nseg, *S).  The in-span formula runs
    only on the in-span pairs, gathered by one flat index per array
    shape; the polyline and its image share all of it but the gathered
    r1_z and |r|.  As u_z = 0, the x, z and y components of u x r1 are
    u_y r1_z, (u_x r1_y - u_y r1_x) and -u_x r1_z, up to the sign of a
    zero, and rho**2 adds their squares in that order.  Sums are rounded
    as the former (npts, nseg, 3) kernel's einsum projection rounded them
    (see `_sum`), so the values equal it bit for bit.  Squares are
    products, never `**`, which on a numpy scalar (a gather from an array
    of size-1 axes, as u is for one segment) calls libm pow.  A signed
    zero in t reaches no output: the mask and the in-span formula do not
    see its sign, the beyond-end formula runs only where t1 * t2 > 0, and
    the result gets + 0.0.

    Computes every point it is given; `kernel_blocks` bounds the count.
    Raises SingularityError for the first (point, segment) pair, in
    point-major order, closer than EPS_GEOM to the segment, before any
    division.  As u_z = 0 and |p_z - h| <= p_z + h, each image term of
    |r| and rho**2 is at least its polyline term (in doubles too), so only
    the polyline is searched.
    """
    verts = np.asarray(vertices, dtype=float)
    seg = verts[1:] - verts[:-1]
    nseg = len(seg)
    p = [np.asarray(c, dtype=float) for c in points]
    shape = np.broadcast_shapes(*(c.shape for c in p))
    npts, one = math.prod(shape), (1,) * len(shape)
    full = (nseg, *shape)
    a = AXES.index(axis)
    with np.errstate(divide="ignore", invalid="ignore"):
        length = np.sqrt(np.einsum("sk,sk->s", seg, seg))
        u = list((seg / length[:, None]).T.reshape(3, nseg, *one))
        # Per coordinate, (nv, *its shape); segment k starts at vertex k.
        r = [c - v.reshape(-1, *one) for c, v in zip(p, verts.T)]
        live = [j for j in (0, 1) if u[j].any()]
        t1 = _sum(*(r[j][:-1] * u[j] for j in live))
        t2 = _sum(*(r[j][1:] * u[j] for j in live))
        i = np.flatnonzero(np.broadcast_to(t1 * t2 <= 0.0, full))
        at = np.unravel_index(i, full)
        flat = {full: i}

        def pick(x):
            """x's entries at the in-span pairs; one flat index per shape."""
            k = flat.get(x.shape)
            if k is None:
                k = flat[x.shape] = np.ravel_multi_index(
                    tuple(ix if m > 1 else 0 for ix, m in zip(at, x.shape)), x.shape)
            return x.take(k)

        num = t1 - t2
        num *= t1 + t2
        ti1, ti2, ux, uy = pick(t1), pick(t2), pick(u[0]), pick(u[1])
        plane = np.square(ux * pick(r[1][:-1]) - uy * pick(r[0][:-1]))

        def geometry(rz):
            """One side's |r|, (nv, *S), and rho**2 at the in-span pairs."""
            # The squares are formed per side: per grid line on a raster, but
            # full size on scattered points, where keeping them for the image
            # would hold two more full-size arrays.
            n = _sum(r[0] * r[0] + rz * rz, r[1] * r[1])
            np.sqrt(n, out=n)
            z1 = pick(rz[:-1])
            return n, _sum(np.square(uy * z1), plane, np.square(ux * z1))

        def coupling(rz, n, rho2):
            """One side's (nseg, *S) coupling to axis `a`."""
            r1 = [r[0][:-1], r[1][:-1], rz[:-1]]
            c = u[(a + 1) % 3] * r1[(a + 2) % 3] - u[(a + 2) % 3] * r1[(a + 1) % 3]
            n1, n2 = n[:-1], n[1:]
            den = t2 * n1  # w's second term, then the denominator
            w = t1 * n2
            w += den
            np.multiply(_FOUR_PI, n1, out=den)
            den *= n2
            den *= w
            coef = np.divide(num, den, out=den)
            np.put(coef, i, (ti1 / n.take(i) - ti2 / n.take(i + npts)) / (_FOUR_PI * rho2))
            coef *= c
            return coef

        n, rho2 = geometry(r[2])
        # Beyond an end the nearest point of the segment is a vertex.
        eps2 = EPS_GEOM * EPS_GEOM
        if np.square(n.min()) < eps2 or (rho2 < eps2).any():
            near = np.square(np.minimum(n[:-1], n[1:])) < eps2
            np.put(near, i, rho2 < eps2)
            pt, k = divmod(int(np.argmax(near.reshape(nseg, npts).T)), nseg)
            where = [float(np.broadcast_to(c, shape)[np.unravel_index(pt, shape)]) for c in p]
            raise SingularityError(f"field point {where} is within {EPS_GEOM} m of segment {k}",
                                   segment=k, point=pt)
        g = coupling(r[2], n, rho2)
        del n, rho2  # the trace's, before the image's are formed
        r[2] = p[2] + verts[:, 2].reshape(-1, *one)  # the image: only r_z changes
        coef = coupling(r[2], *geometry(r[2]))
    g -= coef
    g += 0.0
    return g.reshape(nseg, npts)


def kernel_blocks(trace: TracePath, points, axis, offsets=None):
    """Coupling of a trace over the ground plane to field component `axis`
    of probes centred at `points`, one block at a time.

    Each block is one `segment_kernel` pass (see there for the image
    rule): field component `axis` per unit current in each trace segment.

    `points` is a triple (x, y, z) that broadcasts to (rows, cols), probes
    in row-major order: a raster passes its grid lines, other points are
    one row.  A probe's points are its center, then center + each of
    `offsets` (its quadrature nodes) if given, the triple's trailing axis.
    A block holds at most PAIRS // (2 * n_segments) points and at least one
    probe: whole rows if a row fits, else a chunk of one row, so a flat
    range lo..hi-1.  Yields (lo, hi, g), g the block's C-ordered
    (n_segments, npts) coupling, columns probe-major.

    A ConfigError names the first center, in row-major order, that is not
    finite or not above the ground plane, before any kernel pass (`offsets`
    are horizontal).  A SingularityError names the first near pair in
    point-major order; its `point` is the probe's index.
    """
    verts = np.asarray(trace.vertices, dtype=float)
    p = [np.atleast_2d(np.asarray(c, dtype=float)) for c in points]
    nrows, ncols = np.broadcast_shapes(*(c.shape for c in p))
    # per grid line; the first bad point is located only on the error path
    ok = [np.isfinite(p[0]), np.isfinite(p[1]), (p[2] > 0) & (p[2] < math.inf)]
    if not all(o.all() for o in ok):
        at = np.unravel_index(np.argmin(ok[0] & ok[1] & ok[2]), (nrows, ncols))
        where = [float(np.broadcast_to(c, (nrows, ncols))[at]) for c in p]
        raise ConfigError(f"field point {where} must be finite and above the ground plane z=0")
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
        except SingularityError as err:
            err.point = lo + err.point // m
            raise
        yield lo, lo + g.shape[1] // m, g


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

    beta = 2*pi*f*sqrt(eps_eff)/c with the Hammerstad eps_eff.  `f` is one
    frequency, giving (segments,) currents, or a sweep's 1-D array of
    them, giving (segments, nf): the trace's geometry is then worked out
    once, and each column holds the same doubles as a call at its frequency.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ConfigError("frequency must be > 0")
    i0 = math.sqrt(drive.power / trace.z0_line)
    eps_eff = eps_eff_hammerstad(substrate.eps_r, substrate.h, trace.width)
    beta = 2.0 * math.pi * f * math.sqrt(eps_eff) / C_LIGHT
    mid = trace.arclengths()
    if trace.termination == "matched":
        return i0 * np.exp(-1j * np.multiply.outer(mid, beta))
    verts = np.asarray(trace.vertices, dtype=float)
    total = float(np.linalg.norm(np.diff(verts, axis=0), axis=1).sum())
    phase = np.multiply.outer(total - mid, beta)
    if trace.termination == "open":
        return i0 * np.sin(phase).astype(complex)
    return i0 * np.cos(phase).astype(complex)  # short
