"""References for nfscan.fields.segment_kernel.

`segment_field_sum` does the same arithmetic as the kernel, one segment at
a time over all points, accumulating complex fields in segment order.

`vector_kernel` is the kernel as it was before it returned one component:
the full (npts, nseg, 3) field per unit current, built with np.cross and
einsum.  Projected on a normal with einsum, it must equal today's kernel
bit for bit.

`decimal_h` is one segment's field in 50-digit decimal arithmetic, and
`closed_form_line_h` the field above an infinite line over ground.

`stokes_flux_z` is the flux of H through a horizontal square loop by
Stokes' theorem, from the closed-form vector potential of each filament
and its image: no node grid over the loop's area.
"""

import math
from decimal import Decimal, localcontext

import numpy as np

from nfscan.errors import ConfigError, SingularityError
from nfscan.fields import EPS_GEOM

_FOUR_PI = 4.0 * np.pi


def segment_arrays(trace):
    """(starts, ends) of a TracePath's segments, (n_segments, 3) each."""
    verts = np.asarray(trace.vertices, dtype=float)
    return verts[:-1], verts[1:]


def segment_field_sum(starts, ends, currents, points, eps, out):
    """Sum Biot-Savart fields of straight filament segments at many points.

    H contribution of one segment with RMS current phasor I is

        H = I * (r1.u/|r1| - r2.u/|r2|) / (4*pi*rho**2) * (u x r1)

    with u the unit vector along the segment, r1/r2 the vectors from its
    endpoints to the field point and rho = |u x r1|.  Where both r.u have
    one sign the cosine difference is taken in its cancellation-free form.

    Writes into `out` (npts, 3) complex128.  Returns -1 on success, or
    ``point_index * n_segments + segment_index`` for the first point/segment
    pair (in point-major order) closer than `eps` to the segment.
    """
    ns = starts.shape[0]
    out[:] = 0.0
    code = -1
    for k in range(ns):
        a = starts[k]
        b = ends[k]
        seg = b - a
        ll = float(np.linalg.norm(seg))
        if ll == 0.0:
            code = _first_code(np.ones(points.shape[0], dtype=bool), k, ns, code)
            continue
        u = seg / ll
        r1 = points - a
        r2 = points - b
        c = np.cross(np.broadcast_to(u, r1.shape), r1)
        rho2 = np.einsum("ij,ij->i", c, c)
        t1, t2 = r1 @ u, r2 @ u
        n1, n2 = np.linalg.norm(r1, axis=1), np.linalg.norm(r2, axis=1)
        beyond = t1 * t2 > 0
        near = np.where(beyond, np.minimum(n1, n2) ** 2, rho2) < eps * eps
        if near.any():
            code = _first_code(near, k, ns, code)
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = np.where(beyond,
                            (t1 - t2) * (t1 + t2) / (_FOUR_PI * n1 * n2 * (t1 * n2 + t2 * n1)),
                            (t1 / n1 - t2 / n2) / (_FOUR_PI * rho2))
        out += (currents[k] * coef)[:, None] * c
    return code


def _first_code(mask, k, ns, best):
    code = int(np.argmax(mask)) * ns + k
    return code if best < 0 or code < best else best


def vector_kernel(starts, ends, points, n_real=None):
    """Real field per unit current, (npts, nseg, 3) in A/m per A."""
    seg = ends - starts
    length = np.sqrt(np.einsum("sk,sk->s", seg, seg))
    u = seg / length[:, None]
    r1 = points[:, None, :] - starts
    r2 = points[:, None, :] - ends
    c = np.cross(u, r1)
    rho2 = np.einsum("psk,psk->ps", c, c)
    t1 = np.einsum("psk,sk->ps", r1, u)
    t2 = np.einsum("psk,sk->ps", r2, u)
    n1 = np.sqrt(np.einsum("psk,psk->ps", r1, r1))
    n2 = np.sqrt(np.einsum("psk,psk->ps", r2, r2))
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
            segment=idx, point=pt)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(beyond,
                        (t1 - t2) * (t1 + t2) / (_FOUR_PI * n1 * n2 * (t1 * n2 + t2 * n1)),
                        (t1 / n1 - t2 / n2) / (_FOUR_PI * rho2))
    return coef[:, :, None] * c


def decimal_h(start, end, point):
    """H per unit current of the segment start -> end at `point`, as three
    floats rounded from 50-digit decimal arithmetic on the exact inputs:

        H = (cos(theta1) - cos(theta2)) / (4*pi*rho**2) * (u x r1)

    cos(theta) = r.u/|r|.  Beyond an end, where both cosines have one sign,
    the difference is taken as rho**2 (t1**2 - t2**2) / (|r1| |r2| (t1 |r2|
    + t2 |r1|)), t = r.u, so that rho**2 cancels and a point near the axis
    loses no digits.  4*pi is the double the kernel uses, so only the
    kernel's rounding differs."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, p = ([Decimal(float(c)) for c in v] for v in (start, end, point))
        seg = [y - x for x, y in zip(a, b)]
        u = [c / sum(c * c for c in seg).sqrt() for c in seg]
        r1 = [x - y for x, y in zip(p, a)]
        r2 = [x - y for x, y in zip(p, b)]
        c = [u[(j + 1) % 3] * r1[(j + 2) % 3] - u[(j + 2) % 3] * r1[(j + 1) % 3]
             for j in range(3)]
        t1, t2 = (sum(x * y for x, y in zip(r, u)) for r in (r1, r2))
        n1, n2 = (sum(x * x for x in r).sqrt() for r in (r1, r2))
        four_pi = Decimal(4.0 * math.pi)
        if t1 * t2 > 0:
            coef = (t1 * t1 - t2 * t2) / (four_pi * n1 * n2 * (t1 * n2 + t2 * n1))
        else:
            coef = (t1 / n1 - t2 / n2) / (four_pi * sum(x * x for x in c))
        return [float(coef * x) for x in c]


def closed_form_line_h(y, h, i_rms):
    """|H| above an infinite horizontal line current over a ground plane.

    At height y above a filament that sits h above the plane, the filament
    and its antiparallel image give

        |H| = I * (1/y - 1/(y + 2h)) / (2*pi)  =  I * h / (pi * y * (y + 2h))
    """
    if y <= 0 or h <= 0 or i_rms < 0:
        raise ConfigError("closed_form_line_h requires y > 0, h > 0, i_rms >= 0")
    return i_rms * (1.0 / y - 1.0 / (y + 2.0 * h)) / (2.0 * math.pi)


def stokes_flux_z(starts, ends, currents, center, side, n=64):
    """Flux of H (A m) up through the horizontal square loop of side `side`
    centred at `center`, from the segments (starts, ends) carrying
    `currents` and their images through z=0 carrying the negated currents.

    By Stokes' theorem the flux is (1/mu0) times the loop integral of A,
    with A per unit current of a straight filament

        A / mu0 = u (asinh(t1/rho) - asinh(t2/rho)) / (4*pi)

    (u its unit vector, t = r.u from each end, rho the distance to its
    line).  The integral runs counterclockwise seen from +z, with `n`
    Gauss-Legendre nodes per edge.  A is parallel to its segment, so an
    image, whose u is the trace's for a planar trace, differs only in rho
    and t."""
    x, w = np.polynomial.legendre.leggauss(n)
    s, w = (x + 1.0) / 2.0, w / 2.0          # nodes and weights on [0, 1]
    half = side / 2.0
    corners = np.asarray(center, dtype=float) + half * np.array(
        [[-1.0, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0], [-1, -1, 0]])
    edges = np.diff(corners, axis=0)                                   # (4, 3)
    nodes = (corners[:-1, None, :] + s[None, :, None] * edges[:, None, :]).reshape(-1, 3)
    mirror = np.array([1.0, 1.0, -1.0])
    total = 0.0
    for a, b, sign in ((starts, ends, 1.0), (starts * mirror, ends * mirror, -1.0)):
        seg = b - a
        u = seg / np.linalg.norm(seg, axis=1)[:, None]
        r1 = nodes[:, None, :] - a
        t1 = np.einsum("psk,sk->ps", r1, u)
        t2 = np.einsum("psk,sk->ps", nodes[:, None, :] - b, u)
        rho = np.linalg.norm(np.cross(u, r1), axis=2)
        pot = (np.arcsinh(t1 / rho) - np.arcsinh(t2 / rho)) / _FOUR_PI    # (nodes, segs)
        along = (edges @ u.T)                                             # (4, segs) = u . dl
        total = total + sign * np.einsum("eqs,q,es->s", pot.reshape(4, n, -1), w, along)
    return complex(np.dot(total, currents))
