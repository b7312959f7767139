"""References for nfscan.fields.segment_kernel.

`segment_field_sum` does the same arithmetic as the kernel, one segment at
a time over all points, accumulating complex fields in segment order.

`vector_kernel` is the kernel as it was before it returned one component:
the full (npts, nseg, 3) field per unit current, built with np.cross and
einsum.  Projected on a normal with einsum, it must equal today's kernel
bit for bit.
"""

import numpy as np

from nfscan.errors import SingularityError
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
            segment=idx, point=pt, image=image)
    with np.errstate(divide="ignore", invalid="ignore"):
        coef = np.where(beyond,
                        (t1 - t2) * (t1 + t2) / (_FOUR_PI * n1 * n2 * (t1 * n2 + t2 * n1)),
                        (t1 / n1 - t2 / n2) / (_FOUR_PI * rho2))
    return coef[:, :, None] * c

