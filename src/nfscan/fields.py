"""Quasi-static magnetic field of trace currents above a perfect ground plane.

The field of each straight filament segment is the exact finite-length
Biot-Savart result; the ground plane is handled with image theory: every
segment is mirrored through z=0 and its current phasor negated, which
reverses horizontal current (and preserves vertical current), enforcing
zero normal H on the plane.

The coupling between a point and a segment depends on geometry only, so
`segment_kernel` returns it per unit current, one chunk of points at a
time; callers contract it with the currents of as many frequencies as
they need.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, SingularityError
from .model import C_LIGHT, DriveSpec, Substrate, TracePath

#: Minimum distance from a field point to any source filament (m), 1 nm;
#: a closer point raises SingularityError.
EPS_GEOM = 1e-9

#: Most evaluation points per kernel call in `segment_fields`; bounds each
#: kernel temporary at CHUNK x segments x 3 doubles.  The probe chain in
#: `nfscan.scan` puts whole probes in each call, so one call there takes
#: at most max(CHUNK, 1 + quad_n**2) points.
CHUNK = 512

_FOUR_PI = 4.0 * math.pi


def segment_kernel(starts, ends, points, n_real=None):
    """Real field per unit current, (npts, nseg, 3) in A/m per A.

    Entry [i, k] is the field at points[i] of segment k carrying 1 A:

        H = (cos(theta1) - cos(theta2)) / (4*pi*rho**2) * (u x r1)

    with u the unit vector along the segment, r1/r2 the vectors from its
    endpoints to the point, cos(theta) = r.u/|r| and rho = |u x r1| the
    distance to the supporting line.  Where the point projects beyond an
    end, both cosines have one sign and their difference is evaluated as
    rho**2 (t1 - t2)(t1 + t2) / (|r1| |r2| (t1 |r2| + t2 |r1|)), t = r.u,
    which does not cancel; points on the line beyond the segment get 0.

    Computes every point it is given; callers bound the count (CHUNK in
    `segment_fields`).  `n_real` marks how many leading segments are
    physical; later ones are reported as image segments.  Raises
    SingularityError for the first (point, segment) pair, in point-major
    order, closer than EPS_GEOM to the segment.
    """
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


def segment_fields(starts, ends, currents, points, n_real=None):
    """Field (npts, 3) complex, A/m, of filament segments with given currents.

    `n_real` marks how many leading segments are physical; indices at or
    beyond it are reported as image segments in singularity errors, whose
    point index refers to `points`.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    currents = np.asarray(currents, dtype=complex)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty((points.shape[0], 3), dtype=complex)
    for lo in range(0, len(points), CHUNK):
        try:
            g = segment_kernel(starts, ends, points[lo:lo + CHUNK], n_real)
        except SingularityError as exc:
            exc.point += lo
            raise
        out[lo:lo + CHUNK] = np.einsum("psk,s->pk", g, currents)
    return out


def h_segment(start, end, current, point):
    """Field of a single straight segment carrying RMS phasor `current` (A).

    Returns the complex (hx, hy, hz) vector in A/m:

        H = I/(4*pi*rho) * (sin(theta2) - sin(theta1)) * phi_hat

    with rho the perpendicular distance to the supporting line, theta the
    signed endpoint angles and phi_hat the right-hand circulation direction.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    if np.array_equal(start, end):
        raise ConfigError("segment start and end must be distinct")
    return segment_fields(start[None, :], end[None, :], [complex(current)], point)[0]


def mirrored_segments(starts, ends, currents):
    """Extend segment arrays with their ground-plane images.

    Images are mirrored through z=0 with negated current, the perfect
    electric conductor rule for arbitrary current direction.
    """
    m_starts = starts.copy()
    m_ends = ends.copy()
    m_starts[:, 2] *= -1.0
    m_ends[:, 2] *= -1.0
    all_starts = np.vstack([starts, m_starts])
    all_ends = np.vstack([ends, m_ends])
    all_currents = np.concatenate([currents, -np.asarray(currents, dtype=complex)])
    return all_starts, all_ends, all_currents


def h_trace_grounded(trace: TracePath, currents, points):
    """Field of a grounded trace: segments plus their images.

    `currents` is one complex RMS phasor per trace segment.  `points` may
    be a single (3,) point or an (n, 3) array; the result matches.
    """
    starts, ends = trace.segment_arrays()
    currents = np.asarray(currents, dtype=complex)
    if currents.shape != (trace.n_segments,):
        raise ConfigError(
            f"currents: expected {trace.n_segments} per-segment values, got {currents.shape}")
    s, e, c = mirrored_segments(starts, ends, currents)
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    out = segment_fields(s, e, c, pts, n_real=trace.n_segments)
    return out[0] if single else out


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
    if trace.termination == "short":
        return i0 * np.cos(beta * from_end).astype(complex)
    raise ConfigError(f"trace.termination: unsupported value {trace.termination!r}")
