"""Independent reference physics and file readers for output checks.

Nothing here imports nfscan: the benchmark checks the program against
its own finite-segment Biot-Savart sum with ground-plane images, its own
current distribution and probe chain, and its own parsers.  Units are SI.
"""

import math

import numpy as np

MU_0 = 4e-7 * math.pi
C_LIGHT = 299792458.0
STANDARD_CONSTANT_DB = 34.0


# ---------------------------------------------------------------------------
# Physics

def segments_from_config(doc):
    """(starts, ends) in metres of the subdivided trace of a JSON config."""
    h_sub = doc["substrate"]["h"] * 1e-3
    verts = [np.array([x * 1e-3, y * 1e-3, h_sub]) for x, y in doc["trace"]["vertices"]]
    max_len = doc["trace"]["max_segment"] * 1e-3
    pts = [verts[0]]
    for a, b in zip(verts, verts[1:]):
        n = max(1, math.ceil(float(np.linalg.norm(b - a)) / max_len))
        pts.extend(a + (b - a) * (k / n) for k in range(1, n + 1))
    pts = np.array(pts)
    return pts[:-1], pts[1:]


def matched_currents(doc, starts, ends, f):
    """Travelling-wave RMS currents at segment midpoints (matched line)."""
    sub, tr = doc["substrate"], doc["trace"]
    h, w, eps_r = sub["h"] * 1e-3, tr["width"] * 1e-3, sub["eps_r"]
    eps_eff = (eps_r + 1) / 2 + (eps_r - 1) / 2 / math.sqrt(1 + 12 * h / w)
    beta = 2 * math.pi * f * math.sqrt(eps_eff) / C_LIGHT
    lengths = np.linalg.norm(ends - starts, axis=1)
    mid = np.cumsum(lengths) - lengths / 2
    return math.sqrt(drive_power(doc) / tr["z0"]) * np.exp(-1j * beta * mid)


def drive_power(doc):
    return 10.0 ** (doc["drive"]["power_dbm"] / 10.0) * 1e-3


def h_field(starts, ends, currents, points):
    """Complex H (npts, 3) of the segments and their images below z = 0.

    Each segment contributes I/(4 pi rho) (cos a1 - cos a2) phi_hat, with
    rho the distance to its supporting line; an image is the segment
    mirrored through z = 0 carrying -I.
    """
    mirror = np.array([1.0, 1.0, -1.0])
    a = np.concatenate([starts, starts * mirror])
    b = np.concatenate([ends, ends * mirror])
    cur = np.concatenate([currents, -currents])
    u = (b - a) / np.linalg.norm(b - a, axis=1)[:, None]
    r1 = points[:, None, :] - a[None]
    r2 = points[:, None, :] - b[None]
    along = np.einsum("psk,sk->ps", r1, u)
    rho_vec = r1 - along[..., None] * u[None]
    rho = np.linalg.norm(rho_vec, axis=2)
    cos1 = along / np.linalg.norm(r1, axis=2)
    cos2 = np.einsum("psk,sk->ps", r2, u) / np.linalg.norm(r2, axis=2)
    phi_hat = np.cross(np.broadcast_to(u, rho_vec.shape), rho_vec) / rho[..., None]
    mag = (cos1 - cos2) / (4 * math.pi * rho)
    return np.einsum("ps,s,psk->pk", mag, cur, phi_hat)


def quad_nodes(center, side, n):
    """Gauss-Legendre nodes (n*n, 3) and weights over a flat square loop."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = side / 2
    gx, gy = np.meshgrid(x, x, indexing="ij")
    nodes = np.column_stack([center[0] + half * gx.ravel(), center[1] + half * gy.ravel(),
                             np.full(n * n, center[2])])
    return nodes, np.outer(w, w).ravel() * half * half


def port_chain(flux, f, doc):
    """(v_port, s21) of a matched-halving loop for flux = integral of H.n."""
    v = -1j * 2 * math.pi * f * MU_0 * flux / 2
    return v, v / math.sqrt(doc["probe"].get("port_z", 50.0) * drive_power(doc))


def geometry_term_db(d, h, kernel):
    g = d / (math.pi * h * (h + 2 * d)) if kernel == "paper" else h / (math.pi * d * (d + 2 * h))
    return 20 * math.log10(g)


def cf_db(s21, d, h, kernel):
    """Antenna factor CF_dB = 20 log10 G - S21_dB - 34."""
    return geometry_term_db(d, h, kernel) - 20 * np.log10(np.abs(s21)) - STANDARD_CONSTANT_DB


def db(x):
    return 20 * np.log10(np.abs(x))


# ---------------------------------------------------------------------------
# Files

def read_header_csv(path):
    """('#' key: value header dict, numeric body rows as float array)."""
    header = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body_at = len(lines)
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_at = i
            break
        key, sep, val = line[1:].partition(":")
        if sep:
            header[key.strip()] = val.strip()
    body = np.array([[float(c) for c in row.split(",")] for row in lines[body_at:]])
    return header, body


def read_touchstone_s21(path):
    """(f_hz, complex S21) of a 2-port RI Touchstone file in GHz or Hz."""
    unit = 1e9
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.partition("!")[0].strip()
            if line.startswith("#"):
                unit = 1.0 if line.split()[1].lower() == "hz" else 1e9
            elif line:
                rows.append([float(t) for t in line.split()])
    rows = np.array(rows)
    return rows[:, 0] * unit, rows[:, 3] + 1j * rows[:, 4]


def write_touchstone_s21(path, f_hz, s21):
    """2-port RI Touchstone in Hz with S11 = S22 = 0 and S12 = S21."""
    lines = ["! ports: 2", "# Hz S RI R 50"]
    for f, s in zip(f_hz, s21):
        lines.append(" ".join(repr(float(v)) for v in
                              (f, 0.0, 0.0, s.real, s.imag, s.real, s.imag, 0.0, 0.0)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_db_map(path, grid, f_hz, component, values, meta):
    """Map CSV (nfscan-map 1 layout) of a dB map; grid keys in metres."""
    lines = ["# nfscan-map 1"]
    for key in ("x_min", "x_max", "y_min", "y_max", "dx", "dy", "z_height"):
        lines.append(f"# {key}: {float(grid[key])!r}")
    lines += [f"# f_hz: {float(f_hz)!r}", f"# component: {component}", "# value_kind: db"]
    lines += [f"# meta.{k}: {meta[k]}" for k in sorted(meta)]
    lines += [",".join(map(repr, row)) for row in values.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
