"""Scan orchestration: simulate probe observables over a grid, calibrate
raw voltage maps into field maps, extract profiles and statistics.

One chain serves both raster scans and the probe transfer sweep (a
one-point scan).  A raster hands it its grid lines, a triple (x lines, y
lines, one height) that broadcasts to the grid, so the kernel's per-axis
work is done once per grid line.  Per block of whole rows, or a chunk of
one row, `fields.kernel_blocks` gives the real coupling from every trace
segment (its ground-plane image folded in) to the field along the probe
normal at each probe's center and, for the integrated aperture, its
quadrature nodes: one C-ordered (segments x points) array.  The chain
contracts it in that layout with the segments x frequencies current
matrix into (frequencies x probes) rows.  Each point's sums run in a
fixed order, so results are byte-identical from run to run.

A scan returns its complex observables as (nf, ny, nx) arrays
(ScanResult); the calibration, profile and statistics steps work on dB
maps (FieldMap), the content of one map CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calibration import CFTable, field_from_voltage
from .errors import ConfigError, SingularityError
from . import fields
from .fields import current_distribution
from .formats import FieldMap
from .model import (MU_0, Z_REF, DriveSpec, FrequencySweep, LoopProbe, ScanGrid, Substrate,
                    TracePath, readonly)


class MapStats(NamedTuple):
    min_db: float
    max_db: float
    argmin: tuple        # (x, y) in meters
    argmax: tuple
    argmin_idx: tuple    # (ix, iy)
    argmax_idx: tuple


@dataclass(frozen=True)
class ScanResult:
    """Complex probe observables of a raster scan.

    `s21`, `vport` and `hfield` (the field component along the probe
    normal at the probe center, the simulation ground truth) are
    (nf, ny, nx) complex arrays: one map per sweep frequency, row 0 at
    y_min.  `component` names the field component of `hfield`: 'hx',
    'hy' or 'hz'.
    """

    freqs: np.ndarray
    grid: ScanGrid
    component: str
    s21: np.ndarray
    vport: np.ndarray
    hfield: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "freqs", readonly(self.freqs, float))
        for name in ("s21", "vport", "hfield"):
            object.__setattr__(self, name, readonly(getattr(self, name), complex))


def quad_offsets(probe: LoopProbe):
    """Offsets (n^2, 3) from the loop center and weights (n^2,) of the
    n = `probe.quad_n` squared nodes over the loop footprint, flat at the center."""
    x, w = np.polynomial.legendre.leggauss(probe.quad_n)
    half = probe.side_s / 2.0
    gx, gy = np.meshgrid(x, x, indexing="ij")
    offsets = np.zeros((x.size * x.size, 3), dtype=float)
    offsets[:, 0] = half * gx.ravel()
    offsets[:, 1] = half * gy.ravel()
    weights = (np.outer(w, w).ravel()) * half * half
    return offsets, weights


def _node_flux(g, weights, cur):
    """(2 nf, probes) flux rows of a kernel block g (segments, probes,
    points per probe): each probe's quadrature nodes summed with
    `weights`, then contracted with the currents `cur` (segments, 2 nf).

    einsum's rounding of a sum depends on the layout: over a contiguous
    axis it adds in another order.  So the nodes are summed on a
    (probes, nodes, segments) copy, segments contiguous, the layout that
    fixed the bytes of every integrated-aperture output (tests pin it).
    """
    rows = np.ascontiguousarray(g.transpose(1, 2, 0))
    return np.einsum("ps,sf->pf", np.einsum("pqs,q->ps", rows[:, 1:], weights), cur).T


def _probe_chain(trace, substrate, probe, centers, freqs, drive):
    """Observables of the probe centred at each of `centers`, a triple
    (x, y, z) that broadcasts to (rows, cols) (see `fields.kernel_blocks`).

    Returns a (3, nf, npts) complex array holding, per frequency, the
    field along the probe normal at the center, the port voltage (the EMF
    -j 2 pi f mu0 flux, halved if `matched-halving`) and S21 = V /
    sqrt(Z_REF x drive power).  A SingularityError carries the index of
    the center, numbered row-major.
    """
    currents = current_distribution(trace, freqs, drive, substrate)
    # Real and imaginary parts as one real matrix: one complex einsum took
    # 87-121 ms per table3 0.1 mm scan, this split 60-76 ms (medians of 7,
    # a shared 2-core x86-64 host).
    cur = np.concatenate([currents.real, currents.imag], axis=1)
    integrated = probe.aperture == "integrated"
    # A probe's points: its center, then its quadrature nodes if integrated.
    offsets, weights = quad_offsets(probe) if integrated else (None, [])
    m = 1 + len(weights)
    npts = np.broadcast(*centers).size
    h = np.empty((cur.shape[1], npts))
    flux = np.empty_like(h) if integrated else None
    for lo, hi, g in fields.kernel_blocks(trace, centers, probe.normal, offsets):
        g = g.reshape(len(g), hi - lo, m)
        np.einsum("sp,sf->fp", g[..., 0], cur, out=h[:, lo:hi])
        if integrated:
            flux[:, lo:hi] = _node_flux(g, weights, cur)
    nf = len(freqs)
    out = np.empty((3, nf, npts), dtype=complex)
    hf, v, s21 = out
    # In place, with no (nf, npts) temporary: H, then the flux in v, then V.
    np.add(h[:nf], np.multiply(1j, h[nf:], out=hf), out=hf)
    if integrated:
        np.add(flux[:nf], np.multiply(1j, flux[nf:], out=v), out=v)
    else:
        np.multiply(hf, probe.side_s * probe.side_s, out=v)
    np.multiply((-1j * 2.0 * math.pi * freqs * MU_0)[:, None], v, out=v)
    if probe.loading == "matched-halving":
        v /= 2.0
    np.divide(v, math.sqrt(Z_REF * drive.power), out=s21)
    return out


def run_simulated_scan(trace: TracePath, substrate: Substrate, probe: LoopProbe,
                       grid: ScanGrid, sweep: FrequencySweep, drive: DriveSpec):
    """Simulate a raster scan of the probe over a driven trace.

    At every grid point the probe center is placed at the point (lifted to
    z = substrate.h + z_height in absolute coordinates, since the grid's
    z_height is measured from the conductor plane) and the port chain is
    evaluated; per frequency the complex S21, port voltage and
    ground-truth field component (along the probe normal, at the probe
    center) are stored as (ny, nx) maps of the returned ScanResult.

    A SingularityError names the first grid point, in row-major order,
    whose probe center or any of whose quadrature nodes lies within
    fields.EPS_GEOM (1 nm) of a trace segment.
    """
    centers = (grid.x_coords()[None, :], grid.y_coords()[:, None],
               [[grid.z_height + substrate.h]])
    freqs = sweep.frequencies()
    try:
        out = _probe_chain(trace, substrate, probe, centers, freqs, drive)
    except SingularityError as exc:
        iy, ix = divmod(exc.point, grid.nx)
        raise SingularityError(
            f"singular field at grid point (ix={ix}, iy={iy}), "
            f"x={grid.x_min + ix * grid.dx}, y={grid.y_min + iy * grid.dy}: {exc}",
            segment=exc.segment, point=exc.point) from None
    out.flags.writeable = False  # kept by the ScanResult without a copy
    h, v, s21 = out.reshape(3, len(freqs), grid.ny, grid.nx)
    return ScanResult(freqs=freqs, grid=grid, component="h" + probe.normal,
                      s21=s21, vport=v, hfield=h)


def probe_transfer(trace: TracePath, substrate: Substrate, probe: LoopProbe, center,
                   sweep: FrequencySweep, drive: DriveSpec):
    """Synthetic probe transmission sweep over a driven trace.

    A one-point scan with the probe centred at `center` (x, y, z) in m:
    returns the sweep frequencies together with the complex S21 values.
    |S21| rises at +20 dB/decade while the loop stays electrically small
    (high-pass behavior of an induction probe).  A center that is not
    finite, or not above z = 0, is a ConfigError (`fields.kernel_blocks`).
    """
    freqs = sweep.frequencies()
    x, y, z = (float(c) for c in center)
    try:
        _, _, s21 = _probe_chain(trace, substrate, probe, ([[x]], [[y]], [[z]]), freqs, drive)
    except SingularityError as exc:
        raise SingularityError(f"probe at {[x, y, z]}: {exc}", segment=exc.segment,
                               point=exc.point) from None
    return freqs, s21[:, 0]


#: The components a scan map's meta.normal may name; no meta.normal is "mag".
_FIELD_TAGS = ("hx", "hy", "hz", "mag")


def apply_calibration_to_scan(vmap: FieldMap, cf: CFTable, f, sign_mode="eq1-consistent"):
    """Convert a dBV port-voltage map into a dBA/m field map via the CF table.

    The CF value at f comes from the table (log-f interpolation, no
    extrapolation).  The map must be a 'vport' map at frequency f, and
    its meta.normal, the output's component, one of `_FIELD_TAGS`.
    """
    if vmap.component != "vport":
        raise ConfigError(f"scan map component is {vmap.component!r}: the CF table "
                          "applies to a port-voltage map ('vport')")
    if abs(vmap.f - f) > 1e-6 * max(abs(f), 1.0):
        raise ConfigError(f"map frequency {vmap.f} Hz does not match requested {f} Hz")
    meta = dict(vmap.meta)
    tag = meta.pop("normal", "mag")
    if tag not in _FIELD_TAGS:
        raise ConfigError(f"scan map meta.normal is {tag!r}: must be one of "
                          + ", ".join(map(repr, _FIELD_TAGS)))
    cf_db = cf.cf_at(f)
    out = field_from_voltage(vmap.values, cf_db, sign_mode)
    out.flags.writeable = False  # kept by the FieldMap without a copy
    meta.update({"kernel": cf.kernel, "sign_mode": sign_mode,
                 "cf_d": repr(float(cf.d)), "cf_h": repr(float(cf.h))})
    return FieldMap(grid=vmap.grid, f=vmap.f, component=tag, values=out, meta=meta)


def extract_profile(fmap: FieldMap, axis, at):
    """Cut through a map: the full row (axis='x') or column (axis='y').

    `at` must lie on a grid line of the other axis (within 1e-9 m);
    otherwise the error names the two nearest grid lines.
    """
    if axis not in ("x", "y"):
        raise ConfigError("profile axis must be 'x' or 'y'")
    grid = fmap.grid
    lines = grid.y_coords() if axis == "x" else grid.x_coords()
    other = "y" if axis == "x" else "x"
    dist = np.abs(lines - at)
    idx = int(np.argmin(dist))
    if dist[idx] > 1e-9:
        near = np.unique(lines[np.argsort(dist)[:2]])
        raise ConfigError(
            f"{other}={at} is not on a grid line; nearest {other} lines: "
            + ", ".join(repr(float(v)) for v in near))
    if axis == "x":
        return grid.x_coords(), fmap.values[idx, :].copy()
    return grid.y_coords(), fmap.values[:, idx].copy()


def map_stats(fmap: FieldMap):
    """Extremes of a dB map with their grid coordinates.

    Ties resolve to the lowest row-major index (y outer, x inner).
    """
    flat = fmap.values.ravel()
    imin = int(np.argmin(flat))
    imax = int(np.argmax(flat))
    grid = fmap.grid

    def locate(i):
        iy, ix = divmod(i, grid.nx)
        return (grid.x_min + ix * grid.dx, grid.y_min + iy * grid.dy), (ix, iy)

    pmin, imin_xy = locate(imin)
    pmax, imax_xy = locate(imax)
    return MapStats(min_db=float(flat[imin]), max_db=float(flat[imax]),
                    argmin=pmin, argmax=pmax, argmin_idx=imin_xy, argmax_idx=imax_xy)
