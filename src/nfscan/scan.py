"""Scan orchestration: simulate probe observables over a grid, calibrate
raw voltage maps into field maps, extract profiles and statistics.

One chain serves both raster scans and the probe transfer sweep (a
one-point scan).  A raster hands it its grid lines, a triple (x lines, y
lines, one height) that broadcasts to the grid, so the kernel's per-axis
work is done once per grid line.  Per block of whole rows, or a chunk of
one row, `fields.kernel_blocks` gives the real coupling from every trace
segment (its ground-plane image folded in) to the field along the probe
normal at each probe's center and, for the integrated aperture, its
quadrature nodes: one C-ordered (points x segments) array, multiplied by
the segments x frequencies current matrix.  Each point's sums run in a
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
from .model import (MU_0, DriveSpec, FrequencySweep, LoopProbe, ScanGrid, Substrate,
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


def _probe_chain(trace, substrate, probe, centers, freqs, drive):
    """Observables of the probe centred at each of `centers`, a triple
    (x, y, z) that broadcasts to (rows, cols) (see `fields.kernel_blocks`).

    Returns a (3, nf, npts) complex array holding, per frequency, the
    field along the probe normal at the center, the port voltage (the EMF
    -j 2 pi f mu0 flux, halved if `matched-halving`) and S21 = V /
    sqrt(port_z x drive power).  A SingularityError carries the index of
    the center, numbered row-major.
    """
    if np.any(np.asarray(centers[2]) <= 0):
        raise ConfigError("probe centers must lie strictly above the ground plane z=0")
    currents = np.stack([current_distribution(trace, f, drive, substrate) for f in freqs],
                        axis=1)
    cur = np.concatenate([currents.real, currents.imag], axis=1)
    integrated = probe.aperture == "integrated"
    # A probe's points: its center, then its quadrature nodes if integrated.
    offsets, weights = quad_offsets(probe) if integrated else (None, [])
    m = 1 + len(weights)
    npts = np.broadcast(*centers).size
    h = np.empty((npts, cur.shape[1]))
    flux = np.empty_like(h) if integrated else None
    for lo, hi, g in fields.kernel_blocks(trace, centers, probe.normal, offsets):
        rows = g.reshape(hi - lo, m, -1)
        h[lo:hi] = np.einsum("ps,sf->pf", rows[:, 0], cur)
        if integrated:
            flux[lo:hi] = np.einsum("ps,sf->pf",
                                    np.einsum("pqs,q->ps", rows[:, 1:], weights), cur)
    nf = len(freqs)
    area = probe.side_s ** 2
    s21_per_volt = math.sqrt(probe.port_z * drive.power)
    out = np.empty((3, nf, npts), dtype=complex)
    hf, v, s21 = out
    for i, f in enumerate(freqs):
        hf[i] = h[:, i] + 1j * h[:, nf + i]
        fl = flux[:, i] + 1j * flux[:, nf + i] if integrated else hf[i] * area
        v[i] = -1j * 2.0 * math.pi * f * MU_0 * fl
        if probe.loading == "matched-halving":
            v[i] /= 2.0
        s21[i] = v[i] / s21_per_volt
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
    fields.EPS_GEOM (1 nm) of a trace segment or its image.
    """
    centers = (grid.x_coords()[None, :], grid.y_coords()[:, None],
               [[grid.z_height + substrate.h]])
    freqs = sweep.frequencies()
    try:
        out = _probe_chain(trace, substrate, probe, centers, freqs, drive)
    except SingularityError as exc:
        raise _at_grid_point(exc, grid, exc.point) from None
    out.flags.writeable = False  # kept by the ScanResult without a copy
    h, v, s21 = out.reshape(3, len(freqs), grid.ny, grid.nx)
    return ScanResult(freqs=freqs, grid=grid, component="h" + probe.normal,
                      s21=s21, vport=v, hfield=h)


def probe_transfer(trace: TracePath, substrate: Substrate, probe: LoopProbe,
                   sweep: FrequencySweep, drive: DriveSpec):
    """Synthetic probe transmission sweep over a driven trace.

    A one-point scan with the probe at its configured pose: returns the
    sweep frequencies together with the complex S21 values.  |S21| rises
    at +20 dB/decade while the loop stays electrically small (high-pass
    behavior of an induction probe).
    """
    freqs = sweep.frequencies()
    center = [[[c]] for c in probe.center]
    try:
        _, _, s21 = _probe_chain(trace, substrate, probe, center, freqs, drive)
    except SingularityError as exc:
        raise SingularityError(
            f"probe at {list(probe.center)}: {exc}", segment=exc.segment,
            point=exc.point, image=exc.image) from None
    return freqs, s21[:, 0]


def _at_grid_point(exc, grid, flat):
    iy, ix = divmod(int(flat), grid.nx)
    return SingularityError(
        f"singular field at grid point (ix={ix}, iy={iy}), "
        f"x={grid.x_min + ix * grid.dx}, y={grid.y_min + iy * grid.dy}: {exc}",
        segment=exc.segment, point=int(flat), image=exc.image)


def apply_calibration_to_scan(vmap: FieldMap, cf: CFTable, f, sign_mode="eq1-consistent"):
    """Convert a dBV port-voltage map into a dBA/m field map via the CF table.

    The CF value at f comes from the table (log-f interpolation, no
    extrapolation).  The map must be a 'vport' map at frequency f.
    """
    if vmap.component != "vport":
        raise ConfigError(f"scan map component is {vmap.component!r}: the CF table "
                          "applies to a port-voltage map ('vport')")
    if abs(vmap.f - f) > 1e-6 * max(abs(f), 1.0):
        raise ConfigError(f"map frequency {vmap.f} Hz does not match requested {f} Hz")
    cf_db = cf.cf_at(f)
    out = field_from_voltage(vmap.values, cf_db, sign_mode)
    out.flags.writeable = False  # kept by the FieldMap without a copy
    meta = dict(vmap.meta)
    tag = meta.pop("normal", "mag")
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
