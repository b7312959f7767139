"""Scan orchestration: simulate probe observables over a grid, calibrate
raw voltage maps into field maps, extract profiles and statistics.

One chain serves both raster scans and the probe transfer sweep (a
one-point scan).  It walks the probes in blocks of whole probes, each
probe's points being its center and, for the integrated aperture, its
quadrature nodes.  Per block it makes one kernel call, builds the real
coupling from every trace segment (its ground-plane image folded in) to
the field along the probe normal, and multiplies it by the segments x
frequencies current matrix.  Each point's sums run in a fixed order, so
results are byte-identical from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .calibration import CFTable, field_from_voltage
from .errors import ConfigError, SingularityError
from . import fields
from .fields import current_distribution, mirrored_segments
from .formats import FieldMap
from .model import DriveSpec, FrequencySweep, ScanGrid, Substrate, TracePath, grid_points
from .probe import PortWaveModel, induced_emf, port_voltage, quad_offsets, synthesize_s21


class MapStats(NamedTuple):
    min_db: float
    max_db: float
    argmin: tuple        # (x, y) in meters
    argmax: tuple
    argmin_idx: tuple    # (ix, iy)
    argmax_idx: tuple


@dataclass(frozen=True)
class ScanResult:
    """Per-frequency complex maps of the probe observables.

    `s21`, `vport` and `hfield` (the field component along the probe
    normal at the probe center, the simulation ground truth) are lists of
    complex FieldMaps, one per sweep frequency.
    """

    freqs: np.ndarray
    s21: tuple
    vport: tuple
    hfield: tuple


def _component_tag(normal):
    n = np.asarray(normal, dtype=float)
    for axis, tag in enumerate(("hx", "hy", "hz")):
        e = np.zeros(3)
        e[axis] = 1.0
        if abs(abs(n @ e) - 1.0) <= 1e-12:
            return tag
    return "mag"


def _probe_chain(trace, substrate, model, centers, freqs, drive):
    """Observables of the probe centred at each of `centers` (npts, 3).

    Returns (h, v, s21), each a list with one (npts,) complex array per
    frequency: the field along the probe normal at the center, the port
    voltage and S21.  A SingularityError carries the index of the center.
    """
    if np.any(centers[:, 2] <= 0):
        raise ConfigError("probe centers must lie strictly above the ground plane z=0")
    currents = np.stack([current_distribution(trace, f, drive, substrate) for f in freqs],
                        axis=1)
    seg_s, seg_e, _ = mirrored_segments(*trace.segment_arrays(), currents)
    n = trace.n_segments
    cur = np.concatenate([currents.real, currents.imag], axis=1)
    normal = np.asarray(model.probe.normal, dtype=float)
    integrated = model.aperture == "integrated"
    # A probe's points: its center, then its quadrature nodes if integrated.
    offsets, weights = quad_offsets(model.probe, model.quad_n) if integrated else (None, [])
    m = 1 + len(weights)
    h = np.empty((len(centers), cur.shape[1]))
    flux = np.empty_like(h) if integrated else None
    for lo, hi, g in fields.kernel_blocks(seg_s, seg_e, centers, normal, offsets, n):
        rows = (g[:, :n] - g[:, n:]).reshape(hi - lo, m, n)
        h[lo:hi] = np.einsum("ps,sf->pf", rows[:, 0], cur)
        if integrated:
            flux[lo:hi] = np.einsum("ps,sf->pf",
                                    np.einsum("pqs,q->ps", rows[:, 1:], weights), cur)
    nf = len(freqs)
    area = model.probe.side_s ** 2
    hs, vs, s21s = [], [], []
    for i, f in enumerate(freqs):
        hf = h[:, i] + 1j * h[:, nf + i]
        fl = flux[:, i] + 1j * flux[:, nf + i] if integrated else hf * area
        v = port_voltage(induced_emf(fl, f), model)
        hs.append(hf)
        vs.append(v)
        s21s.append(synthesize_s21(v, drive, model.probe.port_z))
    return hs, vs, s21s


def run_simulated_scan(trace: TracePath, substrate: Substrate, model: PortWaveModel,
                       grid: ScanGrid, sweep: FrequencySweep, drive: DriveSpec):
    """Simulate a raster scan of the probe over a driven trace.

    At every grid point the probe center is placed at the point (lifted to
    z = substrate.h + z_height in absolute coordinates, since the grid's
    z_height is measured from the conductor plane) and the port chain is
    evaluated; per frequency the complex S21, port voltage and
    ground-truth field component (along the probe normal, at the probe
    center) are stored as maps.

    A SingularityError names the first grid point, in row-major order,
    whose probe center or any of whose quadrature nodes lies within
    fields.EPS_GEOM (1 nm) of a trace segment or its image.
    """
    centers = grid_points(grid)
    centers[:, 2] += substrate.h
    freqs = sweep.frequencies()
    try:
        h, v, s21 = _probe_chain(trace, substrate, model, centers, freqs, drive)
    except SingularityError as exc:
        raise _at_grid_point(exc, grid, exc.point) from None
    tag = _component_tag(model.probe.normal)
    shape = (grid.ny, grid.nx)
    s21_maps, v_maps, h_maps = [], [], []
    for i, f in enumerate(freqs):
        common = dict(grid=grid, f=float(f), value_kind="complex")
        s21_maps.append(FieldMap(component="s21", values=s21[i].reshape(shape), **common))
        v_maps.append(FieldMap(component="vport", values=v[i].reshape(shape),
                               meta={"normal": tag}, **common))
        h_maps.append(FieldMap(component=tag, values=h[i].reshape(shape), **common))
    return ScanResult(freqs=freqs, s21=tuple(s21_maps), vport=tuple(v_maps),
                      hfield=tuple(h_maps))


def probe_transfer(model: PortWaveModel, trace: TracePath, substrate: Substrate,
                   sweep: FrequencySweep, drive: DriveSpec):
    """Synthetic probe transmission sweep over a driven trace.

    A one-point scan with the probe at its configured pose: returns the
    sweep frequencies together with the complex S21 values.  |S21| rises
    at +20 dB/decade while the loop stays electrically small (high-pass
    behavior of an induction probe).
    """
    freqs = sweep.frequencies()
    center = np.array([model.probe.center], dtype=float)
    try:
        _, _, s21 = _probe_chain(trace, substrate, model, center, freqs, drive)
    except SingularityError as exc:
        raise SingularityError(
            f"probe at {list(model.probe.center)}: {exc}", segment=exc.segment,
            point=exc.point, image=exc.image) from None
    return freqs, np.array([s[0] for s in s21])


def _at_grid_point(exc, grid, flat):
    iy, ix = divmod(int(flat), grid.nx)
    err = SingularityError(
        f"singular field at grid point (ix={ix}, iy={iy}), "
        f"x={grid.x_min + ix * grid.dx}, y={grid.y_min + iy * grid.dy}: {exc}",
        segment=exc.segment, point=int(flat), image=exc.image)
    return err


def apply_calibration_to_scan(vmap: FieldMap, cf: CFTable, f, sign_mode="eq1-consistent"):
    """Convert a dBV port-voltage map into a dBA/m field map via the CF table.

    The CF value at f comes from the table (log-f interpolation, no
    extrapolation).  The map frequency must match f.
    """
    if vmap.value_kind != "db":
        raise ConfigError("calibration expects a dBV map (value_kind 'db')")
    if abs(vmap.f - f) > 1e-6 * max(abs(f), 1.0):
        raise ConfigError(f"map frequency {vmap.f} Hz does not match requested {f} Hz")
    cf_db = cf.cf_at(f)
    out = field_from_voltage(vmap.values, cf_db, sign_mode)
    tag = vmap.meta.get("normal", "mag")
    meta = dict(vmap.meta)
    meta.update({"kernel": cf.kernel, "sign_mode": sign_mode,
                 "cf_d": repr(float(cf.d)), "cf_h": repr(float(cf.h))})
    meta.pop("normal", None)
    return FieldMap(grid=vmap.grid, f=vmap.f, component=tag, values=out,
                    value_kind="db", meta=meta)


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
    if fmap.value_kind != "db":
        raise ConfigError("map_stats expects a dB map")
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
