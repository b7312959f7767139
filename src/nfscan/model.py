"""Shared value types and conventions.

Conventions used throughout the package:

* SI units everywhere (meters, Hz, watts, A/m); the CLI converts from
  mm / GHz / dBm at the boundary.
* Complex amplitudes are RMS phasors with time factor exp(+j*2*pi*f*t),
  so P = |V|^2 / R without extra factors of 2.
* The ground plane is z = 0.  A trace sits in the x-y plane at
  z = substrate.h; the scan surface is z = substrate.h + z_height.
  Reported "Hy" is the y component in this frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MU_0 = 4e-7 * math.pi          # H/m, exact by convention here
C_LIGHT = 299792458.0          # m/s

#: FR4 substrate used for both the probe and the reference line.
DEFAULT_SUBSTRATE_H = 1.6e-3      # m
DEFAULT_EPS_R = 4.6

#: Reference 50-ohm line and square-loop probe dimensions.
DEFAULT_TRACE_WIDTH = 3e-3        # m
DEFAULT_LINE_Z0 = 50.0            # ohm
DEFAULT_LOOP_SIDE = 4e-3          # m
DEFAULT_PORT_Z = 50.0             # ohm

#: Default sweep span and drive level (-10 dBm into 50 ohm).
DEFAULT_F_MIN = 0.1e9             # Hz
DEFAULT_F_MAX = 3e9               # Hz
DEFAULT_DRIVE_POWER = 1e-4        # W


def db20(x, ref=1.0):
    """20*log10(x/ref) for positive magnitudes (scalar or array)."""
    x = np.asarray(x, dtype=float)
    ref = float(ref)
    if ref <= 0.0 or np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("cannot express in dB: magnitude and reference must be finite and > 0")
    out = 20.0 * np.log10(x / ref)
    return float(out) if out.ndim == 0 else out


def undb20(x_db, ref=1.0):
    """Inverse of :func:`db20`: ref * 10**(x_db/20)."""
    x_db = np.asarray(x_db, dtype=float)
    out = float(ref) * 10.0 ** (x_db / 20.0)
    return float(out) if out.ndim == 0 else out


def readonly(a, dtype):
    """`a` as a read-only `dtype` array that no other reference can change.

    An ndarray of that dtype that is read-only down to the array owning
    its memory is returned as is; anything else is copied, so a value
    type never keeps an array its caller can still write to.
    """
    if isinstance(a, np.ndarray) and a.dtype == dtype:
        owner = a
        while isinstance(owner, np.ndarray) and not owner.flags.writeable:
            if owner.base is None:
                return a
            owner = owner.base
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


@dataclass(frozen=True)
class Substrate:
    """Dielectric substrate: thickness h (m) and relative permittivity."""

    h: float = DEFAULT_SUBSTRATE_H
    eps_r: float = DEFAULT_EPS_R

    def __post_init__(self):
        _require(self.h > 0, "substrate.h: thickness must be > 0")
        _require(self.eps_r >= 1, "substrate.eps_r: must be >= 1")


TERMINATIONS = ("matched", "open", "short")
LOADINGS = ("matched-halving", "open-circuit")
APERTURES = ("uniform", "integrated")
AXES = ("x", "y", "z")


@dataclass(frozen=True)
class TracePath:
    """Current-carrying conductor as a 3-D polyline above the ground plane.

    Vertices are (x, y, z) in meters with z = substrate.h for a planar
    trace.  The current is treated as a filament on the centerline;
    `width` sets the effective permittivity (Hammerstad) and with it the
    phase of every segment current.
    """

    vertices: tuple
    width: float = DEFAULT_TRACE_WIDTH
    z0_line: float = DEFAULT_LINE_Z0
    termination: str = "matched"

    def __post_init__(self):
        verts = tuple(tuple(float(c) for c in v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        _require(len(verts) >= 2, "trace.vertices: need at least 2 vertices")
        _require(all(len(v) == 3 for v in verts), "trace.vertices: vertices must be 3-D points")
        _require(all(v[2] > 0 for v in verts), "trace.vertices: all vertices must lie strictly above z=0")
        for i, (a, b) in enumerate(zip(verts, verts[1:])):
            _require(a != b, "trace.vertices: consecutive vertices must be distinct")
            # The kernel divides by the length, computed from its square.
            d = math.dist(a, b)
            _require(0.0 < d * d < math.inf, f"trace.vertices: segment {i} is {d!r} m long, "
                     "its square is outside the range of a double")
        _require(self.width > 0, "trace.width: must be > 0")
        _require(self.z0_line > 0, "trace.z0: must be > 0")
        _require(self.termination in TERMINATIONS,
                 f"trace.termination: must be one of {TERMINATIONS}")

    @property
    def n_segments(self):
        return len(self.vertices) - 1

    def arclengths(self):
        """Cumulative arclength of each segment midpoint, from the feed."""
        v = np.asarray(self.vertices, dtype=float)
        seg_len = np.linalg.norm(np.diff(v, axis=0), axis=1)
        ends = np.cumsum(seg_len)
        return ends - seg_len / 2.0


@dataclass(frozen=True)
class LoopProbe:
    """Square magnetic loop sensor: pose, side length and port model.

    `aperture` sets the flux: ``uniform`` (default, the electrically
    small loop that calibration inverts exactly) takes the component of
    H(center) along `normal` times the loop area; ``integrated``
    integrates that component over the loop footprint, flat at the
    center height, by Gauss-Legendre quadrature (`quad_n` nodes per
    side), to show how a finite aperture averages a non-uniform field.
    `loading` sets the port voltage: ``matched-halving`` (default), a
    source of negligible loop impedance into a matched receiver, gives
    V = emf / 2, and ``open-circuit`` V = emf.  Loop self-inductance and
    resonance are not modeled: valid while the perimeter is below about
    lambda/20.  The chain runs in `nfscan.scan`.
    """

    center: tuple
    normal: str                # the axis the loop faces: "x", "y" or "z"
    side_s: float = DEFAULT_LOOP_SIDE
    port_z: float = DEFAULT_PORT_Z
    loading: str = "matched-halving"
    quad_n: int = 8
    aperture: str = "uniform"

    def __post_init__(self):
        center = tuple(float(c) for c in self.center)
        object.__setattr__(self, "center", center)
        _require(len(center) == 3, "probe.center: must be a 3-D point")
        _require(isinstance(self.normal, str) and self.normal in AXES,
                 "probe.normal: must be 'x', 'y' or 'z'")
        _require(self.side_s > 0, "probe.side: must be > 0")
        _require(self.port_z > 0, "probe.port_z: must be > 0")
        _require(self.loading in LOADINGS, f"probe.loading: must be one of {LOADINGS}")
        _require(2 <= self.quad_n <= 32, "probe.quad_n: must be between 2 and 32")
        _require(self.aperture in APERTURES, f"probe.aperture: must be one of {APERTURES}")


@dataclass(frozen=True)
class ScanGrid:
    """Rectangular raster surface at a fixed height above the conductor plane.

    Extents must be integer multiples of the step sizes; non-divisible
    extents are rejected rather than silently truncated so grids (and
    therefore output files) are bit-reproducible.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    dx: float
    dy: float
    z_height: float

    def __post_init__(self):
        _require(self.x_max >= self.x_min, "grid.x_max: must be >= x_min")
        _require(self.y_max >= self.y_min, "grid.y_max: must be >= y_min")
        _require(self.dx > 0, "grid.dx: must be > 0")
        _require(self.dy > 0, "grid.dy: must be > 0")
        _require(self.z_height > 0, "grid.z_height: must be > 0")
        for lo, hi, step, name in ((self.x_min, self.x_max, self.dx, "x"),
                                   (self.y_min, self.y_max, self.dy, "y")):
            _require(math.isfinite((hi - lo) / step), f"grid.d{name}: too small for the extent")
            n = round((hi - lo) / step) + 1
            _require(abs((hi - lo) - (n - 1) * step) < 1e-9,
                     f"grid.{name}: extent is not an integer multiple of the step")

    @property
    def nx(self):
        return round((self.x_max - self.x_min) / self.dx) + 1

    @property
    def ny(self):
        return round((self.y_max - self.y_min) / self.dy) + 1

    def x_coords(self):
        return self.x_min + self.dx * np.arange(self.nx)

    def y_coords(self):
        return self.y_min + self.dy * np.arange(self.ny)


def grid_points(grid: ScanGrid):
    """All grid points in row-major order (y outer, x inner), shape (nx*ny, 3).

    Coordinates are exact step multiples from (x_min, y_min); z is the
    grid's z_height for every point.  The ordering is deterministic and
    is the contract every raster file format in this package relies on.
    """
    xs = grid.x_coords()
    ys = grid.y_coords()
    pts = np.empty((grid.ny * grid.nx, 3), dtype=float)
    pts[:, 0] = np.tile(xs, grid.ny)
    pts[:, 1] = np.repeat(ys, grid.nx)
    pts[:, 2] = grid.z_height
    return pts


@dataclass(frozen=True)
class FrequencySweep:
    f_min: float = DEFAULT_F_MIN
    f_max: float = DEFAULT_F_MAX
    n_points: int = 31
    spacing: str = "linear"

    def __post_init__(self):
        _require(0 < self.f_min < math.inf, "sweep.f_min: must be finite and > 0")
        _require(self.f_min <= self.f_max < math.inf, "sweep.f_max: must be finite and >= f_min")
        _require(self.n_points >= 1, "sweep.n_points: must be >= 1")
        _require(self.spacing in ("linear", "log"), "sweep.spacing: must be 'linear' or 'log'")

    def frequencies(self):
        if self.n_points == 1:
            return np.array([self.f_min])
        if self.spacing == "log":
            return np.geomspace(self.f_min, self.f_max, self.n_points)
        return np.linspace(self.f_min, self.f_max, self.n_points)


@dataclass(frozen=True)
class DriveSpec:
    """Source available power (W, RMS convention)."""

    power: float = DEFAULT_DRIVE_POWER

    def __post_init__(self):
        _require(self.power > 0, "drive.power: must be > 0")
