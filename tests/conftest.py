import math

import numpy as np
import pytest

from nfscan import (DriveSpec, FrequencySweep, LoopProbe, ScanGrid, Substrate, TracePath,
                    center_over_trace)
from nfscan.fields import kernel_blocks
from nfscan.model import Z_REF

H_SUB = 1.6e-3
SCAN_HEIGHT = 1e-3
MU0 = 4e-7 * math.pi  # vacuum permeability, H/m


def grounded_h(trace, currents, points):
    """Complex H (A/m) of `trace` over the ground plane, carrying one
    `currents` phasor per segment, at `points`: one (3,) point or an
    (n, 3) array, and the result matches.  Per axis, each
    `kernel_blocks` block's coupling g contracted as g.T @ currents."""
    pts = np.asarray(points, dtype=float)
    flat = np.atleast_2d(pts)
    out = np.empty((len(flat), 3), dtype=complex)
    for k, axis in enumerate("xyz"):
        for lo, hi, g in kernel_blocks(trace, flat.T, axis):
            out[lo:hi, k] = g.T @ currents
    return out[0] if pts.ndim == 1 else out


def port_oracle(flux, f, probe, drive):
    """(V, S21) of a loop with `flux` (the field along its normal
    integrated over its area, A*m) at f, from the physics: Faraday EMF
    -j*2*pi*f*mu0*flux, halved into a matched receiver, and S21 = b2/a1
    with b2 = V/sqrt(Z_REF) and |a1|^2 the drive power."""
    emf = -1j * 2 * math.pi * f * MU0 * flux
    v = emf / 2 if probe.loading == "matched-halving" else emf
    return v, v / math.sqrt(Z_REF * drive.power)


@pytest.fixture
def substrate():
    return Substrate()


@pytest.fixture
def straight_trace():
    """200 mm reference line along x at the substrate height."""
    return TracePath(vertices=((-0.1, 0.0, H_SUB), (0.1, 0.0, H_SUB)))


@pytest.fixture
def drive():
    return DriveSpec()  # -10 dBm into 50 ohm


@pytest.fixture
def cal_probe():
    """The y-normal calibration probe."""
    return LoopProbe(normal="y")


@pytest.fixture
def cal_center(straight_trace, substrate):
    """Over the trace midpoint at the 1 mm calibration height."""
    return center_over_trace(straight_trace, substrate, SCAN_HEIGHT)


@pytest.fixture
def table2_grid():
    """y in [-5, 5] mm at 0.5 mm steps, x fixed, 1 mm above the conductor."""
    return ScanGrid(x_min=0.0, x_max=0.0, y_min=-5e-3, y_max=5e-3,
                    dx=0.5e-3, dy=0.5e-3, z_height=SCAN_HEIGHT)


@pytest.fixture
def single_point_sweep():
    return FrequencySweep(f_min=0.5e9, f_max=0.5e9, n_points=1)


def rng(seed=0):
    return np.random.default_rng(seed)


def grid_points(grid):
    """All points of `grid` in row-major order (y outer, x inner), shape
    (nx*ny, 3): exact step multiples from (x_min, y_min), z the grid's
    z_height.  The order every raster file format relies on."""
    pts = np.empty((grid.ny * grid.nx, 3), dtype=float)
    pts[:, 0] = np.tile(grid.x_coords(), grid.ny)
    pts[:, 1] = np.repeat(grid.y_coords(), grid.nx)
    pts[:, 2] = grid.z_height
    return pts
