"""Loop probe port model: aperture quadrature, Faraday EMF, port voltage and
synthetic S21.

Two aperture models are available:

* ``uniform`` (default): the electrically-small-loop model.  The field is
  taken as uniform over the loop, so the flux is H(center).normal times
  the loop area.  This is the model the calibration chain inverts exactly,
  and the one used for scans.
* ``integrated``: Gauss-Legendre quadrature of H.normal over the loop
  footprint, a square of side `side_s` lying flat at the center height.
  Useful to quantify how much a finite aperture averages a non-uniform
  field.

The chain from trace currents to these observables runs in
`nfscan.scan` (`run_simulated_scan`, `probe_transfer`).  Loop
self-inductance and resonance are not modeled; results are valid in the
electrically small regime (perimeter below about lambda/20).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .model import MU_0, DriveSpec, LoopProbe, Substrate, TracePath

LOADINGS = ("matched-halving", "open-circuit")
APERTURES = ("uniform", "integrated")


@dataclass(frozen=True)
class PortWaveModel:
    """How a probe's port observables are derived from the local field."""

    probe: LoopProbe
    loading: str = "matched-halving"
    quad_n: int = 8
    aperture: str = "uniform"

    def __post_init__(self):
        if self.loading not in LOADINGS:
            raise ConfigError(f"probe.loading: must be one of {LOADINGS}")
        if not 2 <= self.quad_n <= 32:
            raise ConfigError("probe.quad_n: must be between 2 and 32")
        if self.aperture not in APERTURES:
            raise ConfigError(f"probe.aperture: must be one of {APERTURES}")


def quad_offsets(probe: LoopProbe, quad_n: int):
    """Quadrature node offsets (n^2, 3) from the loop center and weights
    (n^2,) over the loop footprint, a square lying flat at the center."""
    x, w = np.polynomial.legendre.leggauss(quad_n)
    half = probe.side_s / 2.0
    gx, gy = np.meshgrid(x, x, indexing="ij")
    offsets = np.zeros((quad_n * quad_n, 3), dtype=float)
    offsets[:, 0] = half * gx.ravel()
    offsets[:, 1] = half * gy.ravel()
    weights = (np.outer(w, w).ravel()) * half * half
    return offsets, weights


def induced_emf(flux, f):
    """Faraday EMF of the loop: V = -j * 2*pi*f * mu0 * flux."""
    if f <= 0:
        raise ConfigError("frequency must be > 0")
    return -1j * 2.0 * math.pi * f * MU_0 * flux


def port_voltage(emf, model: PortWaveModel):
    """Voltage at the probe port for the chosen loading.

    matched-halving: Thevenin source with negligible loop impedance into a
    matched receiver, V = emf/2.  open-circuit: V = emf.
    """
    if model.loading == "matched-halving":
        return emf / 2.0
    return emf


def synthesize_s21(v_port, drive: DriveSpec, port_z):
    """Transmission coefficient b2/a1 with |a1|^2 = available drive power.

    b2 = v_port / sqrt(port_z), so S21 = v_port / sqrt(port_z * power).
    """
    return v_port / math.sqrt(port_z * drive.power)


def probe_over_trace(probe: LoopProbe, trace: TracePath, substrate: Substrate,
                     height):
    """Reposition a probe over the trace midpoint at `height` above it."""
    verts = np.asarray(trace.vertices, dtype=float)
    mid = 0.5 * (verts[0] + verts[-1])
    center = (float(mid[0]), float(mid[1]), substrate.h + height)
    return replace(probe, center=center)
