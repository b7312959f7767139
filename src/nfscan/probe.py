"""Loop probe port model: aperture quadrature, Faraday EMF, port voltage and
synthetic S21.

A `LoopProbe` carries the port model; its two aperture models are:

* ``uniform`` (default): the electrically-small-loop model.  The field is
  taken as uniform over the loop, so the flux is the component of
  H(center) along probe.normal ("x", "y" or "z") times the loop area.
  This is the model the calibration chain inverts exactly, and the one
  used for scans.
* ``integrated``: Gauss-Legendre quadrature (`quad_n` nodes per side) of
  that component over the loop footprint, a square of side `side_s`
  lying flat at the center height.  Useful to quantify how much a finite aperture
  averages a non-uniform field.

The chain from trace currents to these observables runs in
`nfscan.scan` (`run_simulated_scan`, `probe_transfer`).  Loop
self-inductance and resonance are not modeled; results are valid in the
electrically small regime (perimeter below about lambda/20).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .model import MU_0, DriveSpec, LoopProbe, Substrate, TracePath


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


def induced_emf(flux, f):
    """Faraday EMF of the loop: V = -j * 2*pi*f * mu0 * flux."""
    if f <= 0:
        raise ConfigError("frequency must be > 0")
    return -1j * 2.0 * math.pi * f * MU_0 * flux


def port_voltage(emf, probe: LoopProbe):
    """Voltage at the probe port for the chosen loading.

    matched-halving: Thevenin source with negligible loop impedance into a
    matched receiver, V = emf/2.  open-circuit: V = emf.
    """
    if probe.loading == "matched-halving":
        return emf / 2.0
    return emf


def synthesize_s21(v_port, drive: DriveSpec, port_z):
    """Transmission coefficient b2/a1 with |a1|^2 = available drive power.

    b2 = v_port / sqrt(port_z), so S21 = v_port / sqrt(port_z * power).
    """
    return v_port / math.sqrt(port_z * drive.power)


def center_over_trace(trace: TracePath, substrate: Substrate, height):
    """Probe center over the trace midpoint, `height` above the trace."""
    mid = 0.5 * (np.asarray(trace.vertices[0]) + np.asarray(trace.vertices[-1]))
    return (float(mid[0]), float(mid[1]), substrate.h + height)
