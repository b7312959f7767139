"""IEC 61967-1 style probe calibration: antenna factor and field extraction.

The antenna factor CF = H/V relates the field at the probe to the port
voltage it produces.  In dB over a reference trace it is derived from a
measured transmission coefficient as

    CF_dB(f) = 20*log10(G) - S21_dB(f) - 34

where G is a geometry factor of the reference setup (trace height h above
its ground plane, probe-to-conductor distance d) and 34 is the standard's
wave-normalization constant (close to 10*log10(50 ohm * 50 ohm)), which
holds for a 50 ohm port only: the Touchstone reader rejects other
references.

Two geometry kernels are provided because the published forms disagree:

* ``paper``:        G = d / (pi * h * (h + 2d))   (as commonly printed)
* ``image-theory``: G = h / (pi * d * (d + 2h))   (field of a filament and
                    its ground-plane image at distance d; the physically
                    consistent form)

Their ratio is frequency independent, so the choice shifts every CF value
by a fixed offset (-6.83 dB at d=1 mm, h=1.6 mm).

Field extraction from a measured voltage supports both published sign
conventions:

* ``eq1-consistent`` (default): H_dB = CF_dB + V_dB, the direct inverse
  of CF = H/V.
* ``eq3-printed``:   H_dB = CF_dB - V_dB, the variant with the voltage
  subtracted as sometimes printed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError
from .model import readonly

KERNELS = ("paper", "image-theory")
SIGN_MODES = ("eq1-consistent", "eq3-printed")
STANDARD_CONSTANT_DB = 34.0


@dataclass(frozen=True)
class CFTable:
    """Antenna factor vs frequency, with the geometry it was derived from."""

    f: np.ndarray          # Hz, > 0 and strictly increasing
    cf_db: np.ndarray      # dB(1/m)
    kernel: str
    d: float               # m, probe-to-conductor distance
    h: float               # m, trace height above its ground plane

    def __post_init__(self):
        f = readonly(self.f, float)
        cf = readonly(self.cf_db, float)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "cf_db", cf)
        if f.shape != cf.shape or f.ndim != 1:
            raise ConfigError("CF table: f and cf_db must be 1-D arrays of equal length")
        if len(f) == 0:
            raise ConfigError("CF table: must not be empty")
        if not np.all(np.diff(f) > 0):
            raise ConfigError("CF table: frequencies must be strictly increasing")
        if not (np.all(np.isfinite(cf)) and np.all(np.isfinite(f))):
            raise ConfigError("CF table: values must be finite")
        if not f[0] > 0:  # cf_at interpolates in log f
            raise ConfigError(f"CF table: frequency {float(f[0])!r} Hz is not > 0")
        if self.kernel not in KERNELS:
            raise ConfigError(f"CF table: kernel must be one of {KERNELS}")
        for name, length in (("d", self.d), ("h", self.h)):
            if not 0 < length < math.inf:
                raise ConfigError(f"CF table: {name} = {length!r} m must be finite and > 0")

    def cf_at(self, f):
        """CF at frequency f, linear interpolation in (log f, dB).

        No extrapolation: f outside the table span is an error.  A
        single-row table only serves its exact frequency.
        """
        f = float(f)
        lo, hi = self.f[0], self.f[-1]
        tol = 1e-9 * hi
        if f < lo - tol or f > hi + tol:
            raise ConfigError(
                f"frequency {f} Hz outside calibration table span [{lo}, {hi}] Hz")
        return float(np.interp(math.log(f), np.log(self.f), self.cf_db))


def geometry_term_db(d, h, kernel="paper"):
    """20*log10 of the reference-setup geometry factor (see module docs)."""
    if d <= 0 or h <= 0:
        raise ConfigError("geometry term requires d > 0 and h > 0")
    if kernel == "paper":
        num, den = d, math.pi * h * (h + 2.0 * d)
    elif kernel == "image-theory":
        num, den = h, math.pi * d * (d + 2.0 * h)
    else:
        raise ConfigError(f"kernel: must be one of {KERNELS}")
    # The denominator can underflow to 0 or overflow to inf for extreme d, h.
    g = num / den if den > 0 else math.inf
    if not 0.0 < g < math.inf:
        raise ConfigError(f"geometry term: factor for d={d!r} m, h={h!r} m "
                          f"is {g!r}, outside the range of a double")
    return 20.0 * math.log10(g)


def cf_from_s21(s21_db, d, h, kernel="paper"):
    """Antenna factor in dB(1/m) from a transmission measurement in dB."""
    return geometry_term_db(d, h, kernel) - s21_db - STANDARD_CONSTANT_DB


def field_from_voltage(v_db, cf_db, sign_mode="eq1-consistent"):
    """Field level in dBA/m from a port voltage level in dBV."""
    if sign_mode == "eq1-consistent":
        return cf_db + v_db
    if sign_mode == "eq3-printed":
        return cf_db - v_db
    raise ConfigError(f"sign_mode: must be one of {SIGN_MODES}")


def calibrate(network, d, h, kernel="paper"):
    """Antenna-factor table from a probe's S21 sweep.

    `network` is a NetworkData (50 ohm ports); S21 must be non-zero at
    every row, since CF is a dB quantity.  Every row is checked before the
    geometry term is taken, so a bad row is reported before a bad d or h.
    """
    s21_db = np.empty(len(network.f), dtype=float)
    for i, (f, s21) in enumerate(zip(network.f, network.s21)):
        mag = abs(s21)
        if mag <= 0 or not math.isfinite(mag):
            raise ParseError(f"row {i} (f={f} Hz): S21 magnitude {mag} has no dB value")
        s21_db[i] = 20.0 * math.log10(mag)
    return CFTable(f=network.f, cf_db=cf_from_s21(s21_db, d, h, kernel),
                   kernel=kernel, d=d, h=h)
