"""JSON scan-configuration schema.

Configs use bench units (lengths in mm, frequencies in GHz, drive power
in dBm); everything is converted to SI on load.  Unknown keys anywhere
and keys given twice are rejected, and every error names the offending
field path.

Some keys describe the bench but do not enter the quasi-static model:
substrate.tan_d, t, sigma, drive.source_z and calibration.d, h.  They
are range-checked and count in the config digest, and nothing else
reads them.  calibration.kernel and sign_mode are checked too, and
reach only simulate's provenance.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .calibration import KERNELS, SIGN_MODES
from .errors import ConfigError
from .model import Z_REF, DriveSpec, FrequencySweep, LoopProbe, ScanGrid, Substrate, TracePath

_REQUIRED = object()

#: Most grid points x sweep frequencies, and most trace segments x sweep
#: frequencies, a config may ask for; table3 at 0.1 mm with 5 frequencies
#: is 252,255 cells.  At the bound, `simulate` on a 3,162 x 3,162 table3
#: grid at one frequency peaks at 1.1 GB RSS, and `simulate` or
#: `probe-transfer` with 2,000 segments x 5,000 frequencies on one point
#: at 341 MB (x86-64, Python 3.11, numpy 2.4).
MAX_CELLS = 10**7

#: Most trace segments a config may ask for; table2 at `max_segment: 0.1`
#: is 2,000.  A kernel block of scattered points peaks near 50 bytes per
#: point x segment pair, images counted (21 on a raster of whole rows).
MAX_SEGMENTS = 2000

#: Most point x segment pairs in the kernel block of one integrated probe,
#: (1 + quad_n^2) x 2 x segments (images included): `kernel_blocks` never
#: splits a probe.  quad_n 16 over 2,000 segments is 1,028,000 pairs, a
#: 45 MB peak on a straight line and 76 MB on a zigzag whose segments run
#: along neither axis (tracemalloc).
MAX_PROBE_PAIRS = 2**20

#: Bound on the magnitude of every length and coordinate in a config (mm,
#: 1 km); the field kernel's squared distances then stay within a double.
MAX_LENGTH_MM = 10**6

#: Bound on sweep frequencies (GHz, 1 PHz), far above any near-field scan.
#: It keeps the chain's products of f within a double: the phase beta * l
#: stays below about 1e165 for any finite eps_r over lengths within
#: MAX_LENGTH_MM, where 1e299 GHz overflowed beta itself.
MAX_FREQ_GHZ = 10**6


@dataclass(frozen=True)
class ScanConfig:
    substrate: Substrate
    trace: TracePath
    probe: LoopProbe
    grid: ScanGrid
    sweep: FrequencySweep
    drive: DriveSpec
    kernel: str      # calibration.kernel and sign_mode, for provenance.json
    sign_mode: str
    digest: str


class _Section:
    def __init__(self, name, data):
        if not isinstance(data, dict):
            raise ConfigError(f"{name}: must be an object")
        self.name = name
        self.data = dict(data)

    def take(self, key, default=_REQUIRED, kind=float):
        if key not in self.data:
            if default is _REQUIRED:
                raise ConfigError(f"{self.name}.{key}: required key missing")
            return default
        val = self.data.pop(key)
        if kind is float:
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ConfigError(f"{self.name}.{key}: expected a number")
            if not _finite(val):
                raise ConfigError(f"{self.name}.{key}: expected a finite number")
            return float(val)
        if kind is int:
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{self.name}.{key}: expected an integer")
            return val
        if kind is str:
            if not isinstance(val, str):
                raise ConfigError(f"{self.name}.{key}: expected a string")
            return val
        return val

    def drop(self, *keys, positive=False):
        """Check keys the model does not use, then forget them: each, if
        present, must be a finite number >= 0 (> 0 if `positive`)."""
        for key in keys:
            if key in self.data:
                val = self.take(key)
                if val < 0 or (positive and val == 0):
                    raise ConfigError(f"{self.name}.{key}: must be {'>' if positive else '>='} 0")

    def length(self, key, default=_REQUIRED):
        return _length(f"{self.name}.{key}", self.take(key, default))

    def done(self):
        if self.data:
            raise ConfigError(f"{self.name}.{next(iter(self.data))}: unknown key")


def _finite(num):
    """True if the JSON number `num` is a finite double (json accepts NaN,
    Infinity and integers too large for a double)."""
    try:
        return math.isfinite(num)
    except OverflowError:
        return False


def _length(name, mm):
    if abs(mm) > MAX_LENGTH_MM:
        raise ConfigError(f"{name}: {mm!r} mm is beyond the length bound of {MAX_LENGTH_MM} mm")
    return _mm(mm)


def _ghz(name, ghz):
    if ghz > MAX_FREQ_GHZ:
        raise ConfigError(f"{name}: {ghz!r} GHz is beyond the frequency bound of "
                          f"{MAX_FREQ_GHZ} GHz")
    return ghz * 1e9


def _mm(v):
    return v * 1e-3


def _dbm_to_w(dbm):
    return 10.0 ** (dbm / 10.0) * 1e-3


def _edge_counts(vertices, max_len):
    """Segments `_subdivide` makes of each edge, as Python ints; None if
    too many to count.  An edge too long to square in a double counts as
    too many."""
    try:
        with np.errstate(over="ignore"):
            return [max(1, math.ceil(float(np.linalg.norm(np.subtract(b, a))) / max_len))
                    for a, b in zip(vertices, vertices[1:])]
    except (OverflowError, ZeroDivisionError):
        return None


def _subdivide(vertices, counts):
    out = [vertices[0]]
    for a, b, n in zip(vertices, vertices[1:], counts):
        a = np.asarray(a)
        b = np.asarray(b)
        for k in range(1, n + 1):
            out.append(tuple(a + (b - a) * (k / n)))
    return tuple(out)


def center_over_trace(trace: TracePath, substrate: Substrate, height):
    """Probe center `height` above the midpoint of the trace's first and last vertex."""
    mid = 0.5 * (np.asarray(trace.vertices[0]) + np.asarray(trace.vertices[-1]))
    return (float(mid[0]), float(mid[1]), substrate.h + height)


def config_digest(doc):
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def build_config(doc):
    """ScanConfig from a parsed JSON document (see the bundled configs)."""
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    digest = config_digest(doc)
    doc = dict(doc)
    sections = {}
    for name in ("substrate", "trace", "probe", "grid", "sweep", "drive", "calibration"):
        if name not in doc:
            raise ConfigError(f"{name}: required section missing")
        sections[name] = _Section(name, doc.pop(name))
    if doc:
        raise ConfigError(f"{next(iter(doc))}: unknown section")

    s = sections["substrate"]
    substrate = Substrate(h=s.length("h", 1.6), eps_r=s.take("eps_r", 4.6))
    s.drop("tan_d", "t")
    s.drop("sigma", positive=True)
    s.done()

    t = sections["trace"]
    raw_verts = t.take("vertices", kind=list)
    if not isinstance(raw_verts, list) or len(raw_verts) < 2:
        raise ConfigError("trace.vertices: expected a list of at least 2 [x_mm, y_mm] points")
    verts = []
    for i, v in enumerate(raw_verts):
        if (not isinstance(v, list) or len(v) != 2
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                           and _finite(c) for c in v)):
            raise ConfigError(f"trace.vertices[{i}]: expected [x_mm, y_mm]")
        verts.append((_mm(float(v[0])), _mm(float(v[1])), substrate.h))
    max_seg = t.take("max_segment", None, kind=object)
    if max_seg is not None:
        if (not isinstance(max_seg, (int, float)) or isinstance(max_seg, bool)
                or not _finite(max_seg) or max_seg <= 0):
            raise ConfigError("trace.max_segment: expected a positive number (mm) or null")
        max_len = _mm(float(max_seg))
        counts = _edge_counts(verts, max_len)
        n = None if counts is None else sum(counts)
        if n is None or n > MAX_SEGMENTS:
            count = "too many" if n is None or n >= 10**12 else n
            raise ConfigError(f"trace.max_segment: {max_seg!r} mm makes {count} segments, "
                              f"more than {MAX_SEGMENTS}")
    elif len(verts) - 1 > MAX_SEGMENTS:
        raise ConfigError(f"trace.vertices: {len(verts) - 1} segments, more than {MAX_SEGMENTS}")
    for i, v in enumerate(raw_verts):
        _length(f"trace.vertices[{i}]", max(v, key=abs))
    for i in range(1, len(verts)):  # named before `_subdivide` renumbers them
        if verts[i] == verts[i - 1]:
            raise ConfigError(f"trace.vertices[{i}]: same point as trace.vertices[{i - 1}]")
    if max_seg is not None:
        verts = _subdivide(verts, counts)
    trace = TracePath(vertices=tuple(verts), width=_mm(t.take("width", 3.0)),
                      z0_line=t.take("z0", 50.0),
                      termination=t.take("termination", "matched", kind=str))
    t.done()

    p = sections["probe"]
    height = p.length("height")
    if height <= 0:
        raise ConfigError("probe.height: must be > 0")
    probe = LoopProbe(normal=p.take("normal", "y", kind=str),
                      side_s=p.length("side", 4.0),
                      loading=p.take("loading", "matched-halving", kind=str),
                      quad_n=p.take("quad_n", 8, kind=int),
                      aperture=p.take("aperture", "uniform", kind=str))
    p.done()
    if probe.aperture == "integrated":
        pairs = (1 + probe.quad_n**2) * 2 * trace.n_segments
        if pairs > MAX_PROBE_PAIRS:
            raise ConfigError(f"probe.quad_n: {probe.quad_n} makes {pairs} point x segment "
                              f"pairs per probe, more than {MAX_PROBE_PAIRS}")

    g = sections["grid"]
    grid = ScanGrid(x_min=g.length("x_min"), x_max=g.length("x_max"),
                    y_min=g.length("y_min"), y_max=g.length("y_max"),
                    dx=_mm(g.take("dx", 0.5)), dy=_mm(g.take("dy", 0.5)),
                    z_height=height)
    g.done()

    w = sections["sweep"]
    sweep = FrequencySweep(f_min=_ghz("sweep.f_min", w.take("f_min")),
                           f_max=_ghz("sweep.f_max", w.take("f_max")),
                           n_points=w.take("n_points", 31, kind=int),
                           spacing=w.take("spacing", "linear", kind=str))
    w.done()
    cells = grid.nx * grid.ny * sweep.n_points
    if cells > MAX_CELLS:
        raise ConfigError(f"grid: {grid.nx} x {grid.ny} points x {sweep.n_points} frequencies "
                          f"= {cells} cells, more than {MAX_CELLS}")
    currents = trace.n_segments * sweep.n_points
    if currents > MAX_CELLS:
        raise ConfigError(f"sweep.n_points: {trace.n_segments} trace segments x "
                          f"{sweep.n_points} frequencies = {currents} segment currents, "
                          f"more than {MAX_CELLS}")

    d = sections["drive"]
    dbm = d.take("power_dbm", -10.0)
    try:
        power = _dbm_to_w(dbm)
    except OverflowError:
        power = math.inf
    # The chain takes sqrt(power / z0) as the line current and divides by
    # sqrt(Z_REF x power) for S21.
    if not 0 < Z_REF * power < math.inf:
        raise ConfigError(f"drive.power_dbm: {dbm!r} dBm is out of range")
    drive = DriveSpec(power=power)
    if not math.isfinite(power / trace.z0_line):
        raise ConfigError(f"trace.z0: {trace.z0_line!r} ohm is out of range: drive power "
                          f"{power!r} W / z0 overflows a double")
    d.drop("source_z", positive=True)
    d.done()

    c = sections["calibration"]
    kernel = c.take("kernel", "paper", kind=str)
    sign_mode = c.take("sign_mode", "eq1-consistent", kind=str)
    if kernel not in KERNELS:
        raise ConfigError(f"calibration.kernel: must be one of {KERNELS}")
    if sign_mode not in SIGN_MODES:
        raise ConfigError(f"calibration.sign_mode: must be one of {SIGN_MODES}")
    c.drop("d", "h", positive=True)
    c.done()

    return ScanConfig(substrate=substrate, trace=trace, probe=probe, grid=grid,
                      sweep=sweep, drive=drive, kernel=kernel, sign_mode=sign_mode,
                      digest=digest)


def path_error(action, path, exc):
    """The ConfigError "<action> <path>: <reason>" for an OSError, or for the
    ValueError of a NUL byte in `path`, which is then named by its repr."""
    if isinstance(exc, OSError):
        return ConfigError(f"{action} {path}: {exc.strerror}")
    return ConfigError(f"{action} {path!r}: {exc}")


@contextlib.contextmanager
def reading(path):
    """The file at `path`, open to read its bytes, for a `with` block.

    An OSError in opening or reading it, or the ValueError of a NUL byte
    in `path`, leaves as the ConfigError "cannot read PATH: ..."
    (`path_error`), and a UnicodeDecodeError of its bytes in the block as
    "cannot read PATH: not UTF-8 text (byte 0x..: reason)".
    """
    try:
        fh = open(path, "rb")
    except (OSError, ValueError) as exc:
        raise path_error("cannot read", path, exc) from None
    with fh:
        try:
            yield fh
        except OSError as exc:
            raise path_error("cannot read", path, exc) from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read {path}: not UTF-8 text "
                              f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None


class _Repeated(str):
    """The dotted path to a key that a config's JSON gives twice."""


def _object(pairs):
    """The dict of a JSON object's (key, value) pairs, or the `_Repeated`
    path to the first key given twice in it or in an object it holds."""
    obj = {}
    for key, val in pairs:
        if isinstance(val, _Repeated):
            return _Repeated(f"{key}.{val}")
        if key in obj:
            return _Repeated(key)
        obj[key] = val
    return obj


def load_config(path):
    try:
        with reading(path) as fh:
            doc = json.loads(fh.read().decode("utf-8"), object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if isinstance(doc, _Repeated):  # json.loads would keep the last value
        raise ConfigError(f"{doc}: key given twice")
    return build_config(doc)
