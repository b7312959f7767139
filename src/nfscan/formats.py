"""File formats: Touchstone v1, field-map / profile / CF CSV, and P5 PGM.

All text writers emit decimals that survive a parse/write cycle, so
write(parse(write(x))) is byte-identical to write(x).  Map and profile
CSV metadata lines start with '#' and use SI units; body rows run from
y_min upward (row-major, matching grid_points).  PGM output puts y_max at
the top, as an image viewer would expect.

A map CSV holds one dB map (FieldMap), and every cell is a finite dB
value written as Python `repr` of a double: the shortest decimal that
parses back to the same double.  The body is formatted by orjson
(Ryu-style shortest round-trip digits) in one call for the whole map: a
1001 x 1001 map takes 0.2 s, against 1.0 s with one `repr` per cell
(Intel Xeon, one core).  orjson spells a double as `repr` does except for
0 < |x| < 1e-4 and |x| >= 1e16 ("0.00005", "1e16" for "5e-05",
"1e+16"); the rows holding such a cell are written with `repr`, which is
what keeps every file byte-identical to one `repr` per cell.

A cell parses if `float()` accepts it and the result is finite;
surrounding whitespace and `1_0` are accepted.  A bad cell raises
ParseError naming its line and its text.  Lines end at "\n" (a CRLF's
"\r" is stripped as padding); a bare "\r" does not end a line.

The body is parsed as JSON by orjson, in blocks of 64 rows joined as
"[[row],[row],...]" and converted with `np.array(..., dtype=float)`.
Every JSON number is a `float()` spelling that orjson rounds to the same
double.  Two things JSON reads differently fall back: a `-0` cell (the
int 0, losing the sign) and non-number tokens (string, object, `true`,
`false`, `null`), which numpy would cast to a float ("0.0" to 0.0,
`null` to NaN).  A block holding `"`, `{`, `}`, `t`, `f` or `n`, or an
exact zero spelled `-0`, or that orjson rejects, or not shaped (rows,
nx), sends the whole body cell by cell: each row's cells are counted,
then `float()` parses every cell, taking the spellings JSON does not
(`1_0`, `+1`, `.5`, non-ASCII digits, "\x0c" padding) and naming the
first bad cell.  A 201 x 201 map parses in 4 ms, against 13 ms with
numpy's C text reader, used before (Intel Xeon, one core).
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import ConfigError, ParseError
from .model import ScanGrid, readonly, undb20

MAP_MAGIC = "nfscan-map 1"
CF_MAGIC = "nfscan-cf 1"
PROFILE_MAGIC = "nfscan-profile 1"

COMPONENTS = ("hx", "hy", "hz", "mag", "s21", "vport")

_TS_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_TS_FORMATS = ("ri", "ma", "db")


def _gfmt(x):
    """9-significant-digit decimal (Touchstone rows)."""
    return f"{float(x):.9g}"


def _rfmt(x):
    """Shortest decimal that round-trips the exact double (CSV bodies)."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# Touchstone v1

@dataclass(frozen=True)
class NetworkData:
    """Frequency-indexed complex S-parameters with reference impedance."""

    f: np.ndarray        # Hz, strictly increasing
    s: np.ndarray        # (n, p, p) complex
    n_ports: int
    z_ref: float = 50.0

    def __post_init__(self):
        f = readonly(self.f, float)
        s = readonly(self.s, complex)
        if s.size == 0:
            s = s.reshape(0, self.n_ports, self.n_ports)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "s", s)
        if self.n_ports < 1:
            raise ConfigError("network: n_ports must be >= 1")
        if self.z_ref <= 0:
            raise ConfigError("network: z_ref must be > 0")
        if f.ndim != 1 or s.shape != (len(f), self.n_ports, self.n_ports):
            raise ConfigError(
                f"network: S shape {s.shape} inconsistent with {len(f)} rows x {self.n_ports} ports")
        if len(f) > 1 and not np.all(np.diff(f) > 0):
            raise ConfigError("network: frequencies must be strictly increasing")


def parse_touchstone(text):
    """Parse a 1- or 2-port Touchstone v1 document.

    Option line "# <unit> S <fmt> R <z>" with units Hz/kHz/MHz/GHz and
    formats RI, MA (magnitude, angle in degrees) or DB (20*log10
    magnitude, angle in degrees); any token may be omitted (defaults GHz,
    MA, 50).  '!' starts a comment.  Two-port rows are ordered
    S11 S21 S12 S22.  Errors carry the offending line number.
    """
    unit = 1e9
    fmt = "ma"
    z_ref = 50.0
    saw_option = False
    ports_hint = None
    rows = []
    freqs = []
    ncols = None

    # Lines end at "\n" only, as in _split_header: str.splitlines would
    # also break at characters str.split() takes as whitespace (\x0c,
    # \x85, \u2028, ...).  strip() drops the "\r" of a CRLF line end.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line, _, comment = raw.partition("!")
        comment = comment.strip().lower()
        if comment.startswith("ports:"):
            tail = comment[len("ports:"):].strip()
            if tail.isdigit():
                ports_hint = int(tail)
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if saw_option:
                raise ParseError("multiple option lines", line=lineno)
            saw_option = True
            unit, fmt, z_ref = _parse_option_line(line, lineno)
            continue
        tokens = line.split()
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(f"non-numeric token in data row: {line!r}", line=lineno) from None
        if ncols is None:
            if len(values) == 3:
                ncols = 3
            elif len(values) == 9:
                ncols = 9
            else:
                raise ParseError(
                    f"expected 3 (1-port) or 9 (2-port) columns, got {len(values)}", line=lineno)
        elif len(values) != ncols:
            raise ParseError(f"expected {ncols} columns, got {len(values)}", line=lineno)
        f_hz = values[0] * unit
        if freqs and not f_hz > freqs[-1]:
            raise ParseError(f"frequency {f_hz} Hz not strictly increasing", line=lineno)
        freqs.append(f_hz)
        rows.append([_decode_pair(values[i], values[i + 1], fmt)
                     for i in range(1, len(values), 2)])

    if ncols is None:
        n_ports = ports_hint
        if n_ports is None:
            raise ParseError("no data rows and no '! ports: N' hint to fix the port count")
        if n_ports not in (1, 2):
            raise ParseError(f"unsupported port count {n_ports}")
        s = np.zeros((0, n_ports, n_ports), dtype=complex)
        return NetworkData(f=np.zeros(0), s=s, n_ports=n_ports, z_ref=z_ref)

    n_ports = 1 if ncols == 3 else 2
    s = np.empty((len(rows), n_ports, n_ports), dtype=complex)
    for i, vals in enumerate(rows):
        if n_ports == 1:
            s[i, 0, 0] = vals[0]
        else:
            s[i, 0, 0], s[i, 1, 0], s[i, 0, 1], s[i, 1, 1] = vals
    return NetworkData(f=np.asarray(freqs), s=s, n_ports=n_ports, z_ref=z_ref)


def _parse_option_line(line, lineno):
    unit = 1e9
    fmt = "ma"
    z_ref = 50.0
    tokens = line[1:].split()
    i = 0
    while i < len(tokens):
        tok = tokens[i].lower()
        if tok in _TS_UNITS:
            unit = _TS_UNITS[tok]
        elif tok in _TS_FORMATS:
            fmt = tok
        elif tok == "s":
            pass
        elif tok in ("y", "z", "g", "h"):
            raise ParseError(f"unsupported parameter type {tok.upper()!r}", line=lineno)
        elif tok == "r":
            if i + 1 >= len(tokens):
                raise ParseError("'R' with no resistance value", line=lineno)
            try:
                z_ref = float(tokens[i + 1])
            except ValueError:
                raise ParseError(f"bad resistance value {tokens[i + 1]!r}", line=lineno) from None
            if z_ref <= 0:
                raise ParseError(f"reference impedance must be > 0, got {z_ref}", line=lineno)
            i += 1
        else:
            raise ParseError(f"unknown option token {tokens[i]!r}", line=lineno)
        i += 1
    return unit, fmt, z_ref


def _decode_pair(a, b, fmt):
    if fmt == "ri":
        return complex(a, b)
    if fmt == "ma":
        return a * cmath.exp(1j * math.radians(b))
    return undb20(a) * cmath.exp(1j * math.radians(b))  # db


def _encode_pair(v, fmt):
    if fmt == "ri":
        return v.real, v.imag
    mag = abs(v)
    ang = math.degrees(cmath.phase(v))
    if fmt == "ma":
        return mag, ang
    return (20.0 * math.log10(mag) if mag > 0 else -math.inf), ang


def write_touchstone(net: NetworkData, fmt="RI"):
    """Render a network as Touchstone v1 text (always in GHz).

    A zero magnitude in DB format is written as -inf, which this parser
    (but not every third-party tool) reads back exactly.
    """
    fmt = fmt.lower()
    if fmt not in _TS_FORMATS:
        raise ConfigError(f"touchstone format must be one of {tuple(f.upper() for f in _TS_FORMATS)}")
    lines = [f"! ports: {net.n_ports}",
             f"# GHz S {fmt.upper()} R {_gfmt(net.z_ref)}"]
    if net.n_ports == 1:
        order = [(0, 0)]
    else:
        order = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for i, f_hz in enumerate(net.f):
        cells = [_gfmt(f_hz / 1e9)]
        for (r, c) in order:
            a, b = _encode_pair(complex(net.s[i, r, c]), fmt)
            cells.append(_gfmt(a))
            cells.append(_gfmt(b))
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Field maps

@dataclass(frozen=True)
class FieldMap:
    """The dB map of one map CSV: values over a ScanGrid at one frequency.

    `values` has shape (ny, nx) with row 0 at y_min and holds finite dB
    magnitudes.  Complex scan products are plain arrays (ScanResult).
    """

    grid: ScanGrid
    f: float
    component: str
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.component not in COMPONENTS:
            raise ConfigError(f"map component must be one of {COMPONENTS}")
        if np.iscomplexobj(self.values):
            raise ConfigError("map values must be real dB values, not complex")
        vals = readonly(self.values, float)
        object.__setattr__(self, "values", vals)
        expect = (self.grid.ny, self.grid.nx)
        if vals.shape != expect:
            raise ConfigError(f"map values shape {vals.shape} != grid shape {expect}")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("dB map contains non-finite values")


def write_map_csv(fmap: FieldMap):
    grid = fmap.grid
    lines = [f"# {MAP_MAGIC}"]
    for key, val in (("x_min", grid.x_min), ("x_max", grid.x_max),
                     ("y_min", grid.y_min), ("y_max", grid.y_max),
                     ("dx", grid.dx), ("dy", grid.dy),
                     ("z_height", grid.z_height), ("f_hz", fmap.f)):
        lines.append(f"# {key}: {_rfmt(val)}")
    lines.append(f"# component: {fmap.component}")
    lines.append("# value_kind: db")
    for key in sorted(fmap.meta):
        lines.append(f"# meta.{key}: {fmap.meta[key]}")
    header = "\n".join(lines)
    # One orjson call for the whole map, "[[a,b],[c,d]]", with `repr`'s
    # digits; the rows it spells differently (_repr_rows) are redone with
    # `repr`.  Each copy is dropped before the next is made, so the writer
    # peaks below 3x the text it returns.
    values = np.ascontiguousarray(fmap.values)
    repr_rows = _repr_rows(values)
    body = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY).replace(b"],[", b"\n")
    body = str(memoryview(body)[2:-2], "ascii")
    if not repr_rows:
        return "".join([header, "\n", body, "\n"])
    rows = body.split("\n")
    del body
    for r in repr_rows:
        rows[r] = ",".join(map(repr, values[r].tolist()))
    return "\n".join([header, *rows, ""])


def _repr_rows(values):
    """Indices of the rows orjson would spell differently from `repr`.

    Both write the shortest round-trip digits.  For 0 < |x| < 1e-4 and
    |x| >= 1e16 `repr` writes an exponent ("5e-05", "5e-07", "1e+16"),
    and orjson a positional decimal ("0.00005") or an exponent with no
    "+" or zero padding ("5e-7", "1e16").  Elsewhere they agree.  Built
    from comparisons, so no float copy of the map is made.
    """
    odd = (values < 1e-4) & (values > -1e-4) & (values != 0)
    odd |= values >= 1e16
    odd |= values <= -1e16
    return np.flatnonzero(odd.any(axis=1)).tolist()


_MAP_FLOAT_KEYS = ("x_min", "x_max", "y_min", "y_max", "dx", "dy", "z_height", "f_hz")


def parse_map_csv(text):
    header, body = _split_header(text, MAP_MAGIC, "field map")
    missing = [k for k in _MAP_FLOAT_KEYS + ("component", "value_kind") if k not in header]
    if missing:
        raise ParseError(f"missing header keys: {', '.join(missing)}")
    nums = {}
    for key in _MAP_FLOAT_KEYS:
        try:
            nums[key] = float(header[key])
        except ValueError:
            raise ParseError(f"header {key}: not a number: {header[key]!r}") from None
    grid = ScanGrid(x_min=nums["x_min"], x_max=nums["x_max"], y_min=nums["y_min"],
                    y_max=nums["y_max"], dx=nums["dx"], dy=nums["dy"],
                    z_height=nums["z_height"])
    if header["value_kind"] != "db":
        raise ParseError(f"header value_kind: must be db, got {header['value_kind']!r}")
    meta = {k[len("meta."):]: v for k, v in header.items() if k.startswith("meta.")}

    if len(body) != grid.ny:
        raise ParseError(f"expected {grid.ny} data rows, got {len(body)}")
    values = _parse_json(body, grid.nx)
    if values is None:
        values = _parse_cells(body, grid.nx)
    values.flags.writeable = False  # kept by the FieldMap without a copy
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values))[0]
        lineno, line = body[r]
        raise ParseError(f"non-finite db cell {line.split(',')[c].strip()!r}", line=lineno)
    return FieldMap(grid=grid, f=nums["f_hz"], component=header["component"],
                    values=values, meta=meta)


#: Body rows per `orjson.loads` call: a block's Python floats are a few
#: MB at most, while the per-call cost stays small.
_BLOCK_ROWS = 64

#: A `-0` cell, which JSON reads as the int 0, losing the sign.
_NEG_ZERO = re.compile(r"-0(?![0-9.eE])")


def _parse_json(body, nx):
    """The body as a (rows, nx) array parsed as JSON, or None where it
    must be parsed cell by cell (see the module docstring).  Nothing is
    allocated from the header: each block is as large as its text."""
    lines = [line for _, line in body]
    blocks = []
    for lo in range(0, len(lines), _BLOCK_ROWS):
        rows = lines[lo:lo + _BLOCK_ROWS]
        text = "[[" + "],[".join(rows) + "]]"
        if any(c in text for c in '"{}tfn'):
            return None
        try:
            block = np.array(orjson.loads(text), dtype=float)
        except ValueError:  # orjson.JSONDecodeError, or ragged rows
            return None
        if block.shape != (len(rows), nx):
            return None
        # `"-0" in text` would match every negative cell; only a block
        # with an exact zero can hold a `-0`.
        if not block.all() and _NEG_ZERO.search(text):
            return None
        blocks.append(block)
    return np.concatenate(blocks)


def _parse_cells(body, nx):
    """The body cell by cell with `float()`, naming the first bad cell."""
    # Count every row's cells before allocating, so the map a header asks
    # for is never larger than what the file holds.
    for r, (lineno, line) in enumerate(body):
        n = line.count(",") + 1
        if n != nx:
            raise ParseError(f"row {r}: expected {nx} columns, got {n}", line=lineno)
    values = np.empty((len(body), nx))
    for r, (lineno, line) in enumerate(body):
        values[r] = [_parse_cell(cell, lineno) for cell in line.split(",")]
    return values


def _parse_cell(cell, lineno):
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"bad db cell {cell.strip()!r}", line=lineno) from None


#: ASCII separators that str.strip() takes as spaces and float() does
#: not; a line holding one could pass for valid.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _split_header(text, magic, what):
    """('#' metadata dict, [(lineno, body line), ...])."""
    found = [i for i in map(text.find, _SEPARATORS) if i >= 0]
    if found:
        pos = min(found)
        raise ParseError(f"control character {text[pos]!r}", line=text.count("\n", 0, pos) + 1)
    header = {}
    body = []
    saw_magic = False
    # Lines end at "\n" only: str.splitlines would also break at characters
    # float() takes as padding (\x0c, \x85, \u2028, ...).  strip() drops
    # the "\r" of a CRLF line end.
    for lineno, raw in enumerate(text.removesuffix("\n").split("\n"), start=1):
        line = raw.strip()
        if not line:
            if body:
                raise ParseError("blank line inside data body", line=lineno)
            continue
        if line.startswith("#"):
            if body:
                raise ParseError("'#' header line after data body", line=lineno)
            content = line[1:].strip()
            if not saw_magic:
                if content != magic:
                    raise ParseError(f"not a {what} file (expected '# {magic}')", line=lineno)
                saw_magic = True
                continue
            key, sep, val = content.partition(":")
            if not sep:
                raise ParseError(f"malformed header line {line!r}", line=lineno)
            header[key.strip()] = val.strip()
        else:
            if not saw_magic:
                raise ParseError(f"not a {what} file (expected '# {magic}')", line=lineno)
            body.append((lineno, line))
    if not saw_magic:
        raise ParseError(f"not a {what} file (empty input)")
    return header, body


# ---------------------------------------------------------------------------
# Antenna-factor tables

def write_cf_csv(table):
    lines = [f"# {CF_MAGIC}",
             f"# kernel: {table.kernel}",
             f"# d: {_rfmt(table.d)}",
             f"# h: {_rfmt(table.h)}",
             "# columns: f_hz,cf_db"]
    for f_hz, cf in zip(table.f, table.cf_db):
        lines.append(f"{_rfmt(f_hz)},{_rfmt(cf)}")
    return "\n".join(lines) + "\n"


def parse_cf_csv(text):
    """CFTable from a CF CSV; header keys other than kernel/d/h are ignored."""
    from .calibration import CFTable
    header, body = _split_header(text, CF_MAGIC, "calibration table")
    for key in ("kernel", "d", "h"):
        if key not in header:
            raise ParseError(f"missing header key {key}")
    try:
        d = float(header["d"])
        h = float(header["h"])
    except ValueError:
        raise ParseError("header d/h: not a number") from None
    freqs = []
    cfs = []
    for lineno, line in body:
        cells = line.split(",")
        if len(cells) != 2:
            raise ParseError(f"expected 'f_hz,cf_db', got {line!r}", line=lineno)
        try:
            freqs.append(float(cells[0]))
            cfs.append(float(cells[1]))
        except ValueError:
            raise ParseError(f"bad number in row {line!r}", line=lineno) from None
    if not freqs:
        raise ParseError("calibration table has no rows")
    return CFTable(f=np.asarray(freqs), cf_db=np.asarray(cfs),
                   kernel=header["kernel"], d=d, h=h)


# ---------------------------------------------------------------------------
# Profiles

def write_profile_csv(coords, values, axis, at, f_hz, component):
    """Profile CSV of a cut through a dB map."""
    lines = [f"# {PROFILE_MAGIC}",
             f"# axis: {axis}",
             f"# at: {_rfmt(at)}",
             f"# f_hz: {_rfmt(f_hz)}",
             f"# component: {component}",
             "# value_kind: db",
             "# columns: coord_m,value"]
    for x, v in zip(coords, values):
        lines.append(f"{_rfmt(x)},{_rfmt(v)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# PGM rendering

def render_pgm(fmap: FieldMap, lo, hi):
    """Binary P5 PGM of a dB map: lo -> 0, hi -> 255, row 0 at y_max.

    Pixels are round(255 * clamp((v - lo)/(hi - lo), 0, 1)) with
    round-half-up, so repeated renders are byte-identical.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ConfigError(f"render range: lo ({lo}) must be < hi ({hi})")
    if not math.isfinite(hi - lo):
        raise ConfigError(f"render range: hi ({hi}) - lo ({lo}) overflows a double")
    t = (fmap.values - lo) / (hi - lo)
    pix = np.floor(255.0 * np.clip(t, 0.0, 1.0) + 0.5).astype(np.uint8)
    pix = pix[::-1]  # image top = largest y
    header = f"P5\n{fmap.grid.nx} {fmap.grid.ny}\n255\n".encode("ascii")
    return header + pix.tobytes()
