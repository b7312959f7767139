"""File formats: Touchstone v1, field-map / profile / CF CSV, and P5 PGM.

All text writers emit decimals that survive a parse/write cycle, so
write(parse(write(x))) is byte-identical to write(x).  Map and profile
CSV metadata lines start with '#' and use SI units; body rows run from
y_min upward (row-major, matching grid_points).  PGM output puts y_max at
the top, as an image viewer would expect.

Every text parser reads its lines from `_lines`: lines end at "\n" (a
CRLF's "\r" is stripped as padding; a bare "\r" does not end a line),
and a file holding one of the ASCII separators "\x1c"-"\x1f" is an
error naming that line.  Every CSV is written by `_write_table`, and
every CSV is read by `_read_table` (header keys and numbers) and
`_read_body` (cells), so map and CF tables share one set of rules and
error texts.

A map CSV holds one dB map (FieldMap), and every cell is a finite dB
value written as Python `repr` of a double: the shortest decimal that
parses back to the same double.  A CSV body is formatted by orjson
(Ryu-style shortest round-trip digits), one call per row, and the rows
are joined with "\n": a 201 x 201 map takes 2.8 ms (Intel Xeon, one
core).  orjson spells a double as `repr` does except for 0 < |x| < 1e-4
and |x| >= 1e16 ("0.00005", "1e16" for "5e-05", "1e+16"); the rows
holding such a cell are written with `repr`, which is what keeps every
file byte-identical to one `repr` per cell.

A cell parses if `float()` accepts it and the result is finite;
surrounding whitespace and `1_0` are accepted.  A bad cell raises
ParseError naming its line and its text.

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
first bad cell.  A 201 x 201 map parses in 4 ms (Intel Xeon, one core).
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field

import numpy as np
import orjson

from .calibration import CFTable
from .errors import ConfigError, ParseError
from .model import ScanGrid, readonly, undb20

MAP_MAGIC = "nfscan-map 1"
CF_MAGIC = "nfscan-cf 1"
PROFILE_MAGIC = "nfscan-profile 1"

COMPONENTS = ("hx", "hy", "hz", "mag", "s21", "vport")

_TS_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_TS_FORMATS = ("ri", "ma", "db")
#: 20*log10 of the largest double: a DB magnitude from here up overflows.
_TS_DB_MAX = 20.0 * math.log10(np.finfo(float).max)


def _gfmt(x):
    """9-significant-digit decimal (Touchstone rows)."""
    return f"{float(x):.9g}"


def _rfmt(x):
    """Shortest decimal that round-trips the exact double (CSV bodies)."""
    return repr(float(x))


#: ASCII separators that str.strip() takes as spaces and float() does
#: not; a line holding one could pass for valid.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _lines(text):
    """(lineno, line) for each line of `text`; ParseError on a separator.

    Lines end at "\n" only: str.splitlines would also break at characters
    float() and str.split() take as padding (\x0c, \x85, \u2028, ...).
    The text is split before the empty element after a final "\n" is
    dropped, so it is never copied whole.
    """
    found = [i for i in map(text.find, _SEPARATORS) if i >= 0]
    if found:
        pos = min(found)
        raise ParseError(f"control character {text[pos]!r}", line=text.count("\n", 0, pos) + 1)
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return enumerate(lines, start=1)


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
        if not 0 < self.z_ref < math.inf:
            raise ConfigError("network: z_ref must be finite and > 0")
        if f.ndim != 1 or s.shape != (len(f), self.n_ports, self.n_ports):
            raise ConfigError(
                f"network: S shape {s.shape} inconsistent with {len(f)} rows x {self.n_ports} ports")
        if len(f) > 1 and not np.all(np.diff(f) > 0):
            raise ConfigError("network: frequencies must be strictly increasing")
        if not (np.isfinite(f).all() and np.isfinite(s).all()):
            raise ConfigError("network: frequencies and S-parameters must be finite")


def parse_touchstone(text):
    """Parse a 1- or 2-port Touchstone v1 document.

    Option line "# <unit> S <fmt> R <z>" with units Hz/kHz/MHz/GHz and
    formats RI, MA (magnitude, angle in degrees) or DB (20*log10
    magnitude, angle in degrees); any token may be omitted (defaults GHz,
    MA, 50); it must come before the first data row.  '!' starts a
    comment.  Two-port rows are ordered S11 S21 S12 S22.  Errors carry
    the offending line number.
    """
    unit = 1e9
    fmt = "ma"
    z_ref = 50.0
    saw_option = False
    ports_hint = None
    rows = []
    freqs = []
    ncols = None
    for lineno, raw in _lines(text):
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
            if freqs:
                raise ParseError("option line after a data row", line=lineno)
            saw_option = True
            unit, fmt, z_ref = _parse_option_line(line, lineno)
            continue
        tokens = line.split()
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(f"non-numeric token in data row: {line!r}", line=lineno) from None
        if ncols is None:
            if len(values) not in (3, 9):
                raise ParseError(
                    f"expected 3 (1-port) or 9 (2-port) columns, got {len(values)}", line=lineno)
            ncols = len(values)
        elif len(values) != ncols:
            raise ParseError(f"expected {ncols} columns, got {len(values)}", line=lineno)
        if fmt == "db" and any(a >= _TS_DB_MAX for a in values[1::2]):
            raise ParseError(f"DB magnitude of {_TS_DB_MAX:.6g} dB or more overflows a double",
                             line=lineno)
        f_hz = values[0] * unit
        row = [_decode_pair(values[i], values[i + 1], fmt) for i in range(1, len(values), 2)]
        if not (math.isfinite(f_hz) and all(map(cmath.isfinite, row))):
            raise ParseError(f"non-finite frequency or S-parameter in data row: {line!r}",
                             line=lineno)
        if freqs and not f_hz > freqs[-1]:
            raise ParseError(f"frequency {f_hz} Hz not strictly increasing", line=lineno)
        freqs.append(f_hz)
        rows.append(row)

    if ncols is None:
        n_ports = ports_hint
        if n_ports is None:
            raise ParseError("no data rows and no '! ports: N' hint to fix the port count")
        if n_ports not in (1, 2):
            raise ParseError(f"unsupported port count {n_ports}")
        s = np.zeros((0, n_ports, n_ports), dtype=complex)
        return NetworkData(f=np.zeros(0), s=s, n_ports=n_ports, z_ref=z_ref)

    n_ports = 1 if ncols == 3 else 2
    s = np.array(rows).reshape(-1, n_ports, n_ports).transpose(0, 2, 1)  # rows are column-major
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
            if not 0 < z_ref < math.inf:
                raise ParseError(f"reference impedance must be finite and > 0, got {z_ref}",
                                 line=lineno)
            i += 1
        else:
            raise ParseError(f"unknown option token {tokens[i]!r}", line=lineno)
        i += 1
    return unit, fmt, z_ref


def _decode_pair(a, b, fmt):
    if fmt == "ri":
        return complex(a, b)
    mag = a if fmt == "ma" else undb20(a)
    return mag * cmath.exp(1j * math.radians(b))


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
    for f_hz, s in zip(net.f, net.s):
        cells = [_gfmt(f_hz / 1e9)]
        for v in s.T.ravel():  # S11 S21 S12 S22: column-major
            a, b = _encode_pair(complex(v), fmt)
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
        if not 0 < self.f < math.inf:
            raise ConfigError(f"map frequency {self.f!r} Hz: must be finite and > 0")
        if np.iscomplexobj(self.values):
            raise ConfigError("map values must be real dB values, not complex")
        vals = readonly(self.values, float)
        object.__setattr__(self, "values", vals)
        expect = (self.grid.ny, self.grid.nx)
        if vals.shape != expect:
            raise ConfigError(f"map values shape {vals.shape} != grid shape {expect}")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("dB map contains non-finite values")


#: The map header's numbers: the ScanGrid fields by name, then f_hz.
_MAP_FLOAT_KEYS = ("x_min", "x_max", "y_min", "y_max", "dx", "dy", "z_height", "f_hz")


def write_map_csv(fmap: FieldMap):
    nums = {**vars(fmap.grid), "f_hz": fmap.f}
    items = [(key, _rfmt(nums[key])) for key in _MAP_FLOAT_KEYS]
    items += [("component", fmap.component), ("value_kind", "db")]
    items += [(f"meta.{key}", fmap.meta[key]) for key in sorted(fmap.meta)]
    return _write_table(MAP_MAGIC, items, fmap.values)


def _write_table(magic, items, values):
    """CSV text: '# magic', a '# key: value' line per (key, text) item,
    then the rows of the 2-D float array `values`, each cell its `repr`."""
    header = "\n".join([f"# {magic}", *(f"# {key}: {val}" for key, val in items)])
    # One orjson call per row, "[a,b]" sliced to "a,b", with `repr`'s
    # digits; the rows it spells differently (_repr_rows) are redone with
    # `repr`.  Each copy is dropped before the next is made, so the writer
    # peaks below 3x the text it returns: 39 MB for the 19 MB of a
    # 1001 x 1001 map (tracemalloc), 2.0x.
    values = np.ascontiguousarray(values)
    rows = [orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] for row in values]
    for r in _repr_rows(values):
        rows[r] = ",".join(map(repr, values[r].tolist())).encode()
    body = b"\n".join(rows)
    del rows
    body = str(body, "ascii")
    return "".join([header, "\n", body, "\n"])


def _repr_rows(values):
    """Indices of the rows orjson would spell differently from `repr`.

    Both write the shortest round-trip digits.  For 0 < |x| < 1e-4 and
    |x| >= 1e16 `repr` writes an exponent ("5e-05", "5e-07", "1e+16"),
    and orjson a positional decimal ("0.00005") or an exponent with no
    "+" or zero padding ("5e-7", "1e16").  orjson writes NaN and +-inf
    as "null".  Elsewhere they agree.  Built from comparisons, so no
    float copy of the map is made.
    """
    odd = (values < 1e-4) & (values > -1e-4) & (values != 0)
    odd |= values >= 1e16
    odd |= values <= -1e16
    odd |= values != values  # NaN
    return np.flatnonzero(odd.any(axis=1)).tolist()


def parse_map_csv(text):
    header, nums, body = _read_table(text, MAP_MAGIC, "field map", ("component", "value_kind"),
                                     _MAP_FLOAT_KEYS)
    try:
        grid = ScanGrid(*nums[:-1])
    except ConfigError as exc:
        # ScanGrid names a config key, "grid.<field>: ..." ("grid.x" for the
        # x extent); a map names the header key, the step for an extent.
        field, _, why = str(exc)[len("grid."):].partition(": ")
        key = "d" + field if field in ("x", "y") else field
        raise ParseError(f"header {key}: {why}") from None
    if header["value_kind"] != "db":
        raise ParseError(f"header value_kind: must be db, got {header['value_kind']!r}")
    meta = {k[len("meta."):]: v for k, v in header.items() if k.startswith("meta.")}

    if len(body) != grid.ny:
        raise ParseError(f"expected {grid.ny} data rows, got {len(body)}")
    return FieldMap(grid=grid, f=nums[-1], component=header["component"],
                    values=_read_body(body, grid.nx), meta=meta)


def _read_table(text, magic, what, keys, floats):
    """(header dict, [float of each `floats` key], body) of a CSV, whose
    header must hold every key of `floats` and `keys`, each `floats` key
    a finite number."""
    header, body = _split_header(text, magic, what)
    missing = [k for k in floats + keys if k not in header]
    if missing:
        raise ParseError(f"missing header keys: {', '.join(missing)}")
    nums = []
    for key in floats:
        try:
            nums.append(float(header[key]))
        except ValueError:
            raise ParseError(f"header {key}: not a number: {header[key]!r}") from None
        if not math.isfinite(nums[-1]):
            raise ParseError(f"header {key}: not a finite number: {header[key]!r}")
    return header, nums, body


def _read_body(body, ncols):
    """The (rows, ncols) read-only array of a non-empty body of finite cells."""
    values = _parse_json(body, ncols)
    if values is None:
        values = _parse_cells(body, ncols)
    values.flags.writeable = False  # kept by the FieldMap or CFTable without a copy
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values))[0]
        lineno, line = body[r]
        raise ParseError(f"non-finite db cell {line.split(',')[c].strip()!r}", line=lineno)
    return values


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


def _split_header(text, magic, what):
    """('#' metadata dict, [(lineno, body line), ...])."""
    header = {}
    body = []
    saw_magic = False
    for lineno, raw in _lines(text):
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
    items = [("kernel", table.kernel), ("d", _rfmt(table.d)), ("h", _rfmt(table.h)),
             ("columns", "f_hz,cf_db")]
    return _write_table(CF_MAGIC, items, np.column_stack([table.f, table.cf_db]))


def parse_cf_csv(text):
    """CFTable from a CF CSV; header keys other than kernel/d/h are ignored."""
    header, (d, h), body = _read_table(text, CF_MAGIC, "calibration table", ("kernel",),
                                       ("d", "h"))
    if not body:  # _read_body needs a row
        raise ParseError("calibration table has no rows")
    values = _read_body(body, 2)
    return CFTable(f=values[:, 0], cf_db=values[:, 1], kernel=header["kernel"], d=d, h=h)


# ---------------------------------------------------------------------------
# Profiles

def write_profile_csv(coords, values, axis, at, f_hz, component):
    """Profile CSV of a cut through a dB map."""
    items = [("axis", axis), ("at", _rfmt(at)), ("f_hz", _rfmt(f_hz)),
             ("component", component), ("value_kind", "db"), ("columns", "coord_m,value")]
    return _write_table(PROFILE_MAGIC, items, np.column_stack([coords, values]))


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
