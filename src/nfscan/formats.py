"""File formats: Touchstone v1, field-map / profile / CF CSV, and P5 PGM.

All text writers emit decimals that survive a parse/write cycle, so
write(parse(write(x))) is byte-identical to write(x).  Map and profile
CSV metadata lines start with '#' and use SI units; body rows run from
y_min upward (row-major: y outer, x inner).  PGM output puts y_max at
the top, as an image viewer would expect.

Every text parser reads its lines from `_lines`: lines end at "\n" (a
CRLF's "\r" is stripped as padding; a bare "\r" does not end a line,
and a file whose lines bare "\r"s end is an error that says so),
and a file holding one of the ASCII separators "\x1c"-"\x1f" is an
error naming that line.  Every CSV (map, CF and profile) is written by
`_table`: a '# magic' line, a '# key: value' line per header item, then
the rows.  Every CSV is read by `_read_table` (header keys and numbers;
a key given twice is an error naming its line) and `_read_body`
(cells), so map and CF tables share one set of rules and error texts.

A map CSV holds one dB map (FieldMap), and every cell is a finite dB
value written as Python `repr` of a double: the shortest decimal that
parses back to the same double.  A CSV body is formatted by orjson
(Ryu-style shortest round-trip digits), one call per row, and the rows
are joined with "\n": a 201 x 201 map takes 2.8 ms (Intel Xeon, one
core).  orjson spells a double as `repr` does except for 0 < |x| < 1e-4
and |x| >= 1e16 ("0.00005", "1e16" for "5e-05", "1e+16"); the rows
holding such a cell are written with `repr`, which is what keeps every
file byte-identical to one `repr` per cell.

Maps are written a stack at a time (`write_map_stack`): the maps of one
observable over a sweep share their grid, component and meta, so the
header items but f_hz and the scan for rows needing `repr` are made once
per stack, and each map is one `_table` call, as bytes.  `write_map_csv`
is its one-map case, decoded to text.

A cell parses if `float()` accepts it and the result is finite;
surrounding whitespace and `1_0` are accepted.  A bad cell raises
ParseError naming its line and its text.

A map CSV is read from its bytes, 64 KiB at a time (`_map_from_blocks`):
each read is cut at its last "\n", the rest carried into the next, and
each block of body lines is read as "[[row],[row],...]" by one
`orjson.loads` call and converted with `np.array(..., dtype=float)`.
The file is never decoded whole nor split into lines.  Every JSON number
is a `float()` spelling that orjson rounds to the same double.  The
block reader raises on no content: where it has any doubt it returns
None, and the text path (`_split_header`, then `_read_body`, `float()`
cell by cell, then the finiteness check) decides, which returns the same
FieldMap or raises the error naming the fault.  Doubt is a header that
is not UTF-8 or that `_map_header` rejects; a body holding `"`, `{`,
`[`, `t`, `f` or `n` (a string, object, `true`, `false` or `null`, which
numpy would cast to a float, or a line that could read as two rows); a
block orjson rejects or not shaped (lines, nx); an exact zero spelled
`-0` (JSON's int 0, losing the sign); a row count other than the
header's; or a non-finite value.  So the cells JSON does not read (`1_0`,
`+1`, `.5`, non-ASCII digits, "\x0c" padding) are read by `float()`, and
every error is the text path's.  Reading and parsing a 201 x 201 map
file takes 18% less time than decoding it whole and parsing the text in
64-row blocks did (7.0 against 8.6 ms, shared 2-core Intel Xeon), and it
peaks at 0.9x the file's size, the blocks' arrays and their join.  CF
tables, 2 x nf cells, are read cell by cell.
"""

from __future__ import annotations

import cmath
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np
import orjson

from .calibration import STANDARD_CONSTANT_DB, CFTable
from .errors import ConfigError, ParseError
from .model import Z_REF, ScanGrid, readonly

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
    """(lineno, line) for each line of `text`; ParseError on a separator,
    or if bare "\r"s end the lines of a text that holds no "\n".

    Lines end at "\n" only: str.splitlines would also break at characters
    float() and str.split() take as padding (\x0c, \x85, \u2028, ...).
    The text is split before the empty element after a final "\n" is
    dropped, so it is never copied whole.
    """
    found = [i for i in map(text.find, _SEPARATORS) if i >= 0]
    if found:
        pos = min(found)
        raise ParseError(f"control character {text[pos]!r}", line=text.count("\n", 0, pos) + 1)
    if "\n" not in text and "\r" in text.rstrip():
        raise ParseError("lines end in a bare carriage return ('\\r'), not '\\n' or '\\r\\n'",
                         line=1)
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return enumerate(lines, start=1)


# ---------------------------------------------------------------------------
# Touchstone v1

@dataclass(frozen=True)
class NetworkData:
    """A probe's transmission sweep: S21 against frequency, referred to
    Z_REF (50 ohm) at both ports."""

    f: np.ndarray        # Hz, strictly increasing
    s21: np.ndarray      # complex, one value per frequency

    def __post_init__(self):
        f = readonly(self.f, float)
        s21 = readonly(self.s21, complex)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "s21", s21)
        if f.ndim != 1 or s21.shape != f.shape:
            raise ConfigError(f"network: S21 shape {s21.shape} does not match {len(f)} "
                              "frequencies")
        if len(f) > 1 and not np.all(np.diff(f) > 0):
            raise ConfigError("network: frequencies must be strictly increasing")
        if not (np.isfinite(f).all() and np.isfinite(s21).all()):
            raise ConfigError("network: frequencies and S-parameters must be finite")


def parse_touchstone(text):
    """The S21 sweep of a 2-port Touchstone v1 document.

    Option line "# <unit> S <fmt> R <z>" with units Hz/kHz/MHz/GHz and
    formats RI, MA (magnitude, angle in degrees) or DB (20*log10
    magnitude, angle in degrees); any token may be omitted (defaults GHz,
    MA, 50); it must come before the first data row.  R must be Z_REF
    (50 ohm), the reference the CF formula assumes.  '!' starts a
    comment.  Each row is a frequency and the pairs S11 S21 S12 S22;
    every pair is decoded and must be finite, and S21 is kept.  Errors
    carry the offending line number.
    """
    unit = 1e9
    fmt = "ma"
    saw_option = False
    freqs = []
    s21 = []
    for lineno, raw in _lines(text):
        line = raw.partition("!")[0].strip()
        if not line:
            continue
        if line.startswith("#"):
            if saw_option:
                raise ParseError("multiple option lines", line=lineno)
            if freqs:
                raise ParseError("option line after a data row", line=lineno)
            saw_option = True
            unit, fmt = _parse_option_line(line, lineno)
            continue
        tokens = line.split()
        try:
            values = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(f"non-numeric token in data row: {line!r}", line=lineno) from None
        if len(values) != 9:
            raise ParseError(f"expected 9 columns, got {len(values)}", line=lineno)
        if fmt == "db" and any(a >= _TS_DB_MAX for a in values[1::2]):
            raise ParseError(f"DB magnitude of {_TS_DB_MAX:.6g} dB or more overflows a double",
                             line=lineno)
        f_hz = values[0] * unit
        row = [_decode_pair(values[i], values[i + 1], fmt) for i in range(1, 9, 2)]
        if not (math.isfinite(f_hz) and all(map(cmath.isfinite, row))):
            raise ParseError(f"non-finite frequency or S-parameter in data row: {line!r}",
                             line=lineno)
        if freqs and not f_hz > freqs[-1]:
            raise ParseError(f"frequency {f_hz} Hz not strictly increasing", line=lineno)
        freqs.append(f_hz)
        s21.append(row[1])
    if not freqs:
        raise ParseError("no data rows")
    return NetworkData(f=np.array(freqs), s21=np.array(s21))


def _parse_option_line(line, lineno):
    unit = 1e9
    fmt = "ma"
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
                r = float(tokens[i + 1])
            except ValueError:
                raise ParseError(f"bad resistance value {tokens[i + 1]!r}", line=lineno) from None
            if r != Z_REF:
                raise ParseError(f"reference impedance is R {r!r} ohm; the CF formula's "
                                 f"{STANDARD_CONSTANT_DB:g} dB constant assumes R {Z_REF:g}",
                                 line=lineno)
            i += 1
        else:
            raise ParseError(f"unknown option token {tokens[i]!r}", line=lineno)
        i += 1
    return unit, fmt


def _decode_pair(a, b, fmt):
    if fmt == "ri":
        return complex(a, b)
    mag = a if fmt == "ma" else 10.0 ** (a / 20.0)
    return mag * cmath.exp(1j * math.radians(b))


def write_touchstone(net: NetworkData):
    """A sweep as 2-port Touchstone v1 text in GHz and RI, with S11 =
    S22 = 0 and S12 = S21; a ConfigError names two frequencies written alike."""
    lines = ["! ports: 2", f"# GHz S RI R {_gfmt(Z_REF)}"]
    for k, (f_hz, s21) in enumerate(zip(net.f, net.s21)):
        ghz = _gfmt(f_hz / 1e9)
        if k and ghz == _gfmt(net.f[k - 1] / 1e9):
            raise ConfigError(f"touchstone: frequencies {float(net.f[k - 1])!r} and "
                              f"{float(f_hz)!r} Hz are both written as {ghz} GHz (9 digits)")
        pair = f"{_gfmt(s21.real)} {_gfmt(s21.imag)}"
        lines.append(f"{ghz} 0 0 {pair} {pair} 0 0")
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
        for key, val in self.meta.items():
            fault = _meta_fault(key, val)
            if fault:
                raise ConfigError(f"map meta key {key!r}: {fault}")


def _meta_fault(key, val):
    """Why the header line '# meta.<key>: <val>' would not parse back to
    (key, val), or ''."""
    if not (isinstance(key, str) and isinstance(val, str)):
        return "key and value must be text"
    if ":" in key:
        return "a key holding ':' is read back only up to it"
    for what, text in (("key", key), ("value", val)):
        if any(c in text for c in "\n" + _SEPARATORS):
            return f"the {what} holds a line end or an ASCII separator ('\\x1c'-'\\x1f')"
        if text != text.strip():
            return f"the {what} starts or ends with white space, which is read back stripped"
    return ""


#: The map header's numbers: the ScanGrid fields by name, then f_hz.
_MAP_FLOAT_KEYS = ("x_min", "x_max", "y_min", "y_max", "dx", "dy", "z_height", "f_hz")


def write_map_csv(fmap: FieldMap):
    """The map CSV text of one FieldMap: `write_map_stack` with one map."""
    (data,) = write_map_stack(fmap.grid, [fmap.f], fmap.component, fmap.values[None],
                              fmap.meta)
    return data.decode("utf-8", "surrogatepass")


def write_map_stack(grid, freqs, component, values, meta):
    """Yield the UTF-8 bytes of the map CSV of each frequency of a stack.

    `values` is an (nf, ny, nx) array of finite dB values, map k at
    `freqs[k]`, every map over `grid` with the same `component` and
    `meta`, all as a FieldMap would hold them: the caller has checked
    them (a FieldMap, or `cli.cmd_simulate` once per stack).  The header
    items but f_hz and the scan for rows spelled with `repr` (`_repr_rows`)
    are made once per stack; each map is then one `_table` call.
    """
    nums = vars(grid)
    head = [(key, _rfmt(nums[key])) for key in _MAP_FLOAT_KEYS[:-1]]
    tail = [("component", component), ("value_kind", "db"),
            *((f"meta.{key}", meta[key]) for key in sorted(meta))]
    values = np.ascontiguousarray(values)
    ny = values.shape[1]
    odd = {}
    for r in _repr_rows(values.reshape(-1, values.shape[2])):
        odd.setdefault(r // ny, []).append(r % ny)
    for k, f_hz in enumerate(freqs):
        yield _table(MAP_MAGIC, [*head, ("f_hz", _rfmt(f_hz)), *tail], values[k],
                     odd.get(k, ()))


def _table(magic, items, values, odd=None):
    """The UTF-8 bytes of a CSV: '# magic', a '# key: value' line per
    (key, text) item (encoded with "surrogatepass", so any text comes back
    as given), then the rows of the C-contiguous 2-D float array `values`,
    each cell its `repr`: the rows listed in `odd` (default `_repr_rows`)
    with `repr`, the others by one orjson call each, "[a,b]" sliced to
    "a,b".  A map peaks near 2x the bytes returned: 39 MB for the 19 MB of
    a 1001 x 1001 map (tracemalloc), the rows and their join.
    """
    head = "\n".join([f"# {magic}", *(f"# {key}: {val}" for key, val in items)])
    rows = [orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] for row in values]
    for r in _repr_rows(values) if odd is None else odd:
        rows[r] = ",".join(map(repr, values[r].tolist())).encode()
    rows.insert(0, head.encode("utf-8", "surrogatepass"))
    rows.append(b"")
    return b"\n".join(rows)


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


def parse_map_csv(source):
    """The FieldMap of a map CSV, given as its text or as a binary file
    open at its start.

    The file's bytes are read a block at a time (`_map_from_blocks`).
    Where that reader has any doubt, the whole text decides: a file's
    bytes are read again from its start and decoded as UTF-8 (a
    UnicodeDecodeError if they are not), split into lines
    (`_split_header`) and read cell by cell (`_read_body`), which return
    the same FieldMap or raise the ParseError naming the fault.
    """
    if isinstance(source, str):
        text, fh = source, io.BytesIO(source.encode("utf-8", "surrogatepass"))
    else:
        text, fh = None, source
    found = _map_from_blocks(fh)
    if found is None:
        if text is None:
            fh.seek(0)
            text = fh.read().decode("utf-8")
        grid, header, f_hz, body = _map_header(text)
        if len(body) != grid.ny:
            raise ParseError(f"expected {grid.ny} data rows, got {len(body)}")
        found = grid, header, f_hz, _read_body(body, grid.nx)
    grid, header, f_hz, values = found
    meta = {k[len("meta."):]: v for k, v in header.items() if k.startswith("meta.")}
    return FieldMap(grid=grid, f=f_hz, component=header["component"], values=values, meta=meta)


def _map_header(text):
    """(ScanGrid, header dict, f_hz, body) of a map CSV's text."""
    header, nums, body = _read_table(text, MAP_MAGIC, "field map", ("component", "value_kind"),
                                     _MAP_FLOAT_KEYS)
    try:
        grid = ScanGrid(*nums[:-1])
    except ConfigError as exc:
        # ScanGrid names a config key, "grid.<field>", which a map header
        # spells "<field>".
        raise ParseError(f"header {str(exc)[len('grid.'):]}") from None
    if header["value_kind"] != "db":
        raise ParseError(f"header value_kind: must be db, got {header['value_kind']!r}")
    return grid, header, nums[-1], body


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
    """The (rows, ncols) read-only array of a non-empty body of finite
    cells, each parsed by `float()`; a ParseError names the first bad cell."""
    # Count every row's cells before allocating, so the map a header asks
    # for is never larger than what the file holds.
    for r, (lineno, line) in enumerate(body):
        n = line.count(",") + 1
        if n != ncols:
            raise ParseError(f"row {r}: expected {ncols} columns, got {n}", line=lineno)
    values = np.empty((len(body), ncols))
    for r, (lineno, line) in enumerate(body):
        values[r] = [_parse_cell(cell, lineno) for cell in line.split(",")]
    values.flags.writeable = False  # kept by the FieldMap or CFTable without a copy
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values))[0]
        lineno, line = body[r]
        raise ParseError(f"non-finite db cell {line.split(',')[c].strip()!r}", line=lineno)
    return values


def _parse_cell(cell, lineno):
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"bad db cell {cell.strip()!r}", line=lineno) from None


#: Bytes per read of a map file: a block's Python floats stay small, and
#: so do its bytes, which then come from the heap and not fresh pages.
_BLOCK_BYTES = 1 << 16

#: A `-0` cell, which JSON reads as the int 0, losing the sign.
_NEG_ZERO = re.compile(rb"-0(?![0-9.eE])")

#: Bytes a map body of numbers never holds: JSON reads a string, object,
#: `true`, `false` or `null` where float() reads none, and "[" could make
#: one line more than one row.
_NOT_NUMBERS = (b'"', b"{", b"[", b"t", b"f", b"n")


def _line_blocks(fh):
    """The bytes of the binary file `fh` in blocks of whole lines: each
    read of `_BLOCK_BYTES` is cut after its last "\n", the block leaves
    that "\n" off, and the rest is carried into the next block."""
    parts = []
    while data := fh.read(_BLOCK_BYTES):
        end = data.rfind(b"\n")
        if end < 0:
            parts.append(data)
            continue
        parts.append(data[:end])
        yield b"".join(parts)
        parts = [data[end + 1:]]
    tail = b"".join(parts)
    if tail:
        yield tail


def _map_from_blocks(fh):
    """(ScanGrid, header dict, f_hz, values) of the map CSV in the binary
    file `fh`, read a block at a time, or None where the text path must
    decide; it raises on no content (see the module docstring).

    The header runs to the first line whose ASCII-stripped bytes are not
    empty and do not start with "#"; it must decode as UTF-8 and pass
    `_map_header`.  Each body block is read as "[[row],[row],...]" by one
    `orjson.loads` call.  Nothing is allocated from the header's grid
    size: each block is as large as its bytes.
    """
    head = b""
    grid = None
    blocks = []
    rows = 0
    for block in _line_blocks(fh):
        if grid is None:
            start = 0
            for line in block.split(b"\n"):
                stripped = line.strip()
                if stripped and not stripped.startswith(b"#"):
                    break
                start += len(line) + 1
            else:
                head += block + b"\n"
                continue
            try:
                grid, header, f_hz, _ = _map_header((head + block[:start]).decode("utf-8"))
            except ValueError:  # a ParseError, or a header that is not UTF-8
                return None
            block = block[start:]
        if any(c in block for c in _NOT_NUMBERS):
            return None
        try:
            values = np.array(orjson.loads(b"[[" + block.replace(b"\n", b"],[") + b"]]"),
                              dtype=float)
        except ValueError:  # orjson.JSONDecodeError, or ragged rows
            return None
        n = block.count(b"\n") + 1
        rows += n
        # `b"-0" in block` would match every negative cell; only a block
        # with an exact zero can hold a `-0`.
        if (values.shape != (n, grid.nx) or rows > grid.ny
                or not values.all() and _NEG_ZERO.search(block)):
            return None
        blocks.append(values)
    if grid is None or rows != grid.ny:
        return None
    values = np.concatenate(blocks)
    if not np.isfinite(values).all():
        return None
    values.flags.writeable = False  # kept by the FieldMap without a copy
    return grid, header, f_hz, values


def _split_header(text, magic, what):
    """('#' metadata dict, [(lineno, body line), ...]); a key given twice
    is a ParseError naming its second line."""
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
            key = key.strip()
            if key in header:
                raise ParseError(f"header key {key!r} given twice", line=lineno)
            header[key] = val.strip()
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
    data = _table(CF_MAGIC, items, np.column_stack([table.f, table.cf_db]))
    return data.decode("utf-8", "surrogatepass")


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
    data = _table(PROFILE_MAGIC, items, np.column_stack([coords, values]))
    return data.decode("utf-8", "surrogatepass")


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
    # v - lo overflows for v and lo far apart, the quotient for a range
    # far narrower than v - lo; the clip sends +-inf to 0 and 255.
    with np.errstate(over="ignore"):
        t = (fmap.values - lo) / (hi - lo)
    pix = np.floor(255.0 * np.clip(t, 0.0, 1.0) + 0.5).astype(np.uint8)
    pix = pix[::-1]  # image top = largest y
    header = f"P5\n{fmap.grid.nx} {fmap.grid.ny}\n255\n".encode("ascii")
    return header + pix.tobytes()
