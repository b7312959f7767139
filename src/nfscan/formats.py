"""File formats: Touchstone v1, field-map / profile / CF CSV, and P5 PGM.

All text writers emit decimals that survive a parse/write cycle, so
write(parse(write(x))) is byte-identical to write(x).  Map and profile
CSV metadata lines start with '#' and use SI units; body rows run from
y_min upward (row-major: y outer, x inner).  PGM output puts y_max at
the top, as an image viewer would expect.

Lines end at "\n" only (`_lines`: a CRLF's "\r" is padding, and a file
whose lines bare "\r"s end is an error that says so), and a line holding
one of the ASCII separators "\x1c"-"\x1f" is an error naming it.  Every
CSV is written by `_table`: a '# magic' line, a '# key: value' line per
header item, then the rows.  Map and CF CSVs are read by `_read_csv`,
so they share one cell grammar and one set of error texts.

A map CSV holds one dB map (FieldMap), every cell a finite dB value
written as Python `repr` of a double, the shortest decimal that parses
back to it.  A body is formatted by orjson (shortest round-trip digits),
one call per row: a 201 x 201 map takes 2.8 ms (Intel Xeon, one core).
orjson spells a double as `repr` does except for 0 < |x| < 1e-4 and
|x| >= 1e16 ("0.00005", "1e16" for "5e-05", "1e+16"); the rows holding
such a cell are written with `repr`.  Maps are written a stack at a time
(`write_map_stack`): the header items but f_hz and that row scan are
made once per stack of maps sharing grid, component and meta.

A body cell is an RFC 8259 JSON number, which may be padded by spaces,
tabs and "\r"s; `-0` keeps its sign.  Any other spelling (`1_0`, `+1`,
`.5`, `1.`, `01`, `nan`, non-ASCII digits or padding) is a bad cell,
and a number beyond a double a non-finite one: a ParseError naming the
line and the cell.  A body is read 64 KiB of the file's bytes at a time,
each block of whole lines by one `orjson.loads` call, which reads
exactly that grammar and rounds as `float()` does (`_read_csv`); a block
it refuses is walked line by line for the first fault in file order
(`_locate`).  Reading and parsing a 201 x 201 map file from an open
file takes 3.1 ms (least of 7 x 50 reads, shared 2-core Intel Xeon) and
peaks at 0.9x the file's size.
"""

from __future__ import annotations

import cmath
import io
import itertools
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


def parse_touchstone(source):
    """The S21 sweep of a 2-port Touchstone v1 document, given as its text
    or as a binary file open at its start, whose bytes are UTF-8 text.

    Option line "# <unit> S <fmt> R <z>" with units Hz/kHz/MHz/GHz and
    formats RI, MA (magnitude, angle in degrees) or DB (20*log10
    magnitude, angle in degrees); any token may be omitted (defaults GHz,
    MA, 50); it must come before the first data row.  R must be Z_REF
    (50 ohm), the reference the CF formula assumes.  '!' starts a
    comment.  Each row is a frequency and the pairs S11 S21 S12 S22;
    every pair is decoded and must be finite, and S21 is kept.  Errors
    carry the offending line number.
    """
    text = source if isinstance(source, str) else source.read().decode("utf-8")
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
    open at its start, read a block at a time (`_read_csv`)."""
    (grid, header, f_hz), values = _read_csv(source, _map_header)
    meta = {k[len("meta."):]: v for k, v in header.items() if k.startswith("meta.")}
    return FieldMap(grid=grid, f=f_hz, component=header["component"], values=values, meta=meta)


def _map_header(text):
    """((ScanGrid, header dict, f_hz), rows, columns) of a map CSV's
    header `text` (`_read_table`)."""
    header, nums = _read_table(text, MAP_MAGIC, "field map", ("component", "value_kind"),
                               _MAP_FLOAT_KEYS)
    try:
        grid = ScanGrid(*nums[:-1])
    except ConfigError as exc:
        # ScanGrid names a config key, "grid.<field>", which a map header
        # spells "<field>".
        raise ParseError(f"header {str(exc)[len('grid.'):]}") from None
    if header["value_kind"] != "db":
        raise ParseError(f"header value_kind: must be db, got {header['value_kind']!r}")
    return (grid, header, nums[-1]), grid.ny, grid.nx


def _read_table(text, magic, what, keys, floats):
    """(header dict, [float of each `floats` key]) of a CSV's header
    `text` (`_split_header`), which must hold every key of `floats` and
    `keys`, each `floats` key a finite number."""
    header = _split_header(text, magic, what)
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
    return header, nums


def _split_header(text, magic, what):
    """The '#' metadata dict of the lines of `text` up to its first body
    line, the first that is neither blank nor starts with '#' once its
    ASCII white space (`_SPACE`) is stripped.  A key given twice is a
    ParseError naming its second line."""
    header = {}
    saw_magic = False
    for lineno, raw in _lines(text):
        line = raw.strip(_SPACE)
        if not line:
            continue
        if not saw_magic:
            if not line.startswith("#") or line[1:].strip() != magic:
                raise ParseError(f"not a {what} file (expected '# {magic}')", line=lineno)
            saw_magic = True
            continue
        if not line.startswith("#"):
            break
        key, sep, val = line[1:].strip().partition(":")
        if not sep:
            raise ParseError(f"malformed header line {raw.strip()!r}", line=lineno)
        key = key.strip()
        if key in header:
            raise ParseError(f"header key {key!r} given twice", line=lineno)
        header[key] = val.strip()
    if not saw_magic:
        raise ParseError(f"not a {what} file (empty input)")
    return header


#: Bytes per read of a CSV file: a block's Python floats stay small, and
#: so do its bytes, which then come from the heap and not fresh pages.
_BLOCK_BYTES = 1 << 16

#: A `-0` cell, which JSON reads as the int 0, losing the sign; the
#: "-0" of an exponent ("1e-0") is not one.
_NEG_ZERO = re.compile(rb"(?<![eE])-0(?![0-9.eE])")

#: Bytes a body of numbers never holds: JSON reads a string, object,
#: `true`, `false` or `null` where the cell grammar reads none, and "["
#: could make one line more than one row.
_NOT_NUMBERS = (b'"', b"{", b"[", b"t", b"f", b"n")

#: The padding a body cell may have around its number.
_PAD = " \t\r"

#: ASCII white space, what bytes.strip() strips: a line holding only
#: these is blank.
_SPACE = " \t\n\r\x0b\x0c"

#: A body line: the first line of a CSV that, its ASCII white space
#: stripped, is neither empty nor starts with "#" begins the body.
_BODY_LINE = re.compile(rb"^[ \t\r\x0b\x0c]*[^# \t\n\r\x0b\x0c]", re.MULTILINE)

#: A body cell: an RFC 8259 number, padded by `_PAD`.
_CELL = re.compile(r"[ \t\r]*-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?[ \t\r]*")


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


def _load(block):
    """The float array of the body lines `block`, read as
    "[[row],[row],...]" by one `orjson.loads` call, or None if orjson or
    numpy (ragged rows) rejects it."""
    try:
        return np.array(orjson.loads(b"".join((b"[[", block.replace(b"\n", b"],["), b"]]"))),
                        dtype=float)
    except ValueError:  # orjson.JSONDecodeError is one
        return None


def _read_csv(source, layout):
    """(layout's result, values) of the map or CF CSV `source`, its text
    or a binary file open at its start.

    The header runs to the first body line (`_BODY_LINE`); it and that
    line are decoded as UTF-8 (a text's lone surrogates come back as
    given) and read by `layout(text)`, which returns its result, the row
    count (None: as many as the body holds) and the column count.  Each
    block of body lines (`_line_blocks`) is read by `_load`; one with an
    exact zero is searched for `-0` cells, which JSON reads as the int 0,
    and read again with them spelled `-0.0`.  A block is refused if
    orjson rejects it, if it holds `_NOT_NUMBERS`, if its rows are not
    all the column count long (with no "[", it has one row per line) or
    if it brings a row past the count; `_locate` then raises the fault.
    Nothing is allocated from the header's counts, and the read-only
    values are the blocks' join.
    """
    errors = "strict"
    if isinstance(source, str):
        source, errors = io.BytesIO(source.encode("utf-8", "surrogatepass")), "surrogatepass"
    blocks = _line_blocks(source)
    head, body = [], []
    for block in blocks:
        found = _BODY_LINE.search(block)
        if not found:
            head.append(block)
            continue
        start = found.start()
        stop = block.find(b"\n", start)
        head.append(block if stop < 0 else block[:stop])
        body.append(block[start:])
        break
    lineno = sum(part.count(b"\n") for part in head) + len(head)
    result, nrows, ncols = layout(b"\n".join(head).decode("utf-8", errors))
    parts, rows = [], 0
    for block in itertools.chain(body, blocks):
        values = None if any(c in block for c in _NOT_NUMBERS) else _load(block)
        if (values is None or values.shape[1:] != (ncols,)
                or nrows is not None and rows + len(values) > nrows):
            extra = _locate(block, lineno, rows, nrows, ncols, errors)
            extra += sum(rest.count(b"\n") + 1 for rest in blocks)
            raise ParseError(f"expected {nrows} data rows, got {nrows + extra}")
        # `b"-0" in block` would match every negative cell; only a block
        # with an exact zero can hold a `-0`.
        if not values.all() and _NEG_ZERO.search(block):
            values = _load(_NEG_ZERO.sub(b"-0.0", block))
        parts.append(values)
        rows += len(values)
        lineno += len(values)
    if nrows is not None and rows != nrows:
        raise ParseError(f"expected {nrows} data rows, got {rows}")
    values = np.concatenate(parts) if parts else np.empty((0, ncols))
    values.flags.writeable = False  # kept by the FieldMap or CFTable without a copy
    return result, values


def _locate(block, lineno, row, nrows, ncols, errors):
    """Raise the first fault of the body lines `block`, which `_read_csv`
    refused, the first of them line `lineno` and row `row`.  Each line is
    decoded, then checked for a separator, for being blank, for '#', for
    being a row past `nrows` (then the count of lines from it to the
    block's end is returned, unread), for its column count and cell by
    cell (`_CELL`, then `float()`).  A block with no fault is a bug, a
    ParseError naming its first line."""
    lines = block.split(b"\n")
    for i, raw in enumerate(lines):
        line = raw.decode("utf-8", errors)
        where = lineno + i
        found = [j for j in map(line.find, _SEPARATORS) if j >= 0]
        if found:
            raise ParseError(f"control character {line[min(found)]!r}", line=where)
        stripped = raw.strip()
        if not stripped:
            raise ParseError("blank line inside data body", line=where)
        if stripped.startswith(b"#"):
            raise ParseError("'#' header line after data body", line=where)
        if row + i == nrows:
            return len(lines) - i
        cells = line.split(",")
        if len(cells) != ncols:
            raise ParseError(f"row {row + i}: expected {ncols} columns, got {len(cells)}",
                             line=where)
        for cell in cells:
            if not _CELL.fullmatch(cell):
                raise ParseError(f"bad db cell {cell.strip(_PAD)!r}", line=where)
            if not math.isfinite(float(cell)):
                raise ParseError(f"non-finite db cell {cell.strip(_PAD)!r}", line=where)
    raise ParseError("body block refused with no fault found in it (a reader bug)",
                     line=lineno)


# ---------------------------------------------------------------------------
# Antenna-factor tables

def write_cf_csv(table):
    items = [("kernel", table.kernel), ("d", _rfmt(table.d)), ("h", _rfmt(table.h)),
             ("columns", "f_hz,cf_db")]
    data = _table(CF_MAGIC, items, np.column_stack([table.f, table.cf_db]))
    return data.decode("utf-8", "surrogatepass")


def parse_cf_csv(source):
    """CFTable from a CF CSV, given as its text or as a binary file open at
    its start, read as a map CSV is (`_read_csv`); header keys other than
    kernel/d/h are ignored."""
    (header, (d, h)), values = _read_csv(source, _cf_header)
    if not len(values):
        raise ParseError("calibration table has no rows")
    return CFTable(f=values[:, 0], cf_db=values[:, 1], kernel=header["kernel"], d=d, h=h)


def _cf_header(text):
    """((header dict, [d, h]), rows, columns) of a CF CSV's header `text`:
    as many rows as the body holds, of 2 columns."""
    return _read_table(text, CF_MAGIC, "calibration table", ("kernel",), ("d", "h")), None, 2


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
    # far narrower than v - lo; the clip sends +-inf to 0 and 255.  Every
    # step writes into the one float buffer `t`.
    with np.errstate(over="ignore"):
        t = np.subtract(fmap.values, lo)
        np.divide(t, hi - lo, out=t)
        np.clip(t, 0.0, 1.0, out=t)
        np.multiply(255.0, t, out=t)
        np.add(t, 0.5, out=t)
        np.floor(t, out=t)
    pix = t.astype(np.uint8)[::-1]  # image top = largest y
    header = f"P5\n{fmap.grid.nx} {fmap.grid.ny}\n255\n".encode("ascii")
    return header + pix.tobytes()
