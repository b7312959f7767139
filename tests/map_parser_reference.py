"""Reference map CSV parser: a walk over every line of the file, each body
cell matched against the RFC 8259 number grammar by `re.fullmatch`, then
read by `float()`.

`nfscan.formats.parse_map_csv` reads a map's body in blocks with orjson
and walks only a block it refuses.  Tests require the two to return the
same bits, or to raise the same error for the first fault in file order.
The header is read by `nfscan.formats._split_header`, as the parser reads
it, so both raise its errors, a header key given twice among them.
"""

import math
import re

import numpy as np

from nfscan.errors import ConfigError, ParseError
from nfscan.formats import _MAP_FLOAT_KEYS, MAP_MAGIC, FieldMap, _split_header
from nfscan.model import ScanGrid

#: A body cell: an RFC 8259 number, padded by spaces, tabs and "\r"s.
_NUMBER = re.compile(r"[ \t\r]*-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?[ \t\r]*")
#: The padding `_NUMBER` takes around a cell's number.
_PAD = " \t\r"
#: What bytes.strip() strips: the white space that makes a line blank.
_ASCII_SPACE = " \t\n\r\x0b\x0c"


def parse_map_csv_per_row(source):
    """The FieldMap of a map CSV given as its text or its bytes."""
    errors = "strict"
    if isinstance(source, str):
        source, errors = source.encode("utf-8", "surrogatepass"), "surrogatepass"
    lines = source.split(b"\n")
    if not lines[-1]:
        lines.pop()
    # The header is every line before the first that is neither blank nor '#'.
    k = 0
    while k < len(lines) and (not lines[k].strip() or lines[k].strip().startswith(b"#")):
        k += 1
    # It is read with its first body line, which ends it.
    header = _split_header(b"\n".join(lines[:k + 1]).decode("utf-8", errors), MAP_MAGIC,
                           "field map")
    missing = [key for key in _MAP_FLOAT_KEYS + ("component", "value_kind") if key not in header]
    if missing:
        raise ParseError(f"missing header keys: {', '.join(missing)}")
    nums = {}
    for key in _MAP_FLOAT_KEYS:
        try:
            nums[key] = float(header[key])
        except ValueError:
            raise ParseError(f"header {key}: not a number: {header[key]!r}") from None
        if not math.isfinite(nums[key]):
            raise ParseError(f"header {key}: not a finite number: {header[key]!r}")
    try:
        grid = ScanGrid(x_min=nums["x_min"], x_max=nums["x_max"], y_min=nums["y_min"],
                        y_max=nums["y_max"], dx=nums["dx"], dy=nums["dy"],
                        z_height=nums["z_height"])
    except ConfigError as exc:
        # ScanGrid names its config key, "grid.<field>"; a map file names
        # the header key, "<field>".
        name, _, why = str(exc).partition(": ")
        raise ParseError(f"header {name[len('grid.'):]}: {why}") from None
    if header["value_kind"] != "db":
        raise ParseError(f"header value_kind: must be db, got {header['value_kind']!r}")
    meta = {k[len("meta."):]: v for k, v in header.items() if k.startswith("meta.")}

    rows = []
    for lineno, raw in enumerate(lines[k:], start=k + 1):
        line = raw.decode("utf-8", errors)
        for char in line:
            if char in "\x1c\x1d\x1e\x1f":
                raise ParseError(f"control character {char!r}", line=lineno)
        if not line.strip(_ASCII_SPACE):
            raise ParseError("blank line inside data body", line=lineno)
        if line.strip(_ASCII_SPACE).startswith("#"):
            raise ParseError("'#' header line after data body", line=lineno)
        if len(rows) == grid.ny:
            raise ParseError(f"expected {grid.ny} data rows, got {len(lines) - k}")
        cells = line.split(",")
        if len(cells) != grid.nx:
            raise ParseError(f"row {len(rows)}: expected {grid.nx} columns, got {len(cells)}",
                             line=lineno)
        row = []
        for cell in cells:
            if not _NUMBER.fullmatch(cell):
                raise ParseError(f"bad db cell {cell.strip(_PAD)!r}", line=lineno)
            row.append(float(cell))
            if not math.isfinite(row[-1]):
                raise ParseError(f"non-finite db cell {cell.strip(_PAD)!r}", line=lineno)
        rows.append(row)
    if len(rows) != grid.ny:
        raise ParseError(f"expected {grid.ny} data rows, got {len(rows)}")
    return FieldMap(grid=grid, f=nums["f_hz"], component=header["component"],
                    values=np.array(rows, dtype=float), meta=meta)
