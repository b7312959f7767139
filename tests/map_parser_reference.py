"""Reference map CSV body parser: `float()` on each row's cells, row by row.

This is the parser `nfscan.formats.parse_map_csv` replaced, first with
numpy's C text reader and now with orjson.  Tests require the two to
return the same bits, or to raise the same ParseError text.  The header
is split by `nfscan.formats._split_header`, as the parser splits it, so
both raise its errors, a header key given twice among them.
"""

import numpy as np

from nfscan.errors import ConfigError, ParseError
from nfscan.formats import _MAP_FLOAT_KEYS, MAP_MAGIC, FieldMap, _split_header
from nfscan.model import ScanGrid


def parse_map_csv_per_row(text):
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
    try:
        grid = ScanGrid(x_min=nums["x_min"], x_max=nums["x_max"], y_min=nums["y_min"],
                        y_max=nums["y_max"], dx=nums["dx"], dy=nums["dy"],
                        z_height=nums["z_height"])
    except ConfigError as exc:
        # ScanGrid names its config key ("grid.x" for an extent that is not a
        # multiple of dx); a map file names the header key.
        name, _, why = str(exc).partition(": ")
        key = {"grid.x": "dx", "grid.y": "dy"}.get(name, name[len("grid."):])
        raise ParseError(f"header {key}: {why}") from None
    if header["value_kind"] != "db":
        raise ParseError(f"header value_kind: must be db, got {header['value_kind']!r}")
    meta = {k[len("meta."):]: v for k, v in header.items() if k.startswith("meta.")}

    if len(body) != grid.ny:
        raise ParseError(f"expected {grid.ny} data rows, got {len(body)}")
    # Count every row's cells before allocating, so the map a header asks
    # for is never larger than what the file holds.
    for r, (lineno, line) in enumerate(body):
        n = line.count(",") + 1
        if n != grid.nx:
            raise ParseError(f"row {r}: expected {grid.nx} columns, got {n}", line=lineno)
    values = np.empty((grid.ny, grid.nx))
    for r, (lineno, line) in enumerate(body):
        try:
            values[r] = list(map(float, line.split(",")))
        except ValueError:
            # Redo the row cell by cell to name the first bad one.
            values[r] = [_parse_cell(cell, lineno) for cell in line.split(",")]
    if not np.isfinite(values).all():
        r, c = np.argwhere(~np.isfinite(values))[0]
        lineno, line = body[r]
        raise ParseError(f"non-finite db cell {line.split(',')[c].strip()!r}", line=lineno)
    return FieldMap(grid=grid, f=nums["f_hz"], component=header["component"],
                    values=values, meta=meta)


def _parse_cell(cell, lineno):
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"bad db cell {cell.strip()!r}", line=lineno) from None
