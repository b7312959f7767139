"""Reference map CSV writer: one `repr` call per cell, one cell at a time.

This is the writer `nfscan.formats.write_map_csv` replaced, first with
a row-at-a-time `repr` and then with one orjson call per map.  Tests
require the two to produce the same bytes.
"""

from nfscan.formats import MAP_MAGIC


def _rfmt(x):
    return repr(float(x))


def write_map_csv_per_cell(fmap):
    grid = fmap.grid
    lines = [f"# {MAP_MAGIC}"]
    for key, val in (("x_min", grid.x_min), ("x_max", grid.x_max),
                     ("y_min", grid.y_min), ("y_max", grid.y_max),
                     ("dx", grid.dx), ("dy", grid.dy),
                     ("z_height", grid.z_height), ("f_hz", fmap.f)):
        lines.append(f"# {key}: {_rfmt(val)}")
    lines.append(f"# component: {fmap.component}")
    lines.append(f"# value_kind: {fmap.value_kind}")
    for key in sorted(fmap.meta):
        lines.append(f"# meta.{key}: {fmap.meta[key]}")
    for row in fmap.values:
        lines.append(",".join(_rfmt(v) for v in row))
    return "\n".join(lines) + "\n"
