"""Reference CSV writers: one `repr` call per cell, one cell at a time.

`write_map_csv_per_cell` is the writer `nfscan.formats.write_map_csv`
replaced, first with a row-at-a-time `repr` and then with orjson; the CF
and profile writers are the per-row loops that `nfscan.formats._table`,
the one CSV writer, replaced.  Tests require each pair to produce the
same bytes.
"""

from nfscan.formats import CF_MAGIC, MAP_MAGIC, PROFILE_MAGIC


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
    lines.append("# value_kind: db")
    for key in sorted(fmap.meta):
        lines.append(f"# meta.{key}: {fmap.meta[key]}")
    for row in fmap.values:
        lines.append(",".join(_rfmt(v) for v in row))
    return "\n".join(lines) + "\n"


def write_cf_csv_per_row(table):
    lines = [f"# {CF_MAGIC}",
             f"# kernel: {table.kernel}",
             f"# d: {_rfmt(table.d)}",
             f"# h: {_rfmt(table.h)}",
             "# columns: f_hz,cf_db"]
    for f_hz, cf in zip(table.f, table.cf_db):
        lines.append(f"{_rfmt(f_hz)},{_rfmt(cf)}")
    return "\n".join(lines) + "\n"


def write_profile_csv_per_row(coords, values, axis, at, f_hz, component):
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
