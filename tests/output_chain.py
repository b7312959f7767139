"""The output-bytes chain: every nfscan command whose output bytes are
compared between two source trees.

    python tests/output_chain.py SRC OUT

runs each command as `python -m nfscan.cli` in a child process, with
PYTHONPATH=SRC and PYTHONWARNINGS=error (a numpy warning fails the run,
as it fails tier-1), and writes every output under OUT: maps, .s2p, CF
tables, profiles, PGMs and the stdout of `stats`.  The configs are read
from this script's own checkout and the inputs it makes go in a temporary
directory, so two runs on two trees, on one host (numpy's rounding may
differ between hosts), compare with `diff -r`:

    git worktree add --detach ../base BASE
    python tests/output_chain.py ../base/src ../out-base
    python tests/output_chain.py src ../out-head
    diff -r ../out-base ../out-head

The run exits 1 naming the first command that exits nonzero, if nfscan is
imported from elsewhere than SRC, or if a `.*.tmp` file is left under OUT.
"""

import json
import os
import shlex
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TABLE2 = CONFIGS / "table2.json"
TABLE3 = CONFIGS / "table3.json"

#: A hand-spelled map that every reader accepts: cells padded with spaces
#: and tabs, -0, 1E+5 and 5e-05, lines ending in CRLF.
HAND_MAP = "".join(line + "\r\n" for line in [
    "# nfscan-map 1", "# x_min: 0", "# x_max: 0.002", "# y_min: 0",
    "# y_max: 0.001", "# dx: 0.001", "# dy: 0.001", "# z_height: 0.001",
    "# f_hz: 2e9", "# component: hy", "# value_kind: db",
    " -0 ,1E+5,\t5e-05", "-20.5\t, -0.0 ,\t-3 "])

#: Hand-spelled probe sweeps in the two Touchstone formats nfscan does not
#: write: MA in MHz under a '!' comment line, and DB in kHz with R 50.
HAND_MA = """\
! a probe sweep spelled by hand: MA, angles in degrees
# MHz S MA R 50
100 0.01 0 0.0123 87.5 0.0123 87.5 0.01 0
500 0.02 -3.5 0.0614 81.25 0.0614 81.25 0.02 -3.5  ! a trailing comment
2000 0.05 -12 0.25 -120.0 0.25 -120.0 0.05 -12
"""
HAND_DB = """\
# kHz S DB R 50
100000 -60 0 -38.2 88.1 -38.2 88.1 -60 0
1e6 -55.5 -7.25 -24.5 79.3 -24.5 79.3 -55.5 -7.25
3000000 -48 -30 -14.75 -170 -14.75 -170 -48 -30
"""

#: A one-row CF table and a vport map whose `extract` through it writes
#: a map every row of which `formats._repr_rows` spells with `repr`
#: (4.999999999999449e-05, -2e+16, -1.999999999990898e-05).
HAND_CF = """\
# nfscan-cf 1
# kernel: image-theory
# d: 0.001
# h: 0.0016
# columns: f_hz,cf_db
2e9,1.0
"""
HAND_V = """\
# nfscan-map 1
# x_min: 0
# x_max: 0.002
# y_min: 0
# y_max: 0.002
# dx: 0.001
# dy: 0.001
# z_height: 0.001
# f_hz: 2e9
# component: vport
# value_kind: db
# meta.normal: hy
-0.99995,-0.99995,-0.99995
-2e16,-2e16,-2e16
-1.00002,-1.00002,-1.00002
"""


def make_inputs(cfg):
    """Write the configs the chain derives from table2 and table3, and the
    hand-spelled inputs, into the directory `cfg`."""
    def derive(base, name, edit):
        doc = json.loads(base.read_text())
        edit(doc)
        (cfg / name).write_text(json.dumps(doc))

    derive(TABLE2, "table2-integrated.json", lambda doc: doc["probe"].update(aperture="integrated"))
    # table3 at 0.1 mm: 201 x 251 cells, about 950 KB per map, so a map
    # read from its file crosses the reader's 64 KiB block edges
    derive(TABLE3, "table3-fine.json", lambda doc: doc["grid"].update(dx=0.1, dy=0.1))
    # table3 along one row, 3,001 columns at 0.01 mm: more than one kernel
    # block holds, so the kernel takes the row in chunks
    derive(TABLE3, "table3-row.json", lambda doc: doc["grid"].update(
        x_min=-15.0, x_max=15.0, y_min=0.0, y_max=0.0, dx=0.01))

    # a bent trace (segments along x, along y and diagonal), shorted, over a
    # log sweep: for each probe normal, with both apertures; then open at its
    # far end into an open-circuit probe, and over a one-point sweep with
    # f_max > f_min
    doc = json.loads(TABLE3.read_text())
    doc["trace"].update(vertices=[[-10, 0], [0, 0], [0, 5], [5, 10], [12, 10]],
                        termination="short")
    doc["grid"].update(x_min=-12.0, x_max=14.0, y_min=-4.0, y_max=14.0)
    doc["sweep"].update(f_min=0.5, f_max=3.0, n_points=4, spacing="log")
    for normal in "xyz":
        for aperture in ("uniform", "integrated"):
            doc["probe"].update(normal=normal, aperture=aperture, quad_n=4)
            (cfg / f"bent-{normal}-{aperture}.json").write_text(json.dumps(doc))
    # one diagonal segment, not split: the kernel's one-segment path
    doc["probe"].update(normal="z", aperture="uniform")
    one = {**doc, "trace": {**doc["trace"], "vertices": [[-7, -9], [8, 11]], "max_segment": None}}
    (cfg / "bent-one-segment.json").write_text(json.dumps(one))
    doc["trace"].update(termination="open")
    doc["probe"].update(normal="y", aperture="uniform", loading="open-circuit")
    (cfg / "bent-open.json").write_text(json.dumps(doc))
    doc["sweep"].update(n_points=1)
    (cfg / "bent-one-point.json").write_text(json.dumps(doc))

    (cfg / "hand.csv").write_bytes(HAND_MAP.encode())
    (cfg / "hand-ma.s2p").write_text(HAND_MA)
    (cfg / "hand-db.s2p").write_text(HAND_DB)
    (cfg / "hand-cf.csv").write_text(HAND_CF)
    (cfg / "hand-v.csv").write_text(HAND_V)


def run_chain(src, out, cfg):
    """Run every command of the chain from the nfscan in `src`, with the
    inputs in `cfg`, writing under `out`."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error"}

    def run(argv, stdout=None):
        # the children run in `cfg`, where no nfscan package can shadow SRC's
        done = subprocess.run(argv, env=env, cwd=cfg, stdout=stdout)
        if done.returncode:
            sys.exit(f"output_chain: command failed: {shlex.join(map(str, argv))}")
        return done.stdout

    def nf(*args, stdout=None):
        run([sys.executable, "-m", "nfscan.cli", *map(str, args)], stdout)

    where = run([sys.executable, "-c", "import nfscan; print(nfscan.__file__)"], subprocess.PIPE)
    imported = Path(where.decode().strip()).resolve().parent
    if imported != src / "nfscan":
        sys.exit(f"output_chain: nfscan was imported from {imported}, not from {src}")

    nf("probe-transfer", "--config", TABLE2, "--out", out / "probe.s2p")
    nf("probe-transfer", "--config", cfg / "table2-integrated.json",
       "--out", out / "probe-integrated.s2p")
    nf("calibrate", "--probe", out / "probe.s2p", "--d", "1.0", "--h", "1.6",
       "--kernel", "paper", "--out", out / "cf-paper.csv")
    nf("calibrate", "--probe", out / "probe-integrated.s2p", "--d", "1.0", "--h", "1.6",
       "--kernel", "image-theory", "--out", out / "cf-image.csv")
    nf("calibrate", "--probe", cfg / "hand-ma.s2p", "--d", "1.0", "--h", "1.6",
       "--kernel", "paper", "--out", out / "cf-hand-ma.csv")
    nf("calibrate", "--probe", cfg / "hand-db.s2p", "--d", "1.0", "--h", "1.6",
       "--kernel", "image-theory", "--out", out / "cf-hand-db.csv")
    nf("simulate", "--config", TABLE2, "--out", out / "table2")
    nf("simulate", "--config", TABLE3, "--out", out / "table3")
    # into the directory it has just written, and under a missing parent
    nf("simulate", "--config", TABLE3, "--out", out / "table3")
    nf("simulate", "--config", TABLE2, "--out", out / "new" / "parent" / "table2")
    nf("extract", "--scan", out / "table2" / "v_dbv_000_2GHz.csv", "--cf", out / "cf-image.csv",
       "--freq", "2e9", "--out", out / "hy.csv")
    nf("extract", "--scan", out / "table2" / "v_dbv_000_2GHz.csv", "--cf", out / "cf-paper.csv",
       "--freq", "2e9", "--sign-mode", "eq3-printed", "--out", out / "hy-eq3.csv")
    nf("profile", "--map", out / "hy.csv", "--axis", "y", "--at", "0", "--out", out / "profile.csv")
    nf("profile", "--map", out / "table3" / "hy_dba_m_001_3GHz.csv", "--axis", "x", "--at", "0",
       "--out", out / "profile-x.csv")
    nf("render", "--map", out / "hy.csv", "--lo", "-60", "--hi", "-10", "--out", out / "hy.pgm")
    nf("simulate", "--config", cfg / "table3-fine.json", "--out", out / "table3-fine")
    nf("simulate", "--config", cfg / "table3-row.json", "--out", out / "table3-row")
    nf("extract", "--scan", out / "table3-fine" / "v_dbv_000_2GHz.csv",
       "--cf", out / "cf-image.csv", "--freq", "2e9", "--out", out / "hy-fine.csv")
    nf("profile", "--map", out / "hy-fine.csv", "--axis", "x", "--at", "0",
       "--out", out / "profile-fine-x.csv")
    nf("profile", "--map", out / "hy-fine.csv", "--axis", "y", "--at", "0",
       "--out", out / "profile-fine-y.csv")
    nf("render", "--map", out / "hy-fine.csv", "--lo", "-60", "--hi", "-10",
       "--out", out / "hy-fine.pgm")
    nf("profile", "--map", cfg / "hand.csv", "--axis", "x", "--at", "0",
       "--out", out / "profile-hand.csv")
    nf("render", "--map", cfg / "hand.csv", "--lo", "-30", "--hi", "10", "--out", out / "hand.pgm")
    nf("extract", "--scan", cfg / "hand-v.csv", "--cf", cfg / "hand-cf.csv", "--freq", "2e9",
       "--out", out / "hy-hand.csv")

    # a map read from a pipe, which cannot seek
    fifo = cfg / "hy.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=((out / "hy.csv").read_bytes(),),
                              daemon=True)
    writer.start()
    with open(out / "stats-fifo.txt", "wb") as fh:
        nf("stats", "--map", fifo, stdout=fh)
    writer.join(timeout=60)
    if writer.is_alive():
        sys.exit(f"output_chain: nothing read the whole map from {fifo}")

    # a map whose lines end in CRLF
    (out / "v-crlf.csv").write_bytes(
        (out / "table2" / "v_dbv_000_2GHz.csv").read_bytes().replace(b"\n", b"\r\n"))
    with open(out / "stats.txt", "wb") as fh:
        for path in (out / "hy.csv", out / "table3" / "hy_dba_m_001_3GHz.csv",
                     out / "hy-fine.csv", out / "v-crlf.csv", cfg / "hand.csv"):
            nf("stats", "--map", path, stdout=fh)

    for config in sorted(cfg.glob("bent-*.json")):
        name = config.stem
        nf("probe-transfer", "--config", config, "--out", out / f"{name}.s2p")
        nf("calibrate", "--probe", out / f"{name}.s2p", "--d", "1.0", "--h", "1.6",
           "--kernel", "image-theory", "--out", out / f"{name}-cf.csv")
        nf("simulate", "--config", config, "--out", out / name)

    # no staging directory or temporary file is left in the tree
    left = sorted(out.rglob(".*.tmp"))
    if left:
        sys.exit(f"output_chain: left behind: {', '.join(map(str, left))}")


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python tests/output_chain.py SRC OUT")
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp)
        make_inputs(cfg)
        run_chain(src, out, cfg)


if __name__ == "__main__":
    main(sys.argv[1:])
