"""The output-bytes chain (`tests/output_chain.py`) run once on this tree:
every command exits 0 under PYTHONWARNINGS=error, no temporary file is
left, and every output is where the chain writes it.  CI compares the
bytes of two trees' outputs; one tree can show only this."""

import json
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

BENT = [f"bent-{normal}-{aperture}" for normal in "xyz" for aperture in ("uniform", "integrated")]

#: Every single-file --out of the chain, and the stdout files of `stats`.
FILES = [
    "probe.s2p", "probe-integrated.s2p", "cf-paper.csv", "cf-image.csv",
    "cf-hand-ma.csv", "cf-hand-db.csv", "hy.csv", "hy-eq3.csv", "profile.csv",
    "profile-x.csv", "hy.pgm", "hy-fine.csv", "profile-fine-x.csv",
    "profile-fine-y.csv", "hy-fine.pgm", "profile-hand.csv", "hand.pgm",
    "hy-hand.csv", "hy-hand-v70.csv", "stats-fifo.txt", "v-crlf.csv", "stats.txt",
    *(f"{name}{suffix}" for name in [*BENT, "bent-open", "bent-one-point", "bent-one-segment"]
      for suffix in (".s2p", "-cf.csv")),
]


def _n_points(name):
    return json.loads((ROOT / "configs" / name).read_text())["sweep"]["n_points"]


def test_chain_writes_every_output(tmp_path):
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, str(TESTS / "output_chain.py"), str(ROOT / "src"),
                           str(out)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert not list(out.rglob(".*.tmp"))

    # each simulate --out holds three maps per sweep point and provenance.json
    table2, table3 = _n_points("table2.json"), _n_points("table3.json")
    scans = {"table2": table2, "new/parent/table2": table2, "table3": table3,
             "table3-fine": table3, "table3-row": table3,
             **dict.fromkeys(BENT, 4), "bent-open": 4, "bent-one-point": 1,
             "bent-one-segment": 4}
    files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    expected = set(FILES)
    for scan, n_points in scans.items():
        maps = {f for f in files if f.startswith(f"{scan}/") and f.endswith(".csv")}
        assert len(maps) == 3 * n_points, scan
        expected |= maps | {f"{scan}/provenance.json"}
    assert files == expected
