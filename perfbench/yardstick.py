"""Fixed reference tasks that measure how fast the host runs at the moment.

On a shared virtual machine the CPU the benchmark gets drifts in speed by
up to 2x, in spells that last from seconds to minutes, and the drift hits
kinds of work unequally: interpreter-bound code (formatting and parsing
text) slows far more than streaming array arithmetic.  A median over one
run cannot remove a spell that covers the whole run.

The worker times a workload's yardstick before the first command of
every pass and after each command, and divides each command's time by
the mean of the yardstick times around it, so the drift cancels.  Each
workload uses the yardstick of the work that dominates it.  The tasks use
only Python and numpy, never nfscan, so a change to nfscan moves the
ratio exactly as much as it moves the time.
"""

import time

import numpy as np

_TEXT_VALUES = (np.linspace(0.5, 2.0, 3000) * 1.001).tolist()
_TEXT_ARRAY = np.linspace(0.5, 2.0, 20000)
_ARRAY_N = 2_000_000  # 16 MB per array, well beyond a core's own caches
_arrays = []


def text():
    """Format and parse 3,000 floats as CSV rows, then a small numpy pass (about 5 ms)."""
    rows = [",".join(map(repr, _TEXT_VALUES[i:i + 30])) for i in range(0, len(_TEXT_VALUES), 30)]
    total = sum(float(cell) for row in rows for cell in row.split(","))
    for _ in range(3):
        np.log10(np.abs(np.sin(_TEXT_ARRAY * total)) + 1.0).sum()


def array():
    """Stream two 16 MB arrays through multiply and sqrt three times (about 15 ms)."""
    if not _arrays:
        _arrays.extend([np.linspace(0.5, 2.0, _ARRAY_N), np.empty(_ARRAY_N)])
    src, dst = _arrays
    for _ in range(3):
        np.multiply(src, 1.0001, out=dst)
        np.sqrt(dst, out=dst)


def mixed():
    """`text`, then `array`, for passes that spend their time on both (about 20 ms)."""
    text()
    array()


def timed(task):
    """(wall s, process CPU s) of one run of `task`."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    task()
    return time.perf_counter() - wall0, time.process_time() - cpu0
