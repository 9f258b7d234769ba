"""Host-speed probes: fixed kernels that time the machine, not the program.

On a shared host the same code runs up to 1.5x slower for minutes at a time,
and runs of the benchmark minutes apart see different speeds.  Each workload
therefore names a probe that does the same kind of work as its dominant
layer, written here and independent of the program.  The probe runs before
the first op and after every op; an op's time is scaled by

    REFERENCE_S[probe] / (mean of the probe's times just before and after it)

which gives the op's time at the probe's reference speed.  Each set-up is
scaled the same way by SETUP_PROBE, run right before and right after it.
The raw times stay in the result file.

REFERENCE_S holds, rounded, each probe's median time over benchmark runs on
the 2-core Intel Xeon VM the benchmark was defined on (Python 3.11, numpy
2.4).  It only fixes the unit: scaled times read as seconds on that machine
at a typical speed, and another machine gives figures of its own in the same
unit.  Two commits compare fairly because both are scaled alike.
"""

import statistics
import time

import numpy as np


def _text(rows, cols):
    rng = np.random.default_rng(12345)
    block = rng.standard_normal((rows, cols))
    return [",".join(f"{v:.8g}" for v in row) for row in block]


class Probe:
    """The probes write into buffers allocated here, so their times do not
    depend on what the allocator holds after the program's last call."""

    def __init__(self):
        rng = np.random.default_rng(54321)
        # CSV lines parsed with split and float, as a text loader does.
        self.lines = _text(20, 5000)
        # Distances of every row to every centre through a broadcast
        # temporary, as k-means' assignment step does (n=71, K=4, p=5000).
        self.x = rng.standard_normal((71, 1, 5000))
        self.c = rng.standard_normal((1, 4, 5000))
        self.diff = np.empty((71, 4, 5000))
        self.dist = np.empty((71, 4))
        # Normal draws sorted row by row, as null tables and KS scores do.
        self.table = np.empty((1000, 577))

    def parse(self):
        for _ in range(3):
            [[float(c) for c in line.split(",")] for line in self.lines]

    def broadcast(self):
        for _ in range(18):
            np.subtract(self.x, self.c, out=self.diff)
            np.square(self.diff, out=self.diff)
            np.sum(self.diff, axis=2, out=self.dist)

    def draws(self):
        rng = np.random.default_rng(54321)
        for _ in range(4):
            rng.standard_normal(out=self.table)
            self.table.sort(axis=1)

    def time(self, name):
        """Seconds one run of probe `name` takes now."""
        fn = getattr(self, name)
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def median_time(self, name, repeats):
        return statistics.median(self.time(name) for _ in range(repeats))


# Set-up generates normal draws and, for null tables, sorts them.  The probe
# runs this many times right before and right after a set-up.
SETUP_PROBE = "draws"
SETUP_PROBE_RUNS = 5
REFERENCE_S = {"parse": 0.065, "broadcast": 0.06, "draws": 0.06}
