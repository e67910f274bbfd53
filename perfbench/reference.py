"""Fixed reference work that gauges the host's speed during a run.

The benchmark runs on shared hosts whose speed drifts, in this process and in
every child it starts, by 10-30% over seconds to minutes: other tenants
contend for the same cores, caches and memory.  A raw latency moves by as
much between runs of identical code, more than any bound a regression check
could use.  So each run also times a fixed piece of reference work, in short
blocks interleaved with the items, and reports every time at the reference
host speed:

    calibrated = raw * NOMINAL_NS / (reference time measured around the raw one)

When the host slows down, the item and the reference slow down together and
the calibrated time stays put; a change to icpkit moves the item alone, since
no reference calls icpkit.  Each workload uses the reference that shares its
bottleneck, because contention hits interpreter-bound, batch-bound and
memory-bound code by different amounts.  ``NOMINAL_NS`` is a fixed constant
per reference, its typical time per call inside benchmark runs on the host
the bounds were set on (2 vCPUs of an Intel Xeon at 2.0 GHz, Python 3.11,
numpy 2.4, one BLAS thread), so calibrated times read close to raw ones
there.  The readable report prints the raw times and the measured reference
times beside them.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import numpy as np


class Interpreter:
    """Small-array numpy calls from a Python loop, like the oracle's dedup loop."""

    NOMINAL_NS = 1_500_000

    def __init__(self):
        rng = np.random.default_rng(0)
        self.known = list(rng.random((128, 9)))
        self.point = rng.random(9) + 2.0

    def __call__(self):
        hits = 0
        for _ in range(2):
            for known in self.known:
                if np.max(np.abs(known - self.point)) <= 1e-8:
                    hits += 1
        return hits


class Campaign(Interpreter):
    """Argument parsing and a JSON round trip, then the interpreter work: the verify campaign at n = 8."""

    NOMINAL_NS = 2_600_000

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(1)
        self.doc = {"id": "ref", "A": rng.random((8, 8)).tolist(), "b": rng.random(8).tolist()}

    def __call__(self):
        parser = argparse.ArgumentParser(prog="ref")
        verify = parser.add_subparsers(dest="command").add_parser("verify")
        verify.add_argument("paths", nargs="+")
        verify.add_argument("--solver", action="store_true")
        verify.add_argument("--deltas", default="identity")
        verify.add_argument("--out-path")
        parser.parse_args(["verify", "a.json", "--solver", "--deltas", "identity,cubic", "--out-path", "rows.csv"])
        json.loads(json.dumps(self.doc))
        return super().__call__()


class Batch:
    """Partial-pivoting elimination steps over one oracle chunk, a (4096, 16, 16) batch (8 MB)."""

    NOMINAL_NS = 30_000_000

    def __init__(self):
        rng = np.random.default_rng(0)
        self.mats = rng.random((4096, 16, 16)) + 4.0 * np.eye(16)
        self.rows = np.arange(4096)

    def __call__(self):
        a = self.mats.copy()
        for k in range(3):
            p = k + np.abs(a[:, k:, k]).argmax(axis=1)
            row = a[self.rows, k, :].copy()
            a[self.rows, k, :] = a[self.rows, p, :]
            a[self.rows, p, :] = row
            factor = a[:, k + 1 :, k] / a[:, k, k][:, None]
            a[:, k + 1 :, k:] -= factor[:, :, None] * a[:, None, k, k:]
        return a


class Matvec:
    """Products with two 1000 x 1000 matrices (16 MB, above L2): the solver at n = 1000."""

    NOMINAL_NS = 850_000

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((1000, 1000))
        self.c = rng.random((1000, 1000))
        self.v = np.ones(1000)

    def __call__(self):
        return self.a @ self.v + self.c @ self.v


class NumpyImport:
    """A fresh interpreter that imports numpy: most of the CLI's cold start."""

    NOMINAL_NS = 180_000_000

    def __call__(self):
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True, timeout=60)


KERNELS = {"interpreter": Interpreter, "campaign": Campaign, "batch": Batch, "matvec": Matvec}

