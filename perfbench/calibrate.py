"""Speed gauges: fixed kernels timed right before each op.

The reference machine is shared, and its speed moves in bursts that last
seconds: cold interpreter starts swung by 30% within a run, and run medians
of raw op times drifted 10-30% over minutes.  An op and a kernel that uses
the same resources, timed back to back, slow down together: the median of
their ratio varied 2% between runs where raw medians varied 20%.  Each op
is therefore timed between two samples of the gauge that matches its
workload, and reported times are scaled to the reference machine's speed:
``op seconds * REF_S / mean(gauge seconds before, after)``.

The kernels use numpy, scipy and the interpreter only, never ``sixbeam``,
so no change to the program moves them.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import scipy.linalg


def _dense_small(state):
    a, b, x = state
    np.linalg.solve(a, b)
    for j in range(1, 200):               # a row-by-row factorization loop
        a[j, :j] @ b[:j, 0]
    (np.exp(-x) * np.cos(x) + np.sin(x)).sum(axis=1)
    text = "\n".join(",".join(format(v, ".17g") for v in row) for row in b[:100])
    len(text)


def _dense_large(v):
    # Allocated per sample, so the gauge adds nothing to the peak RSS of ops.
    big = np.full((2000, 2000), 0.5)
    np.fill_diagonal(big, 2000.0)
    for _ in range(10):
        big @ v
    scipy.linalg.lu_factor(big[:600, :600])
    for j in range(0, 1500, 15):          # the shrinking panels of a factorization
        big[j + 1:, :j] @ v[:j]


def _stepping(state):
    a, lu, u = state
    grid = np.outer(np.arange(1.0, 501.0), [-0.5, 0.0, 0.5])
    for _ in range(40):
        u = scipy.linalg.lu_solve(lu, a @ u)    # one implicit step
        u /= np.max(np.abs(u))
        (np.exp(-grid) * np.cos(grid) + np.sin(grid)).T @ u[1:]   # one synthesis


def _cold_start(env):
    subprocess.run([sys.executable, "-c", "import numpy"],
                   env=env, check=True)


def _state(kind: str):
    rng = np.random.default_rng(0)
    if kind == "dense-small":
        return (rng.random((200, 200)) + 200.0 * np.eye(200), rng.random((200, 4)),
                rng.random((201, 200)))
    if kind == "dense-large":
        return rng.random(2000)
    a = rng.random((501, 501)) + 501.0 * np.eye(501)
    return a, scipy.linalg.lu_factor(a), rng.random(501)


# kind: (kernel, median seconds per sample on the reference machine)
GAUGES = {
    "dense-small": (_dense_small, 0.003),
    "dense-large": (_dense_large, 0.060),
    "stepping": (_stepping, 0.0135),
    "cold-start": (_cold_start, 0.140),
}


class Gauge:
    """One kernel, sampled between measurements."""

    def __init__(self, kind: str, env: dict):
        self.kernel, self.ref_s = GAUGES[kind]
        self.state = env if kind == "cold-start" else _state(kind)
        self.samples: list = []

    def sample(self) -> int:
        """Time the kernel once; returns the index of the sample."""
        t0 = time.perf_counter()
        self.kernel(self.state)
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def factor(self, k: int) -> float:
        """Scale for a time measured between samples k and k + 1 (the
        caller takes one more sample after its last measurement)."""
        return 2.0 * self.ref_s / (self.samples[k] + self.samples[k + 1])
