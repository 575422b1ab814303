"""A fixed reference computation, timed beside every round of a run.

The benchmark's host is shared with other tenants, and its speed changes
two- to threefold for minutes at a time: a 33^2 asymptotic round took
1.61-1.66 s in one period and 3.5-4.9 s in the next, in CPU time as in wall
time, with nothing else running in the machine.  A run's own rounds cannot average such a period away, so the
end-to-end solve metrics divide each round's time by the time of this
computation, measured in the same process just before and just after the
round.  The computation never calls ``plateau_hyp``: a change to the program
moves the round and leaves the reference as it is.

The mix follows the program's: Python-level loops over small numpy arrays
(ball lifts, chart drift), sparse assembly and ``spsolve`` (Newton steps),
and CPython's compiler for interpreter-bound C code.
"""

import argparse
import inspect
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_SOURCE = inspect.getsource(argparse)


def _compile(repeats: int = 8) -> None:
    for _ in range(repeats):
        compile(_SOURCE, "<reference>", "exec")


def _small_arrays(steps: int = 25000) -> float:
    a = np.linspace(0.0, 1.0, 25)
    total = 0.0
    for _ in range(steps):
        b = np.sqrt(a * a + 1.0)
        total += float(b.sum())
        a = a[::-1].copy()
    return total


def _sparse_picard(n: int = 65, iterations: int = 8) -> float:
    """Picard steps for div(w grad u) = -1, w = 1/sqrt(1 + |grad u|^2), u = 0 outside."""
    h = 1.0 / (n + 1)
    idx = np.arange(n * n).reshape(n, n)
    u = np.zeros((n, n))
    for _ in range(iterations):
        padded = np.pad(u, 1)
        gx, gy = np.gradient(padded, h)
        w = 1.0 / np.sqrt(1.0 + gx**2 + gy**2)
        centre = w[1:-1, 1:-1]
        rows, cols, vals = [], [], []
        diagonal = np.zeros((n, n))
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            face = 0.5 * (centre + w[1 + di:n + 1 + di, 1 + dj:n + 1 + dj])
            diagonal += face
            inside = (slice(max(0, -di), n - max(0, di)), slice(max(0, -dj), n - max(0, dj)))
            beside = (slice(max(0, di), n + min(0, di)), slice(max(0, dj), n + min(0, dj)))
            rows.append(idx[inside].ravel())
            cols.append(idx[beside].ravel())
            vals.append(-face[inside].ravel())
        rows.append(idx.ravel())
        cols.append(idx.ravel())
        vals.append(diagonal.ravel())
        matrix = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                               shape=(n * n, n * n))
        u = spla.spsolve(matrix, np.full(n * n, h * h)).reshape(n, n)
    return float(u.max())


def reference_work() -> None:
    _compile()
    _small_arrays()
    _sparse_picard()


def time_reference() -> tuple:
    """(wall, CPU) seconds of one reference computation."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    reference_work()
    return time.perf_counter() - wall0, time.process_time() - cpu0
