"""The host's pace: the time of a fixed computation unrelated to zenochain.

Imported after ``bootstrap.prepare``, so numpy runs with the benchmark's
thread settings.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

_RNG = np.random.default_rng(0)
_DIAG = _RNG.uniform(-1.0, 1.0, 200)
_OFFDIAG = _RNG.uniform(0.5, 1.5, 199)
_TIMES = np.linspace(0.0, 50.0, 400)
# Each sample takes the fastest of a few back-to-back runs, so it is timed
# with warm caches whatever the operation before it left behind.
REPEATS = 5


def _once() -> float:
    """A tridiagonal eigensolve, a dense complex projection and float-to-text
    formatting: the kinds of work zenochain does, at a fixed size."""
    start = time.perf_counter()
    w, v = scipy.linalg.eigh_tridiagonal(_DIAG, _OFFDIAG)
    amp = v @ (np.exp(-1j * np.outer(w, _TIMES)) * v[0][:, None])
    pops = np.abs(amp) ** 2
    "\n".join(",".join(f"{x:.12g}" for x in row) for row in pops[:, :20])
    return time.perf_counter() - start


def sample() -> float:
    return min(_once() for _ in range(REPEATS))
