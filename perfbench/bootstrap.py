"""Point the interpreter at the checkout's own sources and pin thread counts.

Must run before numpy is imported: OpenBLAS reads its thread count once, at
load time.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space for CLI outputs and span dumps; listed in .gitignore.
WORK = ROOT / ".perfbench"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# No workload runs the cell pool (run_sweep, run_fluctuation_trials) and BLAS
# is single-threaded, so the load never has more threads than one core: on a
# 2-core shared host, work spread over both cores waits for whichever one
# another tenant is slowing.
THREAD_ENV = {"ZENO_CHAIN_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def prepare():
    """Import zenochain from ``src/`` of this checkout, or exit non-zero.

    An installed copy elsewhere on the path must never stand in for the
    sources under test.
    """
    if not (SRC / "zenochain" / "__init__.py").is_file():
        sys.exit(f"perfbench: no zenochain sources under {SRC}")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import zenochain

    if not Path(zenochain.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported zenochain from {zenochain.__file__}, not {SRC}")
    return zenochain
