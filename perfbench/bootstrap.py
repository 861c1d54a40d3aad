"""Process set-up shared by the benchmark's entry points.

``prepare`` must run before anything imports numpy: it pins the BLAS thread
count and puts the checkout's ``src`` first on the import path, so the code
measured is the code in this checkout and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREADS = 1  # one client; below nproc, and free of thread scheduling noise
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("bootstrap.prepare() must run before numpy is imported")
    if not (SRC / "hadperm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hadperm sources under {SRC}")
    os.environ.update({var: str(BLAS_THREADS) for var in _THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import hadperm

    if Path(hadperm.__file__).resolve().parent != SRC / "hadperm":
        raise SystemExit(f"perfbench: imported hadperm from {hadperm.__file__}, not {SRC}")
