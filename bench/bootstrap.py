"""Import-time set-up shared by the benchmark's entry points.

Import this module before anything that imports numpy: it pins BLAS to one
thread (each workload is one client with no worker threads) and puts the
checkout's ``src`` first on ``sys.path``, then refuses to run against a
``submax`` installed anywhere else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import submax
except ImportError as exc:
    sys.exit(f"cannot import submax from {ROOT / 'src'}: {exc}")
if not Path(submax.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"submax was imported from {submax.__file__}, not from this checkout")
