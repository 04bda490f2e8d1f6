"""Process set-up shared by the benchmark's modules; import it before numpy.

BLAS runs single-threaded: on a small shared machine extra BLAS threads
only add run-to-run spread, and every matmul in the package is exact in
float64, so results do not depend on the thread count.  The package is
imported from the checkout's ``src/``, never from an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import nrpbench  # noqa: E402

if Path(nrpbench.__file__).resolve().parent != SRC / "nrpbench":
    raise ImportError(f"nrpbench was imported from {nrpbench.__file__}, not from {SRC}")
