import os
import sys

# One BLAS thread per process, set before numpy loads: harness grids then run
# their cells in parallel worker processes (one per usable CPU), and the
# suite does not oversubscribe the cores with BLAS threads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

sys.path.insert(0, os.path.dirname(__file__))
