import os
import sys

import pytest

# One BLAS thread per process, set before numpy loads: harness grids then run
# their cells in parallel worker processes (one per usable CPU), and the
# suite does not oversubscribe the cores with BLAS threads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """Fail a test that leaves a child process behind, running or unreaped:
    a grid's forked workers must all be waited for, however the grid ends."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")
