"""Pins BLAS to one thread for the whole suite.

Some pinned values (iteration counts, byte-equal iterates) depend on the
BLAS thread count, and BLAS reads these variables once, when numpy loads,
so they are set here, before any test module imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
