"""Pin BLAS and OpenMP to one thread, as `perfbench/run.py` does.

The timing scripts import this before numpy.  Their matrices are small, so
with the libraries' default thread counts the printed seconds would measure
thread start-up and contention on a multi-core host more than the code.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

for var in THREAD_VARS:
    os.environ[var] = "1"
