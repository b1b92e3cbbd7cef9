"""Pin the BLAS thread pools to one thread for the test run.

The Fock-oracle tests make many small dense calls (per-sector beam-splitter
matmuls, displacement exponentials), which OpenBLAS's default thread pool
slows several-fold when the cores are shared with other work.  numpy reads
these variables when it is first imported, after pytest has loaded this
file; a value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
