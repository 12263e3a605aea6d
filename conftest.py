"""One BLAS thread for the whole test session.

The acceptance criteria time themselves against wall-clock bounds; with
several BLAS threads on a small machine those timings depend on whatever
else is running.  numpy is not imported yet when this root conftest
loads, so the settings take effect; a value already in the environment
wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
