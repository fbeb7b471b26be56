"""Run the tests with numpy's BLAS on one thread, unless the environment
already sets a count.

Report fields move by about 1e-11 with the BLAS thread count (the packing's
dense LU solves), so the golden and identity tests compare at one thread,
the count perfbench/run.py sets too.  The variables are read when numpy
loads, so this module refuses to run after numpy is imported: the pin
would not take.
"""

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

unset = [name for name in THREAD_VARS if name not in os.environ]
if unset and "numpy" in sys.modules:
    raise RuntimeError(
        f"numpy was imported before tests/conftest.py could set {', '.join(unset)} "
        "to 1; set them in the environment instead"
    )
for name in unset:
    os.environ[name] = "1"
