"""Test-session set-up.

BLAS runs on one thread unless the environment says otherwise, so that the
printed verdict lines do not depend on the host's core count: with default
thread counts the last digits of a backward error moved between hosts.  It
is set here, before any test module imports numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
