"""Reduced coin dynamics of a discrete-time quantum walk as a quantum channel.

The package builds the walk unitaries on a guarded cyclic lattice, extracts
the t-step reduced-coin operator sets by two independent routes, applies the
resulting channels (optionally chained with random telegraph dephasing), and
computes memory witnesses: trace-distance series, purity/mixedness, and the
maximized Holevo quantity.

Imported before numpy, the package loads OpenBLAS with one thread: no operand
here is large enough to use a second one, and an idle worker burns CPU time
busy-waiting.  The pool is the process's, so every call into numpy's OpenBLAS,
the caller's own included, then runs on that one thread.  A session that sets
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` itself, or
imports numpy first, keeps its own pool; the environment is left as it was.
"""

import os
import sys

# OpenBLAS sizes its pool from the first of these variables that is set
if "numpy" not in sys.modules and not any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    # OpenBLAS reads the variable once, when numpy loads it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del os, sys

from .channels import *
from .kraus import *
from .walk import *
from .witnesses import *

__version__ = "0.1.0"

# each import above binds its submodule here too, so its list can be read
__all__ = channels.__all__ + kraus.__all__ + walk.__all__ + witnesses.__all__
