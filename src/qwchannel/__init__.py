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

from .channels import (
    RTNParams,
    apply_kraus,
    apply_superoperators,
    channel_outputs,
    closed_form_p,
    closed_form_q,
    coin_state,
    coin_state_from_angle,
    composite_map,
    concatenated_map,
    density_matrix,
    dephasers,
    hermitian_eigenvalues,
    is_density_matrix,
    n_step_map,
    repeated,
    rtn_kraus,
    rtn_lambda,
    superoperators,
)
from .kraus import (
    KrausSet,
    commutator_corrections,
    extract_kraus_binomial,
    extract_kraus_direct,
    extract_kraus_split_step,
    iter_kraus_batches,
    iter_kraus_steps,
    kraus_closed_form_first_term,
    minor_map,
)
from .walk import (
    Lattice,
    build_coin,
    build_shifts,
    build_split_step_unitary,
    build_walk_unitary,
    canonical_angle,
    coin_projections,
    evolve,
    joint_state,
    position_distribution,
)
from .witnesses import (
    TDSeries,
    holevo,
    holevo_max,
    holevo_max_batch,
    mixedness,
    nonmonotonicity,
    purity,
    td_regimes,
    td_series,
    td_values,
    trace_distance,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "KrausSet",
    "Lattice",
    "RTNParams",
    "TDSeries",
    "apply_kraus",
    "apply_superoperators",
    "build_coin",
    "build_shifts",
    "build_split_step_unitary",
    "build_walk_unitary",
    "canonical_angle",
    "channel_outputs",
    "closed_form_p",
    "closed_form_q",
    "coin_projections",
    "coin_state",
    "coin_state_from_angle",
    "commutator_corrections",
    "composite_map",
    "concatenated_map",
    "density_matrix",
    "dephasers",
    "evolve",
    "extract_kraus_binomial",
    "extract_kraus_direct",
    "extract_kraus_split_step",
    "hermitian_eigenvalues",
    "holevo",
    "holevo_max",
    "holevo_max_batch",
    "is_density_matrix",
    "iter_kraus_batches",
    "iter_kraus_steps",
    "joint_state",
    "kraus_closed_form_first_term",
    "minor_map",
    "mixedness",
    "n_step_map",
    "nonmonotonicity",
    "position_distribution",
    "purity",
    "repeated",
    "rtn_kraus",
    "rtn_lambda",
    "superoperators",
    "td_regimes",
    "td_series",
    "td_values",
    "trace_distance",
    "von_neumann_entropy",
]
