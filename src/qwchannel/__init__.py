"""Reduced coin dynamics of a discrete-time quantum walk as a quantum channel.

The package builds the walk unitaries on a guarded cyclic lattice, extracts
the t-step reduced-coin operator sets by two independent routes, applies the
resulting channels (optionally chained with random telegraph dephasing), and
computes memory witnesses: trace-distance series, purity/mixedness, and the
maximized Holevo quantity.
"""

from .channels import (
    RTNParams,
    apply_kraus,
    closed_form_p,
    closed_form_q,
    coin_state,
    coin_state_from_angle,
    composite_map,
    concatenated_map,
    density_matrix,
    hermitian_eigenvalues,
    is_density_matrix,
    n_step_map,
    rtn_kraus,
    rtn_lambda,
)
from .kraus import (
    KrausSet,
    commutator_corrections,
    extract_kraus_binomial,
    extract_kraus_direct,
    extract_kraus_split_step,
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
    mixedness,
    nonmonotonicity,
    purity,
    td_series,
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
    "build_coin",
    "build_shifts",
    "build_split_step_unitary",
    "build_walk_unitary",
    "canonical_angle",
    "closed_form_p",
    "closed_form_q",
    "coin_projections",
    "coin_state",
    "coin_state_from_angle",
    "commutator_corrections",
    "composite_map",
    "concatenated_map",
    "density_matrix",
    "evolve",
    "extract_kraus_binomial",
    "extract_kraus_direct",
    "extract_kraus_split_step",
    "hermitian_eigenvalues",
    "holevo",
    "holevo_max",
    "is_density_matrix",
    "iter_kraus_steps",
    "joint_state",
    "kraus_closed_form_first_term",
    "minor_map",
    "mixedness",
    "n_step_map",
    "nonmonotonicity",
    "position_distribution",
    "purity",
    "rtn_kraus",
    "rtn_lambda",
    "td_series",
    "trace_distance",
    "von_neumann_entropy",
]
