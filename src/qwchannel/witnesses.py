"""Distinguishability, mixedness, and information measures for the walk channel.

Trace-distance series between a pair of orthogonal inputs witness the memory
of the reduced coin dynamics: the single n-step channels produce revivals
(the series is not monotone), while repeating the one-step channel decays as
``|cos 2 theta|^n``.  Purity, von Neumann entropy, and the maximized Holevo
quantity characterize what the channel does to information carried by the
coin.

All 2x2 eigenvalue problems are solved in closed form (trace/determinant),
never iteratively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    RTNParams,
    apply_kraus,
    hermitian_eigenvalues,
    rtn_kraus,
    rtn_lambda,
)
from .kraus import extract_kraus_direct, iter_kraus_steps
from .walk import canonical_angle

MODE_NSTEP = "nstep"
MODE_CONCAT = "concat"
MODE_COMPOSITE = "composite"

_RHO_UP = np.diag([1.0, 0.0]).astype(np.complex128)
_RHO_DOWN = np.diag([0.0, 1.0]).astype(np.complex128)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the absolute eigenvalue sum of rho - sigma; in [0, 1] for states."""
    low, high = hermitian_eigenvalues(np.asarray(rho) - np.asarray(sigma))
    return 0.5 * (abs(low) + abs(high))


@dataclass(frozen=True)
class TDSeries:
    """Trace-distance values d(n) between two evolved orthogonal inputs."""

    theta: float
    mode: str
    steps: tuple
    values: tuple

    def __post_init__(self) -> None:
        if len(self.steps) != len(self.values):
            raise ValueError("steps and values must have equal length")
        for d in self.values:
            if not -1e-12 <= d <= 1 + 1e-12:
                raise ValueError(f"trace distance {d!r} outside [0, 1]")


def td_series(theta: float, n_max: int, mode: str = MODE_NSTEP,
              rtn: RTNParams | None = None) -> TDSeries:
    """Trace distance between the images of |0><0| and |1><1| for n = 1..n_max.

    mode "nstep" applies the single n-step channel, "concat" repeats the
    one-step channel n times, and "composite" chains telegraph dephasing
    (with the given parameters) after the n-step channel.  The n-step sets
    all come from one walk (:func:`iter_kraus_steps`).
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"series length must be >= 1, got {n_max}")
    theta = canonical_angle(theta)
    values = []
    if mode == MODE_CONCAT:
        one_step = extract_kraus_direct(theta, 1)
        top, bottom = _RHO_UP, _RHO_DOWN
        for _ in range(n_max):
            top = apply_kraus(one_step, top)
            bottom = apply_kraus(one_step, bottom)
            values.append(trace_distance(top, bottom))
    elif mode in (MODE_NSTEP, MODE_COMPOSITE):
        if mode == MODE_COMPOSITE and rtn is None:
            raise ValueError("composite mode needs telegraph-noise parameters")
        for kset in iter_kraus_steps(theta, range(1, n_max + 1)):
            top = apply_kraus(kset, _RHO_UP)
            bottom = apply_kraus(kset, _RHO_DOWN)
            if mode == MODE_COMPOSITE:
                dephase = rtn_kraus(rtn_lambda(rtn, kset.t * rtn.dt))
                top = apply_kraus(dephase, top)
                bottom = apply_kraus(dephase, bottom)
            values.append(trace_distance(top, bottom))
    else:
        raise ValueError(f"unknown series mode {mode!r}")
    return TDSeries(theta=theta, mode=mode,
                    steps=tuple(range(1, n_max + 1)), values=tuple(values))


def nonmonotonicity(series) -> float:
    """Summed positive increments of a trace-distance series.

    Zero exactly when the series never increases; any strictly positive
    value certifies distinguishability revivals across the step family.
    Accepts a :class:`TDSeries` or a bare value sequence.
    """
    values = np.asarray(getattr(series, "values", series), dtype=float)
    if values.size == 0:
        raise ValueError("series must be non-empty")
    return float(np.maximum(0.0, np.diff(values)).sum())


# -- purity and entropy -------------------------------------------------------

def purity(rho: np.ndarray) -> float:
    """Tr rho^2; 1 for pure states, 1/2 for the maximally mixed qubit."""
    m = np.asarray(rho)
    return float(np.trace(m @ m).real)


def mixedness(rho: np.ndarray, d: int = 2) -> float:
    """Complement of purity, scaled to [0, 1]: (d/(d-1)) (1 - Tr rho^2)."""
    return (d / (d - 1)) * (1.0 - purity(rho))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum l log2 l over the eigenvalues, with 0 log 0 = 0."""
    entropy = 0.0
    for ev in hermitian_eigenvalues(rho):
        ev = min(1.0, max(0.0, ev))
        if ev > 0.0:
            entropy -= ev * math.log2(ev)
    return entropy


# -- Holevo quantity ----------------------------------------------------------

def validate_ensemble(ensemble) -> None:
    """Check that weights are nonnegative and sum to one."""
    total = 0.0
    for weight, _ in ensemble:
        if weight < 0:
            raise ValueError(f"ensemble weight {weight!r} is negative")
        total += weight
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"ensemble weights sum to {total!r}, expected 1")


def holevo(ensemble, channel) -> float:
    """Holevo quantity of a channel output ensemble.

    ``S(sum_j p_j F(rho_j)) - sum_j p_j S(F(rho_j))`` for the input ensemble
    of (weight, state) pairs; bounds the information recoverable about j
    from the channel output.
    """
    validate_ensemble(ensemble)
    average = np.zeros((2, 2), dtype=np.complex128)
    conditional = 0.0
    for weight, state in ensemble:
        out = channel(np.asarray(state, dtype=np.complex128))
        average += weight * out
        conditional += weight * von_neumann_entropy(out)
    return von_neumann_entropy(average) - conditional


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(fn, lo: float, hi: float, xtol: float) -> float:
    """Argmax of a unimodal function on [lo, hi] to within xtol."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > xtol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = fn(x1)
    return 0.5 * (lo + hi)


def holevo_max(rho1: np.ndarray, rho2: np.ndarray, channel,
               grid_size: int = 33) -> tuple[float, float]:
    """Maximize the two-state Holevo quantity over the first weight.

    Scans p1 over {0, 1/(g-1), ..., (g-2)/(g-1)}, then refines around the
    best grid point by golden-section search to 1e-6 in p1.  Returns the
    maximum and its argmax.  The objective is concave in p1 (entropy of the
    average is concave, the conditional term linear), so the refinement is
    reliable.
    """
    grid_size = int(grid_size)
    if grid_size < 3:
        raise ValueError(f"grid size must be >= 3, got {grid_size}")
    out1 = channel(np.asarray(rho1, dtype=np.complex128))
    out2 = channel(np.asarray(rho2, dtype=np.complex128))
    s1 = von_neumann_entropy(out1)
    s2 = von_neumann_entropy(out2)

    def chi(p1: float) -> float:
        mix = p1 * out1 + (1.0 - p1) * out2
        return von_neumann_entropy(mix) - p1 * s1 - (1.0 - p1) * s2

    spacing = 1.0 / (grid_size - 1)
    grid = [k * spacing for k in range(grid_size - 1)]
    best = max(range(len(grid)), key=lambda k: chi(grid[k]))
    lo = max(0.0, grid[best] - spacing)
    hi = min(1.0, grid[best] + spacing)
    p_star = _golden_section_max(chi, lo, hi, 1e-6)
    return chi(p_star), p_star


__all__ = [
    "MODE_COMPOSITE",
    "MODE_CONCAT",
    "MODE_NSTEP",
    "TDSeries",
    "holevo",
    "holevo_max",
    "mixedness",
    "nonmonotonicity",
    "purity",
    "td_series",
    "trace_distance",
    "validate_ensemble",
    "von_neumann_entropy",
]
