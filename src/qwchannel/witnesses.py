"""Distinguishability, mixedness, and information measures for the walk channel.

Trace-distance series between a pair of orthogonal inputs witness the memory
of the reduced coin dynamics: the single n-step channels produce revivals
(the series is not monotone), while repeating the one-step channel decays as
``|cos 2 theta|^n``.  Purity, von Neumann entropy, and the maximized Holevo
quantity characterize what the channel does to information carried by the
coin.

The channels come from :mod:`qwchannel.channels`.  This module measures
their outputs, and its series (:func:`td_values`, :func:`td_regimes`) also
compose them: the one-step channel repeated, or the n-step channel chained
with telegraph dephasing.  All 2x2 eigenvalue problems are solved in closed
form (trace/determinant), never iteratively.  Every measure also takes a
batch of matrices along leading axes; a sweep evaluates whole arrays
(:func:`td_values`, :func:`td_regimes`, :func:`holevo_max_batch`), and each
scalar call is the one-matrix case of the same code.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .channels import (
    RTNParams,
    _apply,
    _as_value,
    _eigenvalues,
    channel_outputs,
    density_matrix,
    dephasers,
    repeated,
    superoperators,
)
from .inputs import MAX_COUNT, count, matrices, real, refuse, states, step_list, weights
from .walk import canonical_angle

MODE_NSTEP = "nstep"
MODE_CONCAT = "concat"
MODE_COMPOSITE = "composite"

# the one-step channel's step list, checked once at import
_ONE_STEP = step_list("steps", [1])


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the absolute eigenvalue sum of rho - sigma; in [0, 1] for states."""
    rho, sigma = matrices("rho", rho), matrices("sigma", sigma)
    # two finite non-states can still overflow the difference or its eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        difference = rho - sigma
        low, high = _eigenvalues(difference)
        distance = 0.5 * (np.abs(low) + np.abs(high))
    if not np.isfinite(distance).all():
        raise refuse("rho - sigma", "within the float range", difference)
    return _as_value(distance)


def _check_distances(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    outside = ~((values >= -1e-12) & (values <= 1 + 1e-12))
    if outside.any():
        raise ValueError(f"trace distance {float(values[outside][0])!r} outside [0, 1]")
    return values


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
        _check_distances(self.values)


def td_series(theta: float, n_max: int, mode: str = MODE_NSTEP,
              rtn: RTNParams | None = None) -> TDSeries:
    """Trace distance between the images of |0><0| and |1><1| for n = 1..n_max.

    mode "nstep" applies the single n-step channel, "concat" repeats the
    one-step channel n times, and "composite" chains telegraph dephasing
    (with the given parameters, which only this mode takes) after the
    n-step channel.  The one-angle case of :func:`td_values`.
    """
    theta = canonical_angle(theta)
    steps = tuple(range(1, count("n_max", n_max) + 1))
    values = td_values([theta], steps, mode=mode, rtn=rtn)[0]
    return TDSeries(theta=theta, mode=mode, steps=steps, values=tuple(values.tolist()))


def td_values(thetas: Iterable[float], steps: Iterable[int], mode: str = MODE_NSTEP,
              rtn: RTNParams | None = None) -> np.ndarray:
    """:func:`td_series` values at every angle and step count, shape ``(B, S)``.

    The step axis runs over the distinct step counts in ascending order.
    The n-step modes take every set from one batched walk; "concat" repeats
    each angle's one-step channel (:func:`~qwchannel.channels.repeated`).
    The step list is checked here once and handed down as it is.
    """
    steps = step_list("steps", steps)
    if mode in (MODE_NSTEP, MODE_CONCAT) and rtn is not None:
        raise ValueError(f"rtn must be None outside composite mode, got {rtn!r} "
                         f"with mode {mode!r}")
    if mode == MODE_CONCAT:
        # the one-step axis broadcasts over the input pair |0><0|, |1><1|:
        # (angle, input, step, 2, 2)
        pairs = repeated(superoperators(thetas, _ONE_STEP), density_matrix(np.eye(2)), steps)
        return _check_distances(trace_distance(pairs[:, 0], pairs[:, 1]))
    if mode in (MODE_NSTEP, MODE_COMPOSITE):
        if mode == MODE_COMPOSITE and rtn is None:
            raise ValueError("composite mode needs telegraph-noise parameters")
        return td_regimes(thetas, steps, [rtn])[0]
    raise ValueError(f"unknown series mode {mode!r}")


def td_regimes(thetas: Iterable[float], steps: Iterable[int],
               regimes) -> np.ndarray:
    """n-step trace distances after each telegraph regime, shape ``(R, B, S)``.

    ``regimes`` lists :class:`~qwchannel.channels.RTNParams` (dephasing at
    time ``n * dt`` chained after the n-step channel) or ``None`` (the
    n-step channel alone).  The images of |0><0| and |1><1| come from one
    batched walk and are shared by every regime.
    """
    steps = step_list("steps", steps)
    # every regime's dephasers are checked before the walk starts
    chained = [None if params is None else dephasers(params, steps)[:, None]
               for params in regimes]
    outputs = channel_outputs(thetas, steps, density_matrix(np.eye(2)))
    values = []
    for superops in chained:
        # dephasers and outputs were both checked when they were built
        pair = outputs if superops is None else _apply(superops, outputs)
        values.append(trace_distance(pair[..., 0, :, :], pair[..., 1, :, :]))
    return _check_distances(np.array(values).reshape((len(values),) + outputs.shape[:2]))


def nonmonotonicity(series) -> float:
    """Summed positive increments of a trace-distance series.

    Zero exactly when the series never increases; any strictly positive
    value certifies distinguishability revivals across the step family.
    Accepts a :class:`TDSeries` or a bare value sequence.
    """
    values = np.array([real("series", value) for value in getattr(series, "values", series)])
    if values.size == 0:
        raise ValueError("series must be non-empty")
    return float(np.maximum(0.0, np.diff(values)).sum())


# -- purity and entropy -------------------------------------------------------

def purity(rho: np.ndarray) -> float:
    """Tr rho^2; 1 for pure states, 1/2 for the maximally mixed qubit."""
    m = matrices("rho", rho)
    return _as_value(np.trace(m @ m, axis1=-2, axis2=-1).real)


def mixedness(rho: np.ndarray, d: int = 2) -> float:
    """Complement of purity, scaled to [0, 1]: (d/(d-1)) (1 - Tr rho^2).

    ``d`` must be rho's dimension, 2: :func:`purity` takes qubit states only.
    """
    if real("d", d) != 2:
        raise refuse("d", "2, the dimension of rho", d)
    return 2.0 * (1.0 - purity(rho))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum l log2 l over the eigenvalues, with 0 log 0 = 0."""
    ev = np.clip(np.stack(_eigenvalues(matrices("rho", rho))), 0.0, 1.0)
    positive = ev > 0.0
    terms = np.where(positive, ev * np.log2(np.where(positive, ev, 1.0)), 0.0)
    # subtracted from +0.0, so a pure state's entropy is 0.0, not -0.0
    return _as_value(0.0 - terms[0] - terms[1])


# -- Holevo quantity ----------------------------------------------------------

def holevo(ensemble, channel) -> float:
    """Holevo quantity of a channel output ensemble.

    ``S(sum_j p_j F(rho_j)) - sum_j p_j S(F(rho_j))`` for the input ensemble
    of (weight, state) pairs; bounds the information recoverable about j
    from the channel output.  ``ensemble`` is read once, so it may be a generator.
    """
    ensemble = list(ensemble)
    probabilities = np.array(weights("ensemble weights", [weight for weight, _ in ensemble]))
    rhos = states("ensemble states", [state for _, state in ensemble])
    outs = matrices("channel output", [channel(rho) for rho in rhos])
    # both sums add one state after another: a 1-d np.sum pairs nine or more terms
    average = (probabilities[:, None, None] * outs).sum(axis=0)
    conditional = float(np.cumsum(probabilities * von_neumann_entropy(outs))[-1])
    return von_neumann_entropy(average) - conditional


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_max(fn, lo: np.ndarray, hi: np.ndarray, xtol: float) -> np.ndarray:
    """Argmax of unimodal functions on [lo, hi] to within xtol, one per element.

    All searches step in lockstep; each keeps its own bracket and stops
    narrowing once that bracket is within ``xtol``.
    """
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while (active := hi - lo > xtol).any():
        # right: the maximum lies beyond x1 (lo moves up); left: below x2
        right = active & (f1 < f2)
        left = active & ~right
        lo = np.where(right, x1, lo)
        hi = np.where(left, x2, hi)
        probe = np.where(right, lo + _INV_GOLDEN * (hi - lo), hi - _INV_GOLDEN * (hi - lo))
        f_probe = fn(probe)
        x1, x2 = (np.where(right, x2, np.where(left, probe, x1)),
                  np.where(right, probe, np.where(left, x1, x2)))
        f1, f2 = (np.where(right, f2, np.where(left, f_probe, f1)),
                  np.where(right, f_probe, np.where(left, f1, f2)))
    return 0.5 * (lo + hi)


def holevo_max(rho1: np.ndarray, rho2: np.ndarray, channel,
               grid_size: int = 33) -> tuple[float, float]:
    """Maximize the two-state Holevo quantity over the first weight.

    Scans p1 over {0, 1/(g-1), ..., (g-2)/(g-1)}, then refines around the
    best grid point by golden-section search to 1e-6 in p1.  Returns the
    maximum and its argmax.  The objective is concave in p1 (entropy of the
    average is concave, the conditional term linear), so the refinement is
    reliable.  The one-channel case of :func:`holevo_max_batch`.
    """
    out1, out2 = channel(states("rho1", rho1)), channel(states("rho2", rho2))
    chi, p_star = holevo_max_batch(out1, out2, grid_size)
    return float(chi), float(p_star)


def holevo_max_batch(out1: np.ndarray, out2: np.ndarray,
                     grid_size: int = 33) -> tuple[np.ndarray, np.ndarray]:
    """:func:`holevo_max` for many channels at once, from their two outputs.

    ``out1`` and ``out2`` are the images of the two ensemble states, with
    shape ``(..., 2, 2)``; the leading axes index the channels.  The coarse
    grid and the golden-section refinement run for all of them in lockstep.
    Returns the maxima and their argmaxes, each of the leading shape.
    """
    grid_size = count("grid_size", grid_size, low=3)
    out1, out2 = np.broadcast_arrays(matrices("out1", out1), matrices("out2", out2))
    shape = out1.shape[:-2]
    # one channel per row, with an axis for the weights tried at once
    out1, out2 = out1.reshape(-1, 1, 2, 2), out2.reshape(-1, 1, 2, 2)
    s1 = von_neumann_entropy(out1)
    s2 = von_neumann_entropy(out2)

    def chi(p1: np.ndarray) -> np.ndarray:
        # p1 has shape (channels, points); returns the objective at each point
        weight = p1[..., None, None]
        mix = weight * out1 + (1.0 - weight) * out2
        return von_neumann_entropy(mix) - p1 * s1 - (1.0 - p1) * s2

    spacing = 1.0 / (grid_size - 1)
    grid = np.arange(grid_size - 1) * spacing
    # the coarse scan, in chunks of at most (MAX_COUNT + 1) // channels points so
    # that a chunk holds no more mixes than MAX_COUNT + 1 whatever the grid size;
    # a later chunk wins only with a larger value, so ties keep the first point
    size = max(1, (MAX_COUNT + 1) // max(1, len(s1)))
    best, top = np.zeros(len(s1)), np.full(len(s1), -np.inf)
    for start in range(0, grid.size, size):
        points = grid[start:start + size]
        values = chi(np.broadcast_to(points, (len(s1), points.size)))
        peak = values.max(axis=1)
        better = peak > top
        best = np.where(better, points[values.argmax(axis=1)], best)
        top = np.where(better, peak, top)
    lo = np.maximum(0.0, best - spacing)[:, None]
    hi = np.minimum(1.0, best + spacing)[:, None]
    p_star = _golden_section_max(chi, lo, hi, 1e-6)
    return chi(p_star).reshape(shape), p_star.reshape(shape)


__all__ = [
    "MODE_COMPOSITE",
    "MODE_CONCAT",
    "MODE_NSTEP",
    "TDSeries",
    "holevo",
    "holevo_max",
    "holevo_max_batch",
    "mixedness",
    "nonmonotonicity",
    "purity",
    "td_regimes",
    "td_series",
    "td_values",
    "trace_distance",
    "von_neumann_entropy",
]
