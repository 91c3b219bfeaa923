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
scalar call is the one-matrix case of the same code.  The pair's images in
the n-step series are read off columns 0 and 3 of the channels.
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
    _telegraph,
    density_matrix,
    dephasers,
    repeated,
    superoperators,
)
from .inputs import batches, count, matrices, outputs, real, refuse, states, step_list, weights
from .walk import canonical_angle

MODE_NSTEP = "nstep"
MODE_CONCAT = "concat"
MODE_COMPOSITE = "composite"
_MODES = (MODE_NSTEP, MODE_CONCAT, MODE_COMPOSITE)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the absolute eigenvalue sum of rho - sigma; in [0, 1] for states."""
    rho, sigma = batches("rho and sigma", matrices("rho", rho), matrices("sigma", sigma))
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
    """Trace-distance values d(n) between two evolved orthogonal inputs.

    Each field is checked when the series is built: ``theta`` finite,
    ``mode`` one of ``MODE_NSTEP``, ``MODE_CONCAT`` and ``MODE_COMPOSITE``,
    ``steps`` ascending distinct step counts, and one value in [0, 1] per step.
    """

    theta: float
    mode: str
    steps: tuple
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", real("theta", self.theta))
        if self.mode not in _MODES:
            raise refuse("mode", f"one of {_MODES}", self.mode)
        if tuple(step_list("steps", self.steps)) != tuple(self.steps):
            raise refuse("steps", "ascending distinct step counts", self.steps)
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
    # checked once, here: td_values and TDSeries take the Steps as they are
    steps = step_list("steps", range(1, count("n_max", n_max) + 1))
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
        # the images of the pair |0><0|, |1><1|: (angle, step, input, 2, 2)
        pairs = repeated(thetas, steps, density_matrix(np.eye(2)))
        return _check_distances(trace_distance(pairs[:, :, 0], pairs[:, :, 1]))
    if mode == MODE_COMPOSITE:
        rtn = _telegraph("rtn", rtn)
    if mode in (MODE_NSTEP, MODE_COMPOSITE):
        return td_regimes(thetas, steps, [rtn])[0]
    raise ValueError(f"unknown series mode {mode!r}")


def td_regimes(thetas: Iterable[float], steps: Iterable[int],
               regimes) -> np.ndarray:
    """n-step trace distances after each telegraph regime, shape ``(R, B, S)``.

    ``regimes`` lists :class:`~qwchannel.channels.RTNParams` (dephasing at
    time ``n * dt`` chained after the n-step channel) or ``None`` (the
    n-step channel alone).  The images of |0><0| and |1><1|, at most
    ``MAX_OUTPUTS``, are columns 0 and 3 of one batched walk's channels.
    """
    steps, thetas = step_list("steps", steps), list(thetas)
    # every regime's dephasers are checked before the walk starts
    chained = [None if params is None else dephasers(_telegraph("regimes", params), steps)[:, None]
               for params in regimes]
    outputs("thetas x steps x states", len(thetas), len(steps), 2)
    columns = superoperators(thetas, steps)[..., ::3]  # columns 0 and 3: the pair's images
    images = columns.swapaxes(-1, -2).reshape(columns.shape[:2] + (2, 2, 2))
    values = []
    for superops in chained:
        # the dephasers are complete by construction, the walk channels gated when built
        pair = images if superops is None else _apply(superops, images)
        values.append(trace_distance(pair[..., 0, :, :], pair[..., 1, :, :]))
    return _check_distances(np.array(values).reshape((len(values),) + images.shape[:2]))


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
    """Tr rho^2 = sum_ij rho_ij rho_ji; 1 for pure states, 1/2 for the maximally mixed qubit.

    Any finite 2x2 matrix is taken, with no state rule: ``diag(2, -1)`` gives 5.0.
    """
    m = matrices("rho", rho)
    return _as_value(np.einsum("...ij,...ji->...", m, m).real)


def mixedness(rho: np.ndarray) -> float:
    """Complement of purity, scaled to [0, 1]: (d/(d-1)) (1 - Tr rho^2) at d = 2.

    In [0, 1] for states only; like :func:`purity` it takes any finite 2x2
    matrix, so ``diag(2, -1)`` gives -8.0.
    """
    return 2.0 * (1.0 - purity(rho))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum l log2 l over the eigenvalues, with 0 log 0 = 0.

    Any finite 2x2 matrix is taken, with no state rule, and its eigenvalues
    are clipped into [0, 1] first: ``diag(2, -1)`` gives 0.0.
    """
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


def holevo_max(rho1: np.ndarray, rho2: np.ndarray, channel) -> tuple[float, float]:
    """Maximize the two-state Holevo quantity over the first weight.

    Returns the maximum and its argmax p1.  The outputs ``channel(rho1)``
    and ``channel(rho2)`` must be qubit states, and are refused by those
    names otherwise.  The one-channel case of
    :func:`holevo_max_batch`, which says how the argmax is found.
    """
    out1 = states("channel(rho1)", channel(states("rho1", rho1)))
    out2 = states("channel(rho2)", channel(states("rho2", rho2)))
    chi, p_star = holevo_max_batch(out1, out2)
    return float(chi), float(p_star)


# 64 halvings narrow [0, 1] to 2^-64, below the float spacing of any weight
# above 2^-11; a mix's Bloch length is held to the largest float below 1, where
# atanh is finite
_HALVINGS = 64
_BELOW_ONE = 1.0 - 2.0 ** -53


def holevo_max_batch(out1: np.ndarray, out2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`holevo_max` for many channels at once, from their two outputs.

    ``out1`` and ``out2`` are the images of the two ensemble states, qubit
    states of shape ``(..., 2, 2)``; the leading axes index the channels.
    With Bloch vectors r1, r2 and ``r = p r1 + (1 - p) r2``, the objective
    ``chi(p) = S(mix) - p S1 - (1 - p) S2`` is concave with
    ``chi(0) = chi(1) = 0``, so its maximum is the root of
    ``chi'(p) = -(atanh|r| / |r|) r.(r1 - r2) / ln 2 - S1 + S2``,
    found by bisecting [0, 1] for all channels in lockstep.  Equal outputs
    (chi = 0 at every p) give p1 = 0.  Returns the maxima and their argmaxes,
    each of the leading shape.  The outputs are checked only as finite 2x2
    matrices, not as states; for one that is no state the result means nothing.
    """
    out1, out2 = batches("out1 and out2", matrices("out1", out1), matrices("out2", out2))
    s1, s2 = von_neumann_entropy(out1), von_neumann_entropy(out2)
    gap = (out1 - out2).conj()

    def mix(p1: np.ndarray) -> np.ndarray:
        weight = p1[..., None, None]
        return weight * out1 + (1.0 - weight) * out2

    lo, hi = np.zeros(gap.shape[:-2]), np.ones(gap.shape[:-2])
    for _ in range(_HALVINGS):
        mid = 0.5 * (lo + hi)
        mixed = mix(mid)
        low, high = _eigenvalues(mixed)
        length = np.minimum(high - low, _BELOW_ONE)
        # atanh(x) / x tends to 1 where the mix is maximally mixed
        ratio = np.divide(np.arctanh(length), length, out=np.ones_like(length),
                          where=length > 0.0)
        # r.(r1 - r2) = 2 Re Tr(mix (out1 - out2)), the outputs being Hermitian
        along = 2.0 * (mixed * gap).real.sum(axis=(-2, -1))
        rising = -ratio * along / math.log(2.0) - s1 + s2 > 0.0
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    return von_neumann_entropy(mix(lo)) - lo * s1 - (1.0 - lo) * s2, lo


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
