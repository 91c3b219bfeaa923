"""Qubit channels built from the walk operator sets, plus telegraph dephasing.

The one place each channel family on 2x2 density matrices is built, for
whole angle/step batches from one walk as 4x4 arrays: the single n-step walk
channel (:func:`superoperators`), the n-fold repetition of the one-step
channel (:func:`repeated`; not the same map once the walk remembers its
position register), and telegraph dephasing at time ``n * dt``
(:func:`dephasers`) to chain after the walk.  The walk channels pass the
completeness gate once, where they are built; the dephasers are taken in
closed form, ``diag(1, L, L, 1)``, complete by construction and never gated.
A raw 4x4 map enters only through :func:`apply_superoperators`, an operator
set through :func:`apply_kraus`.  The scalar maps are the one-matrix case.
Closed forms validate the first three steps.

Basis convention: ``|0>`` is the upper coin state ``(1, 0)^T`` and carries
``sigma_z = +1``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .inputs import (
    batches,
    count,
    kets,
    matrices,
    nonnegative,
    number,
    outputs,
    positive,
    real,
    refuse,
    step_list,
)
from .inputs import states as qubit_states
from .kraus import (
    KrausSet,
    _walk_superoperators,
    residual_of,
    superoperator_of,
)
from .walk import canonical_angle

SIGMA_Z = np.diag([1.0, -1.0]).astype(np.complex128)

COMPLETENESS_TOL = 1e-8

# the one-step channel's step list, checked once at import
_ONE_STEP = step_list("steps", [1])


# -- states -----------------------------------------------------------------

def coin_state(a: complex, b: complex) -> np.ndarray:
    """Coin ket a|0> + b|1>, one of :func:`~qwchannel.inputs.kets`."""
    return kets("(a, b)", [number("a", a), number("b", b)])


def coin_state_from_angle(delta: float) -> np.ndarray:
    """The one-parameter family cos(delta/2)|0> + sin(delta/2)|1>."""
    d = real("delta", delta)
    return np.array([math.cos(d / 2), math.sin(d / 2)], dtype=np.complex128)


def density_matrix(ket: np.ndarray) -> np.ndarray:
    """Rank-one density matrices |ket><ket| of :func:`~qwchannel.inputs.kets`,
    one per ket along the last axis; leading axes are a batch of kets."""
    vec = kets("ket", ket)
    return vec[..., :, None] * vec[..., None, :].conj()


def _as_value(array):
    """A Python float for the value of a single matrix; the array for a batch."""
    return float(array) if np.ndim(array) == 0 else array


def hermitian_eigenvalues(matrix: np.ndarray) -> tuple[float, float]:
    """Closed-form eigenvalue pair (low, high) of a Hermitian 2x2 matrix.

    Leading axes are a batch of matrices and give a pair of arrays.
    """
    return _eigenvalues(matrices("matrix", matrix))


def _eigenvalues(m: np.ndarray) -> tuple[float, float]:
    """:func:`hermitian_eigenvalues` of an already-checked complex array, unchecked."""
    # each diagonal entry is halved first, so their mean and half-difference stay finite
    half = 0.5 * m[..., 0, 0].real, 0.5 * m[..., 1, 1].real
    mean = half[0] + half[1]
    radius = np.hypot(half[0] - half[1], np.abs(m[..., 0, 1]))
    return _as_value(mean - radius), _as_value(mean + radius)


def is_density_matrix(rho: np.ndarray) -> bool:
    """One 2x2 matrix that :func:`qwchannel.inputs.states` accepts."""
    try:
        return qubit_states("rho", rho).shape == (2, 2)
    except ValueError:
        return False


# -- walk channels ------------------------------------------------------------

def _complete(superops: np.ndarray) -> np.ndarray:
    """``superops``, once every residual is within ``COMPLETENESS_TOL``: the one gate."""
    worst = float(np.max(residual_of(superops), initial=0.0))
    if not worst <= COMPLETENESS_TOL:
        raise ValueError(f"kraus set incomplete: residual {worst:.3e}")
    return superops


def _apply(superops: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``vec(out) = S @ vec(rho)`` over the broadcast leading axes of both, unchecked.

    Each product sums in the order of a single matrix-vector product,
    however the axes broadcast.
    """
    out = np.einsum("...ij,...j->...i", superops, states.reshape(states.shape[:-2] + (4,)))
    return out.reshape(out.shape[:-1] + (2, 2))


def apply_superoperators(superops: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``vec(out) = S @ vec(rho)`` over the broadcast leading axes of both.

    ``superops`` has shape ``(..., 4, 4)`` and ``states`` ``(..., 2, 2)``;
    ``vec`` is row-major.  Both must be finite and every superoperator complete
    (:func:`_complete`) and completely positive: its Choi matrix
    (:func:`~qwchannel.kraus.superoperator_of`'s axis swap undone) Hermitian,
    with no eigenvalue below ``-COMPLETENESS_TOL``.  The one door for raw maps.
    """
    superops = _complete(matrices("superops", superops, 4))
    choi = superops.reshape(superops.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -2)
    choi = choi.reshape(superops.shape)
    if not (np.abs(choi - choi.conj().swapaxes(-1, -2)).max(initial=0.0) <= COMPLETENESS_TOL
            and np.linalg.eigvalsh(choi).min(initial=0.0) >= -COMPLETENESS_TOL):
        raise refuse("superops", "completely positive maps", superops)
    return _apply(*batches("superops and states", superops, matrices("states", states)))


def superoperators(thetas: Iterable[float], steps: Iterable[int]) -> np.ndarray:
    """The channel of every coin angle and step count, shape ``(B, S, 4, 4)``.

    The step axis runs over the distinct step counts in ascending order.
    All angles are walked together, and each set's channel is one float64
    Gram product taken straight from the walk's buffer
    (:func:`~qwchannel.kraus._walk_superoperators`); the whole array passes the
    completeness gate once.  At most ``MAX_OUTPUTS`` channels, refused before
    any walk.
    """
    thetas, steps = list(thetas), step_list("steps", steps)
    outputs("thetas x steps", len(thetas), len(steps))
    return _complete(_walk_superoperators(thetas, steps))


def channel_outputs(thetas: Iterable[float], steps: Iterable[int],
                    states: np.ndarray) -> np.ndarray:
    """Every state's image under every (angle, step count) channel.

    ``states`` are qubit states, leading axes a batch of them; the result has
    shape ``(B, S) + states.shape``, with the axes of :func:`superoperators`.
    At most ``MAX_OUTPUTS`` outputs in all, refused before any walk.
    """
    states, thetas = qubit_states("states", states), list(thetas)
    steps = step_list("steps", steps)
    outputs("thetas x steps x states", len(thetas), len(steps), math.prod(states.shape[:-2]))
    # each channel broadcast over the leading axes of states
    return _apply(superoperators(thetas, steps).reshape(
        (len(thetas), len(steps)) + (1,) * (states.ndim - 2) + (4, 4)), states)


def apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    """Apply ``rho -> sum_mu K_mu rho K_mu^dag``.

    ``kraus`` may be a :class:`KrausSet` or any iterable of 2x2 operators.
    The set must satisfy completeness, which makes the map trace preserving.
    A :class:`KrausSet` builds its 4x4 superoperator once, a plain list on
    every call; completeness is read off that 4x4 matrix on every call.
    """
    rho = matrices("rho", rho)
    if isinstance(kraus, KrausSet):
        superop = _complete(kraus.superoperator)
    else:
        # an empty list stacks to shape (0,): refused as incomplete, not as a shape
        superop = _complete(superoperator_of(
            matrices("kraus", list(kraus) or np.zeros((0, 2, 2)))))
    return _apply(superop, rho)


def repeated(thetas: Iterable[float], steps: Iterable[int], states: np.ndarray) -> np.ndarray:
    """Every state's image under each angle's one-step channel applied n times.

    ``states`` are finite 2x2 matrices; the result has shape
    ``(B, S) + states.shape``, one image per angle and per distinct step count n,
    ascending.  The one-step channels come from :func:`superoperators`, gated
    there once.  At most ``MAX_OUTPUTS`` outputs in all, refused before any walk.
    """
    states, thetas = matrices("states", states), list(thetas)
    steps = step_list("steps", steps)
    outputs("thetas x steps x states", len(thetas), len(steps), math.prod(states.shape[:-2]))
    # one channel per angle, broadcast over the leading axes of states
    one_step = superoperators(thetas, _ONE_STEP).reshape(
        (len(thetas),) + (1,) * (states.ndim - 2) + (4, 4))
    images, kept = states, []
    for n in range(1, steps[-1] + 1):
        images = _apply(one_step, images)
        if n == steps[len(kept)]:
            kept.append(images)
    return np.stack(kept, axis=1)


def n_step_map(theta: float, n: int, rho: np.ndarray) -> np.ndarray:
    """Single n-step walk channel (equals the position trace of the joint walk)."""
    superop = superoperators([theta], [count("n", n)])[0, 0]
    return _apply(superop, matrices("rho", rho))


def concatenated_map(theta: float, n: int, rho: np.ndarray) -> np.ndarray:
    """The one-step channel applied n times in sequence.

    Distinct from :func:`n_step_map` for n >= 2: repetition discards the
    position correlations the walk builds up between steps.
    """
    return repeated([theta], [count("n", n)], matrices("rho", rho))[0, 0]


# -- closed forms for the first steps ----------------------------------------

def closed_form_p(theta: float, t: int, a: complex, b: complex) -> float:
    """Upper-left entry p_t of the t-step output for input a|0> + b|1> (t <= 3)."""
    th = canonical_angle(theta)
    a, b = coin_state(a, b).tolist()
    pa = abs(a) ** 2
    diff = pa - abs(b) ** 2
    kappa = a * np.conj(b) - np.conj(a) * b  # purely imaginary
    if t == 1:
        val = 0.5 * (1 + diff * math.cos(2 * th) + 1j * kappa * math.sin(2 * th))
    elif t == 2:
        val = 0.25 * (1 + 2 * pa + diff * math.cos(4 * th)
                      + 1j * kappa * math.sin(4 * th))
    elif t == 3:
        val = (6 + 4 * pa
               + 5 * diff * math.cos(2 * th)
               - 2 * diff * math.cos(4 * th)
               + 3 * diff * math.cos(6 * th)
               + 3j * kappa * math.sin(2 * th)
               - 2j * kappa * math.sin(4 * th)
               + 3j * kappa * math.sin(6 * th)) / 16
    else:
        raise ValueError(f"closed form available for t in (1, 2, 3), got {t}")
    return float(np.real(val))


def closed_form_q(theta: float, t: int, a: complex, b: complex) -> complex:
    """Upper-right coherence q_t of the t-step output (t <= 3); q_1 is 0."""
    th = canonical_angle(theta)
    c, s = math.cos(th), math.sin(th)
    a, b = coin_state(a, b).tolist()
    diff = abs(a) ** 2 - abs(b) ** 2
    if t == 1:
        return 0.0 + 0.0j
    if t == 2:
        return complex(
            s ** 2 * (np.conj(a) * b * c ** 2 + a * np.conj(b) * s ** 2
                      - 1j * diff * s * c)
        )
    if t == 3:
        return complex(
            c * s ** 2 * ((np.conj(a) * b + a * np.conj(b)) * c
                          + (np.conj(a) * b - a * np.conj(b)) * math.cos(3 * th)
                          - 1j * diff * math.sin(3 * th))
        )
    raise ValueError(f"closed form available for t in (1, 2, 3), got {t}")


# -- random telegraph noise ---------------------------------------------------

@dataclass(frozen=True)
class RTNParams:
    """Telegraph-noise kernel parameters.

    ``a`` is the coupling amplitude, ``gamma`` the fluctuation rate (both in
    inverse time), and ``dt`` the physical duration assigned to one walk
    step.  The kernel is oscillatory (non-Markovian regime) when
    ``(a/gamma)^2 > 0.25`` and overdamped (Markovian regime) below.
    """

    a: float
    gamma: float
    dt: float = 1.0

    def __post_init__(self) -> None:
        for name, check in (("a", nonnegative), ("gamma", positive), ("dt", positive)):
            object.__setattr__(self, name, check(name, getattr(self, name)))
        # rtn_lambda squares the rate ratio r = 2a/gamma
        r = 2.0 * self.a / self.gamma
        real("(2a/gamma)^2 of a and gamma", r * r)

    @property
    def is_nonmarkovian(self) -> bool:
        return (self.a / self.gamma) ** 2 > 0.25


def _telegraph(name: str, params) -> RTNParams:
    """``params``, once it is an :class:`RTNParams`; refused as ``name`` otherwise."""
    if not isinstance(params, RTNParams):
        raise refuse(name, "RTNParams", params)
    return params


def _check_kernel_span(params: RTNParams, elapsed: float, name: str) -> None:
    """Refuse, as ``name``, a time whose kernel arguments overflow.

    The kernel's arguments at ``elapsed`` are at most ``max(gamma, 2a) * elapsed``.
    """
    real(name, max(params.gamma, 2.0 * params.a) * elapsed)


def rtn_lambda(params: RTNParams, elapsed) -> float | np.ndarray:
    """Dephasing kernel value Lambda(elapsed), always in [-1, 1] with Lambda(0)=1.

    Underdamped regime (4 a^2/gamma^2 > 1):
        exp(-g t) [cos(w g t) + sin(w g t)/w],   w = sqrt(4 a^2/g^2 - 1).
    Overdamped regime the trig functions continue to their hyperbolic
    counterparts; that branch is evaluated in the overflow-safe form
        [(1 + 1/w) exp(-(1-w) g t) + (1 - 1/w) exp(-(1+w) g t)] / 2,
    which also returns exactly 1.0 when a = 0.  At the regime boundary the
    common limit exp(-g t)(1 + g t) is used.  ``max(gamma, 2a) * elapsed``
    must be finite.  An array of times gives an array, checked once, by its
    smallest time and its largest.
    """
    params, times = _telegraph("params", params), np.asarray(elapsed)
    if times.dtype.kind not in "iuf" or times.size == 0:
        raise refuse("elapsed", "a time or a non-empty array of times", elapsed)
    nonnegative("elapsed", times.min().item())
    _check_kernel_span(params, nonnegative("elapsed", times.max().item()),
                       "max(gamma, 2a) * elapsed of a, gamma and elapsed")
    # in float64 whatever the times' type: float32 times would round every value
    gt = params.gamma * times.astype(float, copy=False)
    # squared as r = 2a/gamma: a^2 and gamma^2 overflow or vanish where r is O(1)
    r = 2.0 * params.a / params.gamma
    ratio = r * r - 1.0
    if abs(ratio) < 1e-12:
        value = np.exp(-gt) * (1.0 + gt)
    elif ratio > 0:
        w = math.sqrt(ratio)
        value = np.exp(-gt) * (np.cos(w * gt) + np.sin(w * gt) / w)
    else:
        w = math.sqrt(-ratio)
        value = 0.5 * ((1.0 + 1.0 / w) * np.exp(-(1.0 - w) * gt)
                       + (1.0 - 1.0 / w) * np.exp(-(1.0 + w) * gt))
    return _as_value(np.clip(value, -1.0, 1.0))


def rtn_kraus(lambda_val) -> np.ndarray:
    """Dephasing operator pair sqrt((1+L)/2) I and sqrt((1-L)/2) sigma_z.

    One kernel value L or an array of them gives shape ``L.shape + (2, 2, 2)``.
    Completeness holds to rounding for any |L| <= 1; the channel scales
    coherences by L and leaves populations untouched.
    """
    lam = np.asarray(lambda_val)
    if not (lam.dtype.kind in "iuf" and (np.abs(lam) <= 1.0).all()):  # NaN fails too
        raise refuse("lambda_val", "kernel values in [-1, 1]", lambda_val)
    weights = np.sqrt(np.stack([1.0 + lam, 1.0 - lam], axis=-1) / 2.0)
    return weights[..., None, None] * np.array([np.eye(2), SIGMA_Z])


def dephasers(params: RTNParams, steps: Iterable[int]) -> np.ndarray:
    """Telegraph dephasing at time ``n * dt`` per step count, ``(S, 4, 4)``, ascending in n.

    The kernel's arguments, at most ``max(gamma, 2a) * n * dt``, must be finite.
    Each channel is ``diag(1, L, L, 1)`` on row-major ``vec(rho)``, with L the
    kernel value :func:`rtn_lambda` at that time: the map of :func:`rtn_kraus`'s
    pair, taken in closed form.  It is complete by construction, so it needs no
    gate, and it leaves populations untouched to the bit.
    """
    params, steps = _telegraph("params", params), step_list("steps", steps)
    # the span of the longest time bounds every shorter one
    _check_kernel_span(params, steps[-1] * params.dt,
                       "max(gamma, 2a) * n * dt of a, gamma, dt and steps")
    # the identity, with the coherences scaled by the kernel
    superops = np.tile(np.eye(4, dtype=np.complex128), (len(steps), 1, 1))
    superops[:, 1, 1] = superops[:, 2, 2] = rtn_lambda(params, np.array(steps) * params.dt)
    return superops


def composite_map(params: RTNParams, theta: float, n: int,
                  rho: np.ndarray) -> np.ndarray:
    """n-step walk channel followed by telegraph dephasing at time n * dt."""
    dephaser = dephasers(params, [count("n", n)])[0]
    return _apply(dephaser, n_step_map(theta, n, rho))


__all__ = [
    "RTNParams",
    "apply_kraus",
    "apply_superoperators",
    "channel_outputs",
    "closed_form_p",
    "closed_form_q",
    "coin_state",
    "coin_state_from_angle",
    "composite_map",
    "concatenated_map",
    "density_matrix",
    "dephasers",
    "hermitian_eigenvalues",
    "is_density_matrix",
    "n_step_map",
    "repeated",
    "rtn_kraus",
    "rtn_lambda",
    "superoperators",
]
