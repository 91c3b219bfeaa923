"""Extraction of the reduced-coin operator sets of the walk channel.

Tracing the joint coin-position state of a t-step walk over position leaves
a channel on the coin alone, ``rho -> sum_mu K_mu rho K_mu^dag`` with one
2x2 operator per reachable site.  Two independent extraction routes are
provided:

* :func:`iter_kraus_steps` walks the operators themselves, in 128 (t + 1)
  bytes and with no position lattice, by ``K_mu(n + 1) = C_up K_{mu-1}(n)
  + C_down K_{mu+1}(n)`` from ``K_0(0) = I``, streaming one set per
  requested step count from a single walk; :func:`extract_kraus_direct` is
  its single-step case (ground truth),
* :func:`extract_kraus_binomial` rebuilds the t-step joint operator on a
  guarded lattice from the ordered binomial expansion of ``(P + Q)^t`` plus
  commutator correction terms, then gathers each site's block (validator).

Label convention: ``mu = +t`` tags the branch on which the upper coin block
acts at every step, so ``K_{+t} = C_up^t`` and ``K_{-t} = C_down^t``.
Because the walk shifts the upper component to the *left*, ``mu`` is the
negated lattice coordinate of the walker's site.  This keeps the sets
aligned with the closed-form first term
(:func:`kraus_closed_form_first_term`) and gives the mirror symmetry
``K_{-mu} = minor_map(K_{+mu})``.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .walk import (
    Lattice,
    build_coin,
    build_shifts,
    canonical_angle,
    coin_projections,
)

# amplitude below which a wrong-parity site of a dense projection is empty
ZERO_SITE_TOL = 1e-14

STANDARD = "standard"
SPLIT_STEP = "split_step"


@dataclass(frozen=True)
class KrausSet:
    """Ordered reduced-coin operator set for a fixed angle and step count.

    ``entries`` is a tuple of ``(mu, matrix)`` pairs sorted by ascending
    label.  A standard set of ``t`` steps has ``t + 1`` labels in
    ``{-t..t}`` sharing the parity of ``t``; a split-step set of ``t``
    split steps has ``2t + 1`` labels covering every integer in ``{-t..t}``.
    """

    theta: float
    t: int
    entries: tuple = field(repr=False)
    kind: str = STANDARD

    def __post_init__(self) -> None:
        if self.kind not in (STANDARD, SPLIT_STEP):
            raise ValueError(f"unknown kraus set kind {self.kind!r}")
        if self.t < 1:
            raise ValueError(f"step count must be >= 1, got {self.t}")
        labels = [mu for mu, _ in self.entries]
        if labels != sorted(labels):
            raise ValueError("entries must be sorted by ascending label")
        if self.kind == STANDARD:
            expected = list(range(-self.t, self.t + 1, 2))
        else:
            expected = list(range(-self.t, self.t + 1))
        if labels != expected:
            raise ValueError(
                f"{self.kind} set of {self.t} steps needs labels {expected}, got {labels}"
            )
        for _, matrix in self.entries:
            if np.asarray(matrix).shape != (2, 2):
                raise ValueError("kraus operators must be 2x2 matrices")

    def labels(self) -> list[int]:
        return [mu for mu, _ in self.entries]

    def operators(self) -> list[np.ndarray]:
        return [matrix for _, matrix in self.entries]

    def operator(self, mu: int) -> np.ndarray:
        for label, matrix in self.entries:
            if label == mu:
                return matrix
        raise KeyError(f"no operator with label {mu}")

    # The two derived values below are computed on first use and then kept:
    # sets that are only built and serialized never pay for them.

    def completeness_residual(self) -> float:
        """Max-entry deviation of sum K^dag K from the identity."""
        return self._residual

    @cached_property
    def _residual(self) -> float:
        return residual_of(self.operators())

    @cached_property
    def superoperator(self) -> np.ndarray:
        """The channel as a 4x4 matrix acting on row-major ``vec(rho)``."""
        return superoperator_of(self.operators())

    # -- serialization (complex entries as [re, im] pairs) -----------------

    def pairs(self) -> list:
        """Every operator as nested ``[re, im]`` lists, in label order."""
        ops = np.asarray(self.operators(), dtype=np.complex128)
        return np.stack((ops.real, ops.imag), -1).tolist()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "theta": self.theta,
            "t": self.t,
            "entries": [{"mu": mu, "matrix": matrix}
                        for mu, matrix in zip(self.labels(), self.pairs())],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "KrausSet":
        entries = tuple((int(entry["mu"]), matrix_from_pairs(entry["matrix"]))
                        for entry in payload["entries"])
        return cls(
            theta=float(payload["theta"]),
            t=int(payload["t"]),
            entries=entries,
            kind=payload.get("kind", STANDARD),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "KrausSet":
        return cls.from_dict(json.loads(text))


def matrix_from_pairs(rows) -> np.ndarray:
    """One matrix of :meth:`KrausSet.pairs` back as a complex array."""
    return np.array([[complex(re, im) for re, im in row] for row in rows],
                    dtype=np.complex128)


def residual_of(operators) -> float:
    """Max-entry deviation of ``sum K^dag K`` from the identity."""
    ops = np.asarray(operators, dtype=np.complex128).reshape(-1, 2, 2)
    gram = np.einsum("mji,mjk->ik", ops.conj(), ops)
    return float(np.abs(gram - np.eye(2)).max())


def superoperator_of(operators) -> np.ndarray:
    """``sum_mu K_mu (x) conj(K_mu)``, so ``vec(out) = S @ vec(rho)`` row-major."""
    ops = np.asarray(operators, dtype=np.complex128).reshape(-1, 2, 2)
    return np.einsum("mij,mkl->ikjl", ops, ops.conj()).reshape(4, 4)


def minor_map(matrix: np.ndarray) -> np.ndarray:
    """Flip a 2x2 matrix across both axes: [[a,b],[c,d]] -> [[d,c],[b,a]].

    An involution relating the two extreme operators of every extracted set.
    """
    m = np.asarray(matrix)
    if m.shape != (2, 2):
        raise ValueError(f"minor_map expects a 2x2 matrix, got shape {m.shape}")
    return m[::-1, ::-1].copy()


def iter_kraus_steps(theta: float, steps: Iterable[int]) -> Iterator[KrausSet]:
    """Stream the operator sets of several step counts from one walk.

    The operators themselves are walked, with no position lattice:
    ``K_mu(n + 1) = C_up K_{mu-1}(n) + C_down K_{mu+1}(n)`` from
    ``K_0(0) = I``, one 2x2 coin product per step on two ``(2, 2t + 2)``
    buffers (128 (t + 1) bytes for the largest count t).  Each requested
    count yields a copy as a :class:`KrausSet`, ascending, one per distinct
    count, so a series of length n costs O(n^2) operator updates and the
    memory of one set.  The step counts are checked when this is called,
    not on first iteration.
    """
    wanted = sorted({int(t) for t in steps})
    if not wanted:
        raise ValueError("at least one step count is required")
    if wanted[0] < 1:
        raise ValueError(f"step count must be >= 1, got {wanted[0]}")
    return _walk_sets(canonical_angle(theta), wanted)


def _walk_sets(theta: float, wanted: list[int]) -> Iterator[KrausSet]:
    coin = build_coin(theta)
    # after n steps, ops[c, 2j + s] is entry (c, s) of the operator at label -n + 2j
    ops = np.zeros((2, 2 * wanted[-1] + 2), dtype=np.complex128)
    ops[:, :2] = np.eye(2)
    rotated = np.empty_like(ops)
    done = 0
    for t in wanted:
        for n in range(done, t):
            width = 2 * n + 2
            np.matmul(coin, ops[:, :width], out=rotated[:, :width])
            # the upper row moves to label mu + 1 (two columns on), the lower to mu - 1
            ops[0, 2:width + 2] = rotated[0, :width]
            ops[0, :2] = 0.0
            ops[1, :width] = rotated[1, :width]
        done = t
        blocks = ops[:, :2 * t + 2].reshape(2, t + 1, 2).transpose(1, 0, 2).copy()
        yield KrausSet(theta=theta, t=t, entries=tuple(zip(range(-t, t + 1, 2), blocks)))


def extract_kraus_direct(theta: float, t: int) -> KrausSet:
    """Extract the t-step operator set by walking the operators.

    Column ``s`` of ``K_mu`` is the coin amplitude that basis input ``e_s``
    leaves on site ``-mu`` after ``t`` steps from the origin.  This is the
    ground-truth route: completeness follows from unitarity plus the full
    position trace.  It is the single-step case of :func:`iter_kraus_steps`.
    """
    return next(iter_kraus_steps(theta, (t,)))


def commutator_corrections(p: np.ndarray, q: np.ndarray, t: int) -> list[np.ndarray]:
    """Correction operators D_0..D_t for the ordered binomial expansion.

    ``D_0 = 0`` and ``D_{k+1} = [Q, P^k] + P D_k + [Q, D_k]``; in particular
    ``D_1 = 0`` because ``[Q, P^0]`` vanishes.  These restore the terms the
    ordered products ``P^k Q^{t-k}`` miss when P and Q do not commute.
    """
    dim = p.shape[0]
    p_pow = np.eye(dim, dtype=np.complex128)
    table = [np.zeros((dim, dim), dtype=np.complex128)]
    for _ in range(t):
        d_k = table[-1]
        d_next = (q @ p_pow - p_pow @ q) + p @ d_k + (q @ d_k - d_k @ q)
        table.append(d_next)
        p_pow = p_pow @ p
    return table


def extract_kraus_binomial(theta: float, t: int, t_max: int = 8) -> KrausSet:
    """Extract the t-step set through the expanded joint operator.

    Builds ``sum_k C(t,k) P^k Q^{t-k} + sum_k C(t,k) D_k Q^{t-k}`` as a
    dense joint-space matrix and projects it exactly like the direct route.
    Dense operator products grow fast, hence the step cap.
    """
    t = int(t)
    if t < 1:
        raise ValueError(f"step count must be >= 1, got {t}")
    if t > t_max:
        raise ValueError(f"binomial extraction capped at {t_max} steps, got {t}")
    theta = canonical_angle(theta)
    lattice = Lattice.for_steps(t)
    up, down = coin_projections(theta)
    s_left, s_right = build_shifts(lattice)
    p = np.kron(up, s_left)
    q = np.kron(down, s_right)

    dim = 2 * lattice.size
    p_pow = [np.eye(dim, dtype=np.complex128)]
    q_pow = [np.eye(dim, dtype=np.complex128)]
    for _ in range(t):
        p_pow.append(p_pow[-1] @ p)
        q_pow.append(q_pow[-1] @ q)
    corrections = commutator_corrections(p, q, t)

    joint = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(t + 1):
        weight = comb(t, k)
        joint += weight * (p_pow[k] @ q_pow[t - k])
        joint += weight * (corrections[k] @ q_pow[t - k])

    # outputs[c, j, s]: the coin-c amplitude input e_s leaves on storage site
    # j; the block at label mu sits on site x = -mu, and the sites of the
    # wrong parity must be empty
    origin = lattice.origin_index
    outputs = joint[:, [origin, lattice.size + origin]].reshape(2, lattice.size, 2)
    wrong = np.arange(-t + 1, t, 2)  # the same set as sites x and as labels
    if wrong.size:
        amplitude = np.abs(outputs[:, origin + wrong]).max(axis=(0, 2))
        loud = np.flatnonzero(amplitude >= ZERO_SITE_TOL)
        if loud.size:
            raise ValueError(
                f"site {wrong[loud[0]]} of wrong parity carries amplitude "
                f"{amplitude[loud[0]]:.3e}; extraction is inconsistent"
            )
    labels = np.arange(-t, t + 1, 2)
    blocks = outputs[:, origin - labels].transpose(1, 0, 2).copy()
    return KrausSet(theta=theta, t=t, entries=tuple(zip(labels.tolist(), blocks)))


def kraus_closed_form_first_term(theta: float, t: int, mu: int) -> np.ndarray:
    """Ordered-product term C(t,(t-mu)/2) C_up^{(t+mu)/2} C_down^{(t-mu)/2}.

    This is only the first-sum contribution to ``K_mu``.  It equals the full
    operator where no commutator correction can land: every label at t = 1,
    and the extreme labels ``mu = +-t`` for any t.
    """
    t = int(t)
    mu = int(mu)
    if t < 1:
        raise ValueError(f"step count must be >= 1, got {t}")
    if abs(mu) > t or (mu - t) % 2 != 0:
        raise ValueError(f"label {mu} invalid for {t} steps (parity/range)")
    up, down = coin_projections(theta)
    k_up = (t + mu) // 2
    k_down = (t - mu) // 2
    term = np.linalg.matrix_power(up, k_up) @ np.linalg.matrix_power(down, k_down)
    return comb(t, k_down) * term


def extract_kraus_split_step(theta: float, n: int) -> KrausSet:
    """Operator set of ``n`` split steps (one split step = two standard steps).

    The underlying ``2n``-step standard set is extracted directly and its
    labels are compressed onto ``{-n..n}`` in ascending order, one per site,
    covering both parities.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"split-step count must be >= 1, got {n}")
    base = extract_kraus_direct(theta, 2 * n)
    entries = tuple((mu // 2, matrix) for mu, matrix in base.entries)
    return KrausSet(theta=base.theta, t=n, entries=entries, kind=SPLIT_STEP)
