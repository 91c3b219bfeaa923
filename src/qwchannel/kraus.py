"""Extraction of the reduced-coin operator sets of the walk channel.

Tracing the joint coin-position state of a t-step walk over position leaves
a channel on the coin alone, ``rho -> sum_mu K_mu rho K_mu^dag`` with one
2x2 operator per reachable site.  Two independent extraction routes are
provided:

* :func:`iter_kraus_batches` walks the operators themselves, in 128 (t + 1)
  bytes per angle and with no position lattice, by ``K_mu(n + 1) = C_up
  K_{mu-1}(n) + C_down K_{mu+1}(n)`` from ``K_0(0) = I``, for a batch of
  angles in lockstep, streaming the sets of every requested step count from
  a single walk; :func:`iter_kraus_steps` is its one-angle case and
  :func:`extract_kraus_direct` its one-angle, single-step case (ground
  truth),
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

from . import inputs
from .inputs import MAX_COUNT, count, real, step_list
from .walk import (
    Lattice,
    build_coin,
    build_shifts,
    canonical_angle,
    coin_projections,
)

# amplitude below which a wrong-parity site of a dense projection is empty
ZERO_SITE_TOL = 1e-14

# the identity as a row-major vec
_VEC_EYE = np.eye(2).reshape(4)

STANDARD = "standard"
SPLIT_STEP = "split_step"

# one entry of the indent=2 dump, laid out by the indenting encoder itself, with
# a %s slot for its label and for each number of its matrix's [re, im] pairs
_ENTRY_JSON = "    " + json.dumps(
    {"mu": "%s", "matrix": [[["%s"] * 2] * 2] * 2}, indent=2,
).replace('"%s"', "%s").replace("\n", "\n    ")


class _ReadOnly(tuple):
    """``(mu, matrix)`` pairs whose matrices are rows of one read-only array
    made in this module, which a set keeps without copying."""


def _entries(labels, operators: np.ndarray) -> _ReadOnly:
    """Pair ``labels`` with the rows of ``operators``, freezing that array."""
    operators.flags.writeable = False
    return _ReadOnly(zip(labels, operators))


@dataclass(frozen=True)
class KrausSet:
    """Ordered reduced-coin operator set for a fixed angle and step count.

    ``entries`` is a tuple of ``(mu, matrix)`` pairs sorted by ascending
    label.  A standard set of ``t`` steps has ``t + 1`` labels in
    ``{-t..t}`` sharing the parity of ``t``; a split-step set of ``t``
    split steps has ``2t + 1`` labels covering every integer in ``{-t..t}``.
    The operators are a read-only copy of the ones given.
    """

    theta: float
    t: int
    entries: tuple = field(repr=False)
    kind: str = STANDARD

    def __post_init__(self) -> None:
        if self.kind not in (STANDARD, SPLIT_STEP):
            raise ValueError(f"unknown kraus set kind {self.kind!r}")
        object.__setattr__(self, "theta", real("theta", self.theta))
        object.__setattr__(self, "t", count("t", self.t))
        labels = [mu for mu, _ in self.entries]
        if self.kind == STANDARD:
            expected = list(range(-self.t, self.t + 1, 2))
        else:
            expected = list(range(-self.t, self.t + 1))
        if labels != expected:
            raise ValueError(
                f"{self.kind} set of {self.t} steps needs labels {expected}, got {labels}"
            )
        if isinstance(self.entries, _ReadOnly):
            return
        # a read-only copy of its own: no write through an operator or through
        # the caller's arrays can leave the cached channel stale.  A non-finite
        # set is kept as given and fails completeness when applied
        try:
            operators = np.array([matrix for _, matrix in self.entries], dtype=np.complex128)
        except ValueError:  # operators that do not stack
            operators = None
        if operators is None or operators.shape[1:] != (2, 2):
            raise ValueError("kraus operators must be 2x2 matrices")
        object.__setattr__(self, "entries", _entries(labels, operators))

    def labels(self) -> list[int]:
        return [mu for mu, _ in self.entries]

    def operators(self) -> list[np.ndarray]:
        return [matrix for _, matrix in self.entries]

    def operator(self, mu: int) -> np.ndarray:
        for label, matrix in self.entries:
            if label == mu:
                return matrix
        raise KeyError(f"no operator with label {mu}")

    def completeness_residual(self) -> float:
        """Max-entry deviation of sum K^dag K from I, read off :attr:`superoperator`."""
        return float(residual_of(self.superoperator))

    @cached_property
    def superoperator(self) -> np.ndarray:
        """The channel as a read-only 4x4 matrix acting on row-major ``vec(rho)``,
        built on first use: sets only built and serialized never pay for it."""
        superop = superoperator_of(self.operators())
        superop.flags.writeable = False
        return superop

    # -- serialization (complex entries as [re, im] pairs) -----------------

    def pair_array(self) -> np.ndarray:
        """Every operator as ``[re, im]`` pairs, shape ``(labels, 2, 2, 2)``."""
        ops = np.asarray(self.operators(), dtype=np.complex128)
        return np.stack((ops.real, ops.imag), -1)

    def pairs(self) -> list:
        """Every operator as nested ``[re, im]`` lists, in label order."""
        return self.pair_array().tolist()

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
        entries = tuple((entry["mu"], matrix_from_pairs(entry["matrix"]))
                        for entry in payload["entries"])
        return cls(theta=payload["theta"], t=payload["t"], entries=entries,
                   kind=payload.get("kind", STANDARD))

    def to_json(self, indent: int | None = None) -> str:
        """``json.dumps(self.to_dict(), indent=indent)``, the same text.

        ``indent=2`` fills a fixed per-entry template instead of running the
        pure-Python indenting encoder: one C-encoder call spells all the
        labels, and one all the numbers, exactly as the encoder would.
        """
        if indent != 2:
            return json.dumps(self.to_dict(), indent=indent)
        labels = json.dumps(self.labels())[1:-1].split(", ")
        numbers = json.dumps(self.pair_array().ravel().tolist())[1:-1].split(", ")
        entries = map(_ENTRY_JSON.__mod__, zip(labels, *(numbers[k::8] for k in range(8))))
        head = json.dumps({"kind": self.kind, "theta": self.theta, "t": self.t}, indent=2)
        return head[:-2] + ',\n  "entries": [\n' + ",\n".join(entries) + "\n  ]\n}"

    @classmethod
    def from_json(cls, text: str) -> "KrausSet":
        return cls.from_dict(json.loads(text))


def matrix_from_pairs(rows) -> np.ndarray:
    """One matrix of :meth:`KrausSet.pairs` back as a complex array."""
    return np.array([[complex(re, im) for re, im in row] for row in rows],
                    dtype=np.complex128)


def residual_of(superops):
    """Max-entry deviation from I of the partial trace ``sum_i S[(i, i), (j, l)]``.

    For ``S = superoperator_of(K)`` that trace is ``(sum K^dag K)[l, j]``, read in
    O(1) per set.  Leading axes before ``(4, 4)`` are a batch of channels.
    """
    superops = np.asarray(superops)
    # rows (i, i) of S are rows 0 and 3; their sum is the trace, row-major in (j, l)
    return np.abs(superops[..., 0, :] + superops[..., 3, :] - _VEC_EYE).max(axis=-1)


def superoperator_of(operators) -> np.ndarray:
    """``sum_mu K_mu (x) conj(K_mu)``, so ``vec(out) = S @ vec(rho)`` row-major.

    Leading axes of ``operators`` (before ``(label, 2, 2)``) are a batch of
    sets and give one 4x4 matrix each.
    """
    ops = np.asarray(operators, dtype=np.complex128)
    superop = np.einsum("...mij,...mkl->...ikjl", ops, ops.conj())
    return superop.reshape(ops.shape[:-3] + (4, 4))


def minor_map(matrix: np.ndarray) -> np.ndarray:
    """Flip a 2x2 matrix across both axes: [[a,b],[c,d]] -> [[d,c],[b,a]].

    An involution relating the two extreme operators of every extracted set.
    Leading axes are a batch of matrices.
    """
    m = np.asarray(matrix)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"minor_map expects 2x2 matrices, got shape {m.shape}")
    return m[..., ::-1, ::-1].copy()


def iter_kraus_steps(theta: float, steps: Iterable[int]) -> Iterator[KrausSet]:
    """Stream the operator sets of several step counts from one walk.

    Each requested count yields a :class:`KrausSet`, ascending, one per
    distinct count, so a series of length n costs O(n^2) operator updates
    and the memory of one set.  It is the one-angle case of
    :func:`iter_kraus_batches`.  The step counts are checked when this is
    called, not on first iteration.
    """
    theta = canonical_angle(theta)
    return (KrausSet(theta=theta, t=t, entries=_entries(range(-t, t + 1, 2), ops[0]))
            for _, t, ops in iter_kraus_batches([theta], steps))


def iter_kraus_batches(thetas: Iterable[float], steps: Iterable[int]
                       ) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Stream the operator sets of many angles and step counts as arrays.

    Yields ``(angles, t, operators)``: ``operators[b, j]`` is the operator
    at label ``-t + 2j`` for the angle ``thetas[angles][b]``, an array of
    shape ``(B, t + 1, 2, 2)``.  The angles are walked in lockstep, in
    chunks of at most ``(MAX_COUNT + 1) // (t_max + 1)`` angles, so a chunk
    holds no more labels than one angle walked to ``t = MAX_COUNT``; each
    chunk yields its step counts in ascending order.  Angles and step counts
    are checked when this is called.
    """
    angles = [canonical_angle(theta) for theta in thetas]
    return _walk_chunks(angles, step_list("steps", steps))


def _walk_chunks(angles: list[float], wanted: list[int]
                 ) -> Iterator[tuple[slice, int, np.ndarray]]:
    # the budget reads this module's MAX_COUNT, which a test may shrink to force
    # chunks; the count checks keep the cap of qwchannel.inputs
    size = max(1, (MAX_COUNT + 1) // (wanted[-1] + 1))
    for start in range(0, len(angles), size):
        chunk = slice(start, min(start + size, len(angles)))
        for t, ops in _walk_sets(angles[chunk], wanted):
            yield chunk, t, ops


def _walk_sets(angles: list[float], wanted: list[int]) -> Iterator[tuple[int, np.ndarray]]:
    """Walk ``K_mu(n + 1) = C_up K_{mu-1}(n) + C_down K_{mu+1}(n)`` for B angles.

    The sets live in two ``(B, 2, 2t + 2)`` buffers used in turn, 128 B (t + 1)
    bytes in all.  Each step is one stacked ``(B, 2, 2)`` coin product that
    writes the next set straight into the other buffer, already shifted.
    """
    coins = np.array([build_coin(theta) for theta in angles])
    size = 2 * wanted[-1] + 2
    buffers = np.zeros((2, len(angles), 2 * size), dtype=np.complex128)
    # sets[b, :, c, 2j + s] is entry (c, s) of the operator at label -n + 2j
    sets = buffers.reshape(2, len(angles), 2, size)
    # the product's upper row lands two columns on (label mu + 1) and its
    # lower row in place (label mu - 1): rows size - 2 apart, two columns in.
    # The two columns skipped, and the lower row beyond each product, stay zero.
    shifted = buffers[:, :, 2:2 * size - 2].reshape(2, len(angles), 2, size - 2)
    ops = np.broadcast_to(np.eye(2, dtype=np.complex128), (len(angles), 2, 2))
    done = 0
    for t in wanted:
        for n in range(done, t):
            width = 2 * n + 2
            np.matmul(coins, ops[..., :width], out=shifted[n % 2, ..., :width])
            ops = sets[n % 2]
        done = t
        yield t, ops[..., :2 * t + 2].reshape(-1, 2, t + 1, 2).transpose(0, 2, 1, 3).copy()


def extract_kraus_direct(theta: float, t: int) -> KrausSet:
    """Extract the t-step operator set by walking the operators.

    Column ``s`` of ``K_mu`` is the coin amplitude that basis input ``e_s``
    leaves on site ``-mu`` after ``t`` steps from the origin.  This is the
    ground-truth route: completeness follows from unitarity plus the full
    position trace.  It is the single-step case of :func:`iter_kraus_steps`.
    """
    return next(iter_kraus_steps(theta, (count("t", t),)))


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
    t = count("t", t, high=t_max)
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
    return KrausSet(theta=theta, t=t, entries=_entries(labels.tolist(), blocks))


def kraus_closed_form_first_term(theta: float, t: int, mu: int) -> np.ndarray:
    """Ordered-product term C(t,(t-mu)/2) C_up^{(t+mu)/2} C_down^{(t-mu)/2}.

    This is only the first-sum contribution to ``K_mu``.  It equals the full
    operator where no commutator correction can land: every label at t = 1,
    and the extreme labels ``mu = +-t`` for any t.
    """
    t = count("t", t)
    mu = count("mu", mu, low=-t, high=t)
    if (mu - t) % 2 != 0:
        raise ValueError(f"label {mu} invalid for {t} steps (parity)")
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
    base = extract_kraus_direct(theta, 2 * count("n", n, high=inputs.MAX_COUNT // 2))
    entries = _ReadOnly((mu // 2, matrix) for mu, matrix in base.entries)
    return KrausSet(theta=base.theta, t=n, entries=entries, kind=SPLIT_STEP)
