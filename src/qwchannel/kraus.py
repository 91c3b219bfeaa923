"""Extraction of the reduced-coin operator sets of the walk channel.

Tracing the joint coin-position state of a t-step walk over position leaves
a channel on the coin alone, ``rho -> sum_mu K_mu rho K_mu^dag`` with one
2x2 operator per reachable site.  Two independent extraction routes are
provided:

* :func:`iter_kraus_batches` walks the operators themselves, with no
  position lattice, by ``K_mu(n + 1) = C_up K_{mu-1}(n) + C_down
  K_{mu+1}(n)`` from ``K_0(0) = I``, for a batch of angles in lockstep,
  streaming the sets of every requested step count from a single walk.  It
  walks every label in float64, in the coin's real frame, in 64 (t + 1)
  bytes per angle; :func:`iter_kraus_steps` is its one-angle case and
  :func:`extract_kraus_direct` its one-angle, single-step case (ground
  truth).  :func:`walk_superoperators` takes the channels of the same walk
  straight from its float64 buffer, with no complex set,
* :func:`extract_kraus_binomial` applies the ordered binomial expansion of
  ``(P + Q)^t`` plus commutator correction terms to the two origin inputs
  on a guarded lattice, then gathers each site's block (validator).

Label convention: ``mu = +t`` tags the branch on which the upper coin block
acts at every step, so ``K_{+t} = C_up^t`` and ``K_{-t} = C_down^t``.
Because the walk shifts the upper component to the *left*, ``mu`` is the
negated lattice coordinate of the walker's site.  This keeps the sets
aligned with the closed-form first term
(:func:`kraus_closed_form_first_term`).  The coin satisfies ``J C J = C`` and
``J C_up J = C_down`` for ``J`` the Pauli X, so conjugating the recursion by
``J`` and inducting from ``K_0 = I`` gives the mirror
``K_{-mu} = J K_mu J = minor_map(K_mu)`` for every label, step and angle:
the parity symmetry of the symmetric coined walk.  The engine walks both
labels, so the mirror holds to rounding and is checked, not used.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from . import inputs
from .inputs import BOOLS, MAX_COUNT, count, real, step_list
from .walk import (
    Lattice,
    build_shifts,
    canonical_angle,
    coin_projections,
    coin_rotation,
)

# amplitude below which a wrong-parity site of a dense projection is empty
ZERO_SITE_TOL = 1e-14

# the identity as a row-major vec
_VEC_EYE = np.eye(2).reshape(4)

STANDARD = "standard"
SPLIT_STEP = "split_step"


class _Entries(Sequence):
    """A set's ``(mu, operator)`` pairs, each made when it is read: ``mu`` an
    int label and ``operator`` a read-only view into the set's array."""

    __slots__ = ("_labels", "_operators")

    def __init__(self, labels: range, operators: np.ndarray) -> None:
        self._labels, self._operators = labels, operators

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(zip(self._labels[index], self._operators[index]))
        return self._labels[index], self._operators[index]

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        return zip(self._labels, self._operators)


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Ordered reduced-coin operator set for a fixed angle and step count.

    The operators are held once, as one read-only complex128 array of shape
    ``(labels, 2, 2)`` in ascending label order, copied from what is given.
    The labels follow from ``kind`` and ``t``: a standard set of ``t`` steps
    has the ``t + 1`` labels ``-t, -t + 2, .., t``; a split-step set of ``t``
    split steps has the ``2t + 1`` labels ``-t..t``.  ``entries`` is given
    either as ``(mu, matrix)`` pairs, whose labels must be exactly those
    (a bool is none), or as the operator array alone, in label order; it is
    kept as a read-only sequence of ``(mu, row)`` pairs over the set's array,
    with ``mu`` an int, each pair made when it is read.  Sets compare and
    hash by identity.
    """

    theta: float
    t: int
    entries: Sequence = field(repr=False)
    kind: str = STANDARD

    def __post_init__(self) -> None:
        if self.kind not in (STANDARD, SPLIT_STEP):
            raise ValueError(f"unknown kraus set kind {self.kind!r}")
        object.__setattr__(self, "theta", real("theta", self.theta))
        object.__setattr__(self, "t", count("t", self.t))
        expected = self._label_range()
        operators = self.entries
        if not isinstance(operators, np.ndarray):
            labels = [mu for mu, _ in operators]
            if labels != list(expected) or any(isinstance(mu, BOOLS) for mu in labels):
                raise ValueError(f"{self.kind} set of {self.t} steps needs labels "
                                 f"{list(expected)}, got {labels}")
            operators = [matrix for _, matrix in operators]
        # a read-only copy of its own: no write through an operator or through
        # the caller's arrays can leave the cached channel stale.  A non-finite
        # set is kept as given and fails completeness when applied
        try:
            operators = np.array(operators, dtype=np.complex128, order="C")
        except ValueError:  # operators that do not stack
            operators = None
        if operators is None or operators.shape != (len(expected), 2, 2):
            raise ValueError(f"{self.kind} set of {self.t} steps needs "
                             f"{len(expected)} kraus operators, each 2x2")
        operators.flags.writeable = False
        object.__setattr__(self, "_operators", operators)
        object.__setattr__(self, "entries", _Entries(expected, operators))

    def _label_range(self) -> range:
        return range(-self.t, self.t + 1, 2 if self.kind == STANDARD else 1)

    def labels(self) -> list[int]:
        return list(self._label_range())

    def operators(self) -> list[np.ndarray]:
        return list(self._operators)

    def operator(self, mu: int) -> np.ndarray:
        labels = self._label_range()
        if isinstance(mu, BOOLS) or mu not in labels:
            raise KeyError(f"no operator with label {mu}")
        return self._operators[labels.index(mu)]

    def completeness_residual(self) -> float:
        """Max-entry deviation of sum K^dag K from I, read off :attr:`superoperator`."""
        return float(residual_of(self.superoperator))

    @cached_property
    def superoperator(self) -> np.ndarray:
        """The channel as a read-only 4x4 matrix acting on row-major ``vec(rho)``,
        built on first use: sets only built and serialized never pay for it."""
        superop = superoperator_of(self._operators)
        superop.flags.writeable = False
        return superop

    # -- serialization (complex entries as [re, im] pairs) -----------------

    def pair_array(self) -> np.ndarray:
        """Every operator as ``[re, im]`` pairs, shape ``(labels, 2, 2, 2)``:
        a read-only float64 view of the set's operators, not a copy."""
        return self._operators.view(np.float64).reshape(self._operators.shape + (2,))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "theta": self.theta,
            "t": self.t,
            "entries": [{"mu": mu, "matrix": matrix}
                        for mu, matrix in zip(self.labels(), self.pair_array().tolist())],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "KrausSet":
        entries = tuple((entry["mu"], matrix_from_pairs(entry["matrix"]))
                        for entry in payload["entries"])
        return cls(theta=payload["theta"], t=payload["t"], entries=entries,
                   kind=payload.get("kind", STANDARD))

    def to_json(self, indent: int | str | None = None) -> str:
        """``json.dumps(self.to_dict(), indent=indent)``, the same text.

        The encoder lays out the head, the separator and the tail around two
        placeholder entries, and one entry with a ``%s`` slot for its label and
        for each number of its matrix, whose line breaks take the indent that
        follows the separator's comma.  One C-encoder call spells all the
        labels, and one all the numbers, exactly as the encoder would.
        """
        head, separator, tail = json.dumps(
            {"kind": self.kind, "theta": self.theta, "t": self.t, "entries": ["%s"] * 2},
            indent=indent).split('"%s"')
        # the indent is laid out as text: a % in it is escaped, not a slot
        entry = json.dumps({"mu": "%s", "matrix": [[["%s"] * 2] * 2] * 2}, indent=indent)
        entry = entry.replace("\n", separator[1:]).replace("%", "%%").replace('"%%s"', "%s")
        labels = json.dumps(self.labels())[1:-1].split(", ")
        numbers = json.dumps(self.pair_array().ravel().tolist())[1:-1].split(", ")
        entries = map(entry.__mod__, zip(labels, *(numbers[k::8] for k in range(8))))
        return head + separator.join(entries) + tail

    @classmethod
    def from_json(cls, text: str) -> "KrausSet":
        return cls.from_dict(json.loads(text))


def matrix_from_pairs(rows) -> np.ndarray:
    """One ``matrix`` of :meth:`KrausSet.to_dict` back as a complex array."""
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

    Built from one Gram product per set: with the rows ``r_mu = vec(K_mu)``
    stacked as ``R`` of shape ``(m, 4)``, ``G = R^T conj(R)`` is the
    ``(4, m) @ (m, 4)`` product ``G[(i, j), (k, l)] = sum_mu K_mu[i, j]
    conj(K_mu[k, l])``, and ``S`` is ``G`` with its axes ``(i, j, k, l)``
    permuted to ``(i, k, j, l)``.  Leading axes of ``operators`` (before
    ``(label, 2, 2)``) are a batch of sets and give one 4x4 matrix each.  The
    general route, for any operators; the walk's channels are taken from its
    float64 buffer by :func:`walk_superoperators`.
    """
    ops = np.asarray(operators, dtype=np.complex128)
    batch = ops.shape[:-3]
    rows = ops.reshape(ops.shape[:-2] + (4,))
    gram = np.matmul(rows.swapaxes(-1, -2), rows.conj())
    return gram.reshape(batch + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(batch + (4, 4))


def minor_map(matrix: np.ndarray) -> np.ndarray:
    """Flip a 2x2 matrix across both axes: [[a,b],[c,d]] -> [[d,c],[b,a]].

    The involution ``M -> J M J`` with ``J`` the Pauli X.  It maps every
    operator of a standard set to the one at the opposite label,
    ``K_{-mu} = minor_map(K_mu)``, up to the rounding of the walk, which
    walks both labels.  Leading axes are a batch of matrices.
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
    return (KrausSet(theta=theta, t=t, entries=ops[0])
            for _, t, ops in iter_kraus_batches([theta], steps))


def iter_kraus_batches(thetas: Iterable[float], steps: Iterable[int]
                       ) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Stream the operator sets of many angles and step counts as arrays.

    Yields ``(angles, t, operators)``: ``operators[b, j]`` is the operator
    at label ``-t + 2j`` for the angle ``thetas[angles][b]``, a C-contiguous
    complex128 array of shape ``(B, t + 1, 2, 2)`` whose diagonal entries
    have imaginary parts +0.0 and whose off-diagonal entries have real parts
    +0.0.  The angles are walked in lockstep, in chunks of at most
    ``(MAX_COUNT + 1) // (largest t + 1)`` angles, so a chunk holds no more
    labels than one angle walked to ``t = MAX_COUNT``; each chunk yields its
    step counts in ascending order.  Angles and step counts are checked when
    this is called.
    """
    angles = [canonical_angle(theta) for theta in thetas]
    return ((chunk, t, _operators(rows))
            for chunk, t, rows in _walk_chunks(angles, step_list("steps", steps)))


def walk_superoperators(thetas: Iterable[float], steps: Iterable[int]) -> np.ndarray:
    """The channel of every angle and step count, shape ``(B, S, 4, 4)``.

    The same walk as :func:`iter_kraus_batches`, in the same chunks, but each
    set's channel is taken straight from the walk's float64 buffer: one
    ``(4, t + 1) @ (t + 1, 4)`` Gram product of its rows, mapped onto the
    complex 4x4 by :data:`_GRAM_TO_CHANNEL`, with no complex set and no complex
    product.  The step axis runs over the distinct step counts, ascending.
    Angles and step counts are checked; completeness is not.
    """
    angles = [canonical_angle(theta) for theta in thetas]
    steps = step_list("steps", steps)
    column = {t: k for k, t in enumerate(steps)}
    superops = np.empty((len(angles), len(steps), 4, 4), dtype=np.complex128)
    # each channel as the 32 float64 of its row-major complex entries
    floats = superops.view(np.float64).reshape(len(angles), len(steps), 32)
    for chunk, t, rows in _walk_chunks(angles, steps):
        gram = np.matmul(rows, rows.swapaxes(-1, -2)).reshape(-1, 16)
        np.matmul(gram, _GRAM_TO_CHANNEL, out=floats[chunk, column[t]])
    return superops


def _gram_to_channel() -> np.ndarray:
    """The ``(16, 32)`` map from a set's buffer Gram ``g`` to its channel's floats.

    A buffer row is ``x_mu = (K00.re, K10.im, K01.im, K11.re)``, so ``vec(K_mu)
    = Phi Pi x_mu`` with ``Phi = diag(1, i, i, 1)`` and ``Pi`` the swap of
    entries 1 and 2.  So :func:`superoperator_of`'s ``G[(i, j), (k, l)]`` is
    ``phase * g[Pi (i, j), Pi (k, l)]``, with ``phase = Phi_ij conj(Phi_kl)``
    one of 1, i and -i, and the channel is ``G`` with its axes permuted to
    ``(i, k, j, l)``.  Row ``4 p + q`` of the map puts ``g[p, q]`` times each
    such phase's real and imaginary part into the channel's floats.  Every
    entry is 0, 1 or -1 and each float takes one entry of ``g``, so the product
    moves each value exactly; a zero part sums ``0 * g[0, 0] = +0.0`` among its
    terms, and is +0.0.
    """
    phases, order = (1, 1j, 1j, 1), (0, 2, 1, 3)
    table = np.zeros((4, 4, 4, 4, 2))
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        phase = phases[2 * i + j] * phases[2 * k + l].conjugate()
        table[order[2 * i + j], order[2 * k + l], 2 * i + k, 2 * j + l] = (phase.real,
                                                                          phase.imag)
    return table.reshape(16, 32)


_GRAM_TO_CHANNEL = _gram_to_channel()


def _operators(rows: np.ndarray) -> np.ndarray:
    """The sets of buffer rows ``(B, 4, t + 1)`` as a zeroed C-contiguous complex128
    ``(B, t + 1, 2, 2)`` array, filled by four slice assignments: the real part
    on the diagonal, the imaginary part off it, so every zero part is +0.0."""
    parts = rows.swapaxes(-1, -2)
    operators = np.zeros(parts.shape[:-1] + (2, 2), dtype=np.complex128)
    operators.real[..., 0, 0] = parts[..., 0]
    operators.imag[..., 1, 0] = parts[..., 1]
    operators.imag[..., 0, 1] = parts[..., 2]
    operators.real[..., 1, 1] = parts[..., 3]
    return operators


def _walk_chunks(angles: list[float], wanted: list[int]
                 ) -> Iterator[tuple[slice, int, np.ndarray]]:
    # the budget reads this module's MAX_COUNT, which a test may shrink to force
    # chunks; the count checks keep the cap of qwchannel.inputs
    size = max(1, (MAX_COUNT + 1) // (wanted[-1] + 1))
    for start in range(0, len(angles), size):
        chunk = slice(start, min(start + size, len(angles)))
        for t, rows in _walk_sets(angles[chunk], wanted):
            yield chunk, t, rows


def _walk_sets(angles: list[float], wanted: list[int]) -> Iterator[tuple[int, np.ndarray]]:
    """Walk ``K_mu(n + 1) = C_up K_{mu-1}(n) + C_down K_{mu+1}(n)`` for B angles.

    The walk runs in the coin's real frame, ``K_mu = D R_mu D^-1`` with ``D =
    diag(1, i)`` and ``R_mu`` walked by the rotation ``A = D^-1 C D``
    (:func:`~qwchannel.walk.coin_rotation`), every label ``-n..n`` and no
    mirror.  Each input column of every angle is a batch item of one stacked
    float64 ``np.matmul`` per step: column 0 is walked with ``A`` and holds
    ``(K00.re, K10.im)``, column 1 with ``A^T`` and holds ``(K01.im,
    K11.re)``, exactly the nonzero parts of ``K`` with their signs.  The sets
    live in two ``(B, 2, 2, t + 1)`` buffers used in turn, 64 (t + 1) bytes
    per angle.  A yielded set is a read of the buffer, not a copy: the float64
    ``(B, 4, t + 1)`` view whose row ``x`` at label ``-t + 2i`` is ``rows[:, :,
    i] = (K00.re, K10.im, K01.im, K11.re)``, valid until the next set is walked.
    """
    rotations = np.array([coin_rotation(theta) for theta in angles])
    coins = np.stack([rotations, rotations.swapaxes(-1, -2)], axis=1)
    # buffers[p, b, k, j, i]: row j of stored column k at slot i, label -n + 2i
    # at step n; room for the t + 1 labels of the longest walk
    size = wanted[-1] + 1
    buffers = np.zeros((2, len(angles), 2, 2, size))
    # the product's rows land size - 1 apart: the upper row one label up, the
    # lower row in place.  The upper row's slot 0 and the lower row's slots
    # past the live labels, the structural zeros of K_{-n} and K_{+n}, are
    # never written and stay +0.0
    shifted = buffers.reshape(2, len(angles), 2, 2 * size)[..., 1:2 * size - 1].reshape(
        2, len(angles), 2, 2, size - 1)
    ops = np.eye(2)[:, :, None]  # K_0 = I: column k is e_k, for every angle
    done = 0
    for t in wanted:
        for n in range(done, t):
            # untiled: under a two-thread pool (numpy imported first) OpenBLAS
            # ran a float64 product of 100 001 columns on one thread, and tiles
            # of 8192 columns cost CPU time: 0.183 vs 0.173 s at t = 10^4, 1.10
            # vs 0.98 s at 2 * 10^4 (medians of 8, 2-vCPU x86-64)
            np.matmul(coins, ops[..., :n + 1], out=shifted[n % 2][..., :n + 1])
            ops = buffers[n % 2]
        done = t
        # the stored columns k and rows j merge into one axis of four rows 2k + j
        yield t, buffers[(t - 1) % 2].reshape(len(angles), 4, size)[..., :t + 1]


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
    t = count("t", t, low=0)
    dim = p.shape[0]
    p_pow = np.eye(dim, dtype=np.complex128)
    table = [np.zeros((dim, dim), dtype=np.complex128)]
    for _ in range(t):
        d_k = table[-1]
        d_next = (q @ p_pow - p_pow @ q) + p @ d_k + (q @ d_k - d_k @ q)
        table.append(d_next)
        p_pow = p_pow @ p
    return table


def extract_kraus_binomial(theta: float, t: int) -> KrausSet:
    """Extract the t-step set through the expanded joint operator.

    Applies ``sum_k C(t,k) (P^k + D_k) Q^{t-k}`` to the two origin inputs,
    ``Q^j`` as two columns, and projects them exactly like the direct route.
    Dense operator products grow fast, hence the step cap t <= 8.
    """
    t = count("t", t, high=8)
    theta = canonical_angle(theta)
    lattice = Lattice.for_steps(t)
    up, down = coin_projections(theta)
    s_left, s_right = build_shifts(lattice)
    p = np.kron(up, s_left)
    q = np.kron(down, s_right)

    origin, eye = lattice.origin_index, np.eye(2 * lattice.size, dtype=np.complex128)
    columns = [eye[:, [origin, lattice.size + origin]]]  # Q^j e_s at the origin, j = 0..t
    for _ in range(t):
        columns.append(q @ columns[-1])
    outputs, p_pow = 0, eye
    for k, d_k in enumerate(commutator_corrections(p, q, t)):
        outputs = outputs + comb(t, k) * ((p_pow + d_k) @ columns[t - k])
        p_pow = p_pow @ p

    # outputs[c, j, s]: the coin-c amplitude input e_s leaves on storage site
    # j; the block at label mu sits on site x = -mu, and the sites of the
    # wrong parity must be empty
    outputs = outputs.reshape(2, lattice.size, 2)
    wrong = np.arange(-t + 1, t, 2)  # the same set as sites x and as labels
    amplitude = np.abs(outputs[:, origin + wrong]).max(axis=(0, 2))
    loud = np.flatnonzero(amplitude >= ZERO_SITE_TOL)
    if loud.size:
        raise ValueError(f"site {wrong[loud[0]]} of wrong parity carries amplitude "
                         f"{amplitude[loud[0]]:.3e}; extraction is inconsistent")
    # the blocks in label order, from site x = t down to x = -t
    blocks = outputs[:, origin + np.arange(t, -t - 1, -2)].transpose(1, 0, 2)
    return KrausSet(theta=theta, t=t, entries=blocks)


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
    return KrausSet(theta=base.theta, t=n, entries=base._operators, kind=SPLIT_STEP)
