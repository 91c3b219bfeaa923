"""Coin-position walk engine on a finite cyclic lattice.

A single walk step rotates the two-level coin and then shifts the walker
conditionally: the upper coin component one site to the left, the lower one
site to the right.  The lattice is cyclic with an odd number of sites, sized
with a guard band (``L >= 2t + 3`` for a planned ``t``-step walk) so the
shifts stay exactly unitary while the walker never reaches the wrap-around
boundary.

Joint states are stored coin-major: a vector of length ``2L`` whose first
``L`` entries are the position amplitudes of coin ``|0>`` and whose last
``L`` entries belong to coin ``|1>``.  Position label ``x`` lives at storage
index ``origin_index + x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inputs import count, finite, real

TWO_PI = 2.0 * math.pi


def canonical_angle(theta: float) -> float:
    """Map a finite angle into [0, 2*pi)."""
    wrapped = real("theta", theta) % TWO_PI
    # float modulo can round a tiny negative up to the modulus itself
    if wrapped >= TWO_PI:
        wrapped = 0.0
    return wrapped


@dataclass(frozen=True)
class Lattice:
    """Cyclic position register with an odd number of sites.

    ``size`` is the site count L; position labels run over
    ``-(L-1)/2 .. (L-1)/2`` with ``x = 0`` at ``origin_index``.
    """

    size: int

    def __post_init__(self) -> None:
        if self.size < 3:
            raise ValueError(f"lattice needs at least 3 sites, got {self.size}")
        if self.size % 2 == 0:
            raise ValueError(f"lattice size must be odd, got {self.size}")

    @property
    def origin_index(self) -> int:
        return (self.size - 1) // 2

    @property
    def max_steps(self) -> int:
        """Largest step count for which the guard band L >= 2t + 3 holds."""
        return (self.size - 3) // 2

    @classmethod
    def for_steps(cls, t: int) -> "Lattice":
        """Smallest lattice whose guard band covers a t-step walk."""
        return cls(2 * count("t", t, low=0) + 3)

    def index_of(self, x: int) -> int:
        j = self.origin_index + x
        if not 0 <= j < self.size:
            raise ValueError(f"position label {x} outside lattice of size {self.size}")
        return j

    def label_of(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise ValueError(f"storage index {index} outside lattice of size {self.size}")
        return index - self.origin_index


def build_coin(theta: float) -> np.ndarray:
    """2x2 coin rotation [[cos t, -i sin t], [-i sin t, cos t]]."""
    th = canonical_angle(theta)
    c, s = math.cos(th), math.sin(th)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def coin_projections(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Coin blocks (|0><0| C, |1><1| C) gating the left and right shifts."""
    coin = build_coin(theta)
    up = np.zeros_like(coin)
    down = np.zeros_like(coin)
    up[0] = coin[0]
    down[1] = coin[1]
    return up, down


def build_shifts(lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic shift permutation matrices (S_L, S_R).

    ``S_L |x> = |x-1>`` and ``S_R |x> = |x+1>`` (mod L); they are exact
    inverses of each other.
    """
    n = lattice.size
    idx = np.arange(n)
    s_left = np.zeros((n, n), dtype=np.complex128)
    s_right = np.zeros((n, n), dtype=np.complex128)
    s_left[(idx - 1) % n, idx] = 1.0
    s_right[(idx + 1) % n, idx] = 1.0
    return s_left, s_right


def build_walk_unitary(theta: float, lattice: Lattice) -> np.ndarray:
    """Dense one-step walk unitary W = C_up x S_L + C_down x S_R (2L x 2L)."""
    up, down = coin_projections(theta)
    s_left, s_right = build_shifts(lattice)
    return np.kron(up, s_left) + np.kron(down, s_right)


def build_split_step_unitary(theta: float, lattice: Lattice) -> np.ndarray:
    """One split step, defined as two chained standard steps W @ W."""
    w = build_walk_unitary(theta, lattice)
    return w @ w


def joint_state(lattice: Lattice, coin_amplitudes, x: int = 0) -> np.ndarray:
    """Product state (coin amplitudes) x |x> as a coin-major 2L vector."""
    amps = finite("coin_amplitudes", coin_amplitudes).reshape(2)
    psi = np.zeros((2, lattice.size), dtype=np.complex128)
    psi[:, lattice.index_of(x)] = amps
    return psi.reshape(-1)


def _lattice_of(psi: np.ndarray) -> Lattice:
    n = psi.shape[0]
    if n % 2 != 0:
        raise ValueError(f"joint state length must be 2L, got {n}")
    return Lattice(n // 2)


def evolve(psi0: np.ndarray, theta: float, t: int) -> np.ndarray:
    """Apply ``t`` walk steps to a normalized joint state.

    The unitary is applied step by step (coin rotation on the (2, L) block,
    then the upper component rolls one site left and the lower one right);
    the dense 2L x 2L power is never formed.
    Requires the guard band ``L >= 2t + 3`` so no amplitude can wrap.
    """
    t = count("t", t, low=0)
    psi0 = finite("psi0", psi0)
    lattice = _lattice_of(psi0)
    if t > lattice.max_steps:
        raise ValueError(
            f"lattice of size {lattice.size} supports at most "
            f"{lattice.max_steps} wrap-free steps, requested {t}"
        )
    psi = np.array(psi0, dtype=np.complex128).reshape(2, lattice.size)
    coin = build_coin(theta)
    for _ in range(t):
        psi[:] = coin @ psi
        psi[0] = np.roll(psi[0], -1)
        psi[1] = np.roll(psi[1], +1)
    return psi.reshape(-1)


def position_distribution(psi: np.ndarray) -> dict[int, float]:
    """Position probabilities of a joint state, keyed by lattice label.

    Sites carrying exactly zero probability are omitted, so the support of
    a t-step walk from the origin is contained in {-t..t} with the parity
    of t.
    """
    psi = finite("psi", psi)
    lattice = _lattice_of(psi)
    block = psi.reshape(2, lattice.size)
    probs = np.abs(block[0]) ** 2 + np.abs(block[1]) ** 2
    return {
        lattice.label_of(j): float(p)
        for j, p in enumerate(probs)
        if p > 0.0
    }
