"""Reference model of the coined walk, written apart from ``qwchannel``.

This module uses numpy only and never imports the package it checks.  It
builds its own coin and slice-based shifts, walks whole batches of joint
coin-position states one step at a time, snapshots each step, and traces
over position: the standard reduced-coin analysis of Brun, Carteret and
Ambainis, "Quantum random walks with decoherence in discrete time",
PRA 67, 032304 (2003).

Conventions match the package's documented ones: ``|0>`` is the upper coin
state, the coin is ``[[cos t, -i sin t], [-i sin t, cos t]]``, the upper
component moves one site to the left per step, and the operator label
``mu`` is the negated lattice coordinate.
"""

from __future__ import annotations

import math

import numpy as np


def coin(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def coin_blocks(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """(C_up, C_down): the coin rows that feed the left and right shifts."""
    full = coin(theta)
    up = np.zeros((2, 2), dtype=np.complex128)
    down = np.zeros((2, 2), dtype=np.complex128)
    up[0] = full[0]
    down[1] = full[1]
    return up, down


def walk(thetas, kets, t_max: int, keep=None):
    """Walk every (theta, ket) pair from the origin for ``t_max`` steps.

    ``kets`` has shape (n_kets, 2).  Returns ``{t: psi_t}`` for each step
    in ``keep`` (default: every step 0..t_max), where ``psi_t`` has shape
    (n_theta, n_kets, 2, 2 * t_max + 1) and site index ``t_max + x`` holds
    lattice position ``x``.  The lattice is just wide enough that nothing
    reaches its edge, so the slice shifts lose no amplitude.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    kets = np.asarray(kets, dtype=np.complex128).reshape(-1, 2)
    width = 2 * t_max + 1
    keep = set(range(t_max + 1)) if keep is None else set(keep)
    psi = np.zeros((thetas.size, kets.shape[0], 2, width), dtype=np.complex128)
    psi[:, :, :, t_max] = kets[None, :, :]
    c = np.cos(thetas)[:, None, None]
    s = np.sin(thetas)[:, None, None]
    snaps = {0: psi.copy()} if 0 in keep else {}
    for step in range(1, t_max + 1):
        upper = c * psi[:, :, 0] - 1j * s * psi[:, :, 1]
        lower = -1j * s * psi[:, :, 0] + c * psi[:, :, 1]
        psi = np.zeros_like(psi)
        psi[:, :, 0, :-1] = upper[:, :, 1:]
        psi[:, :, 1, 1:] = lower[:, :, :-1]
        if step in keep:
            snaps[step] = psi.copy()
    return snaps


def reduced(psi: np.ndarray) -> np.ndarray:
    """Position trace: rho[a, b] = sum_x psi[a, x] conj(psi[b, x])."""
    return np.einsum("...ax,...bx->...ab", psi, psi.conj())


def reduced_series(thetas, kets, t_max: int) -> np.ndarray:
    """Reduced coin states, shape (t_max + 1, n_theta, n_kets, 2, 2)."""
    snaps = walk(thetas, kets, t_max)
    return np.stack([reduced(snaps[t]) for t in range(t_max + 1)])


def kraus_blocks(theta: float, t: int, psi_basis: np.ndarray) -> dict[int, np.ndarray]:
    """Operators of the t-step set gathered from the walked basis kets.

    ``psi_basis`` has shape (2 kets, 2 coin, width) for inputs |0>, |1>.
    Column ``s`` of ``K_mu`` holds what input ``s`` left on site ``x = -mu``.
    """
    centre = (psi_basis.shape[-1] - 1) // 2
    return {
        mu: psi_basis[:, :, centre - mu].T.copy()
        for mu in range(-t, t + 1, 2)
    }


def ket_from_angle(delta: float) -> np.ndarray:
    return np.array([math.cos(delta / 2), math.sin(delta / 2)], dtype=np.complex128)


def random_kets(rng: np.random.Generator, count: int) -> np.ndarray:
    kets = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
    return kets / np.linalg.norm(kets, axis=1, keepdims=True)


def trace_distance(rho, sigma) -> np.ndarray:
    """Half the absolute eigenvalue sum of rho - sigma (numerical eigvalsh)."""
    ev = np.linalg.eigvalsh(np.asarray(rho) - np.asarray(sigma))
    return 0.5 * np.abs(ev).sum(axis=-1)


def entropy(rho) -> np.ndarray:
    ev = np.clip(np.linalg.eigvalsh(np.asarray(rho)), 0.0, 1.0)
    logs = np.log2(np.where(ev > 0, ev, 1.0))
    return -(ev * logs).sum(axis=-1)


def telegraph_kernel(a: float, gamma: float, elapsed) -> np.ndarray:
    """Random-telegraph dephasing kernel from its closed formula.

    Lambda(t) = exp(-g t) [cos(w g t) + sin(w g t) / w], w = sqrt(4a^2/g^2 - 1),
    continued to cosh/sinh when 4a^2/g^2 < 1 and to exp(-g t)(1 + g t) at 1.
    """
    gt = gamma * np.asarray(elapsed, dtype=float)
    ratio = 4.0 * a * a / (gamma * gamma) - 1.0
    if ratio > 0:
        w = math.sqrt(ratio)
        return np.exp(-gt) * (np.cos(w * gt) + np.sin(w * gt) / w)
    if ratio < 0:
        w = math.sqrt(-ratio)
        return np.exp(-gt) * (np.cosh(w * gt) + np.sinh(w * gt) / w)
    return np.exp(-gt) * (1.0 + gt)


def dephase(rho: np.ndarray, lam) -> np.ndarray:
    """Scale the coherences of (a batch of) qubit states by ``lam``."""
    out = np.array(rho, dtype=np.complex128)
    lam = np.asarray(lam, dtype=float)
    out[..., 0, 1] *= lam
    out[..., 1, 0] *= lam
    return out


def holevo_max(out1: np.ndarray, out2: np.ndarray, points: int = 257,
               rounds: int = 4) -> np.ndarray:
    """Largest two-state Holevo quantity over the weight p1 in [0, 1].

    ``out1`` and ``out2`` are batches (n, 2, 2) of channel outputs.  Each
    pair is scanned on a uniform grid of ``points`` weights, then ``rounds``
    times on the same grid zoomed around the best point so far; that pins
    the maximum of the smooth objective far below 1e-10.
    """
    s1, s2 = entropy(out1)[:, None], entropy(out2)[:, None]
    batch = np.arange(out1.shape[0])
    lo, hi = np.zeros(out1.shape[0]), np.ones(out1.shape[0])
    best = np.full(out1.shape[0], -np.inf)
    unit = np.linspace(0.0, 1.0, points)
    for _ in range(rounds + 1):
        p = lo[:, None] + (hi - lo)[:, None] * unit
        mix = (p[..., None, None] * out1[:, None]
               + (1.0 - p)[..., None, None] * out2[:, None])
        chi = entropy(mix) - p * s1 - (1.0 - p) * s2
        k = np.argmax(chi, axis=1)
        best = np.maximum(best, chi[batch, k])
        span = (hi - lo) / (points - 1)
        lo = np.maximum(0.0, p[batch, k] - span)
        hi = np.minimum(1.0, p[batch, k] + span)
    return best
