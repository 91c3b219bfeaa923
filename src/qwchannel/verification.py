"""Self-contained consistency checks behind the ``verify`` CLI command.

Each check pits one route through the code against an independent one
(closed-form tables, the expanded-operator extraction, the joint evolution
plus explicit position trace, analytic decay laws) and returns whether it
passed and a detail, mostly the worst observed deviation.  ``run_checks``
names each result after its check's function.  The seeded checks draw their
points from the standard library's ``random.Random``, so a run never loads
numpy's random-number package.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import reference
from .channels import (
    RTNParams,
    _apply,
    apply_kraus,
    closed_form_p,
    closed_form_q,
    density_matrix,
    rtn_lambda,
    superoperators,
)
from .kraus import (
    extract_kraus_binomial,
    extract_kraus_direct,
    extract_kraus_split_step,
    iter_kraus_batches,
    minor_map,
    superoperator_of,
)
from .walk import Lattice, build_shifts, coin_projections, evolve, joint_state
from .witnesses import td_series


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(worst: float, tol: float) -> tuple[bool, str]:
    worst = float(worst)
    return worst <= tol, f"worst deviation {worst:.3e} (tolerance {tol:.0e})"


def _seeded_points(seed: int, size: int) -> tuple[np.ndarray, list[float]]:
    """``size`` seeded kets, shape ``(size, 2)``, and an angle for each.

    Each ket has standard normal real and imaginary parts and is normalized;
    each angle is uniform in ``[0, 2 pi)``.
    """
    rng = random.Random(seed)
    kets, thetas = [], []
    for _ in range(size):
        kets.append([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(2)])
        thetas.append(rng.uniform(0.0, 2 * math.pi))
    kets = np.array(kets)
    return kets / np.linalg.norm(kets, axis=1, keepdims=True), thetas


def check_completeness() -> tuple[bool, str]:
    # every (angle, step) set from one batched walk, summing K^dag K label by
    # label, and the library's own gate (the partial trace of the superoperator)
    # on the single-set route (the one ``kraus`` dumps) at the longest walk; and
    # the sweeps' channels, taken from the walk's float buffer, against the
    # complex Gram product of the same sets
    thetas = np.linspace(0.05, 2 * math.pi - 0.05, 16)
    steps = range(1, 26)
    worst = max(extract_kraus_direct(theta, steps[-1]).completeness_residual()
                for theta in thetas)
    superops = superoperators(thetas, steps)
    for angles, t, operators in iter_kraus_batches(thetas, steps):
        gram = np.einsum("...mji,...mjk->...ik", operators.conj(), operators)
        gap = np.abs(superops[angles, steps.index(t)] - superoperator_of(operators))
        worst = max(worst, float(np.abs(gram - np.eye(2)).max()), float(gap.max()))
    return _result(worst, 1e-10)


def check_table_fidelity_standard() -> tuple[bool, str]:
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        for t in range(1, 5):
            table = reference.standard_walk_operators(theta, t)
            extracted = extract_kraus_direct(theta, t)
            for mu, expected in table.items():
                worst = max(worst, float(np.abs(extracted.operator(mu) - expected).max()))
    return _result(worst, 1e-12)


def check_table_fidelity_split_step() -> tuple[bool, str]:
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        for n in range(1, 4):
            expected = reference.split_step_operators(theta, n)
            got = extract_kraus_split_step(theta, n).operators()
            for matrix in expected:
                best = min(float(np.abs(g - matrix).max()) for g in got)
                worst = max(worst, best)
    return _result(worst, 1e-12)


def check_dual_extraction() -> tuple[bool, str]:
    worst = max(np.abs(np.subtract(extract_kraus_direct(theta, t).operators(),
                                   extract_kraus_binomial(theta, t).operators())).max()
                for theta in (math.pi / 7, math.pi / 4, 1.0) for t in range(1, 9))
    return _result(worst, 1e-9)


def check_reduced_dynamics() -> tuple[bool, str]:
    kets, thetas = _seeded_points(2024, 12)
    worst = 0.0
    for n, ket, theta in zip(range(1, 13), kets, thetas):
        lattice = Lattice.for_steps(n)
        psi = evolve(joint_state(lattice, ket), theta, n).reshape(2, lattice.size)
        traced = psi @ psi.conj().T
        channeled = apply_kraus(extract_kraus_direct(theta, n), density_matrix(ket))
        worst = max(worst, float(np.abs(traced - channeled).max()))
    return _result(worst, 1e-10)


def check_closed_form_probabilities() -> tuple[bool, str]:
    kets, thetas = _seeded_points(99, 25)
    # point j's ket under point j's channels, (point, step, 2, 2), by the unchecked core:
    # the channels are gated when built, and a positivity check's eigvalsh adds 0.7 MB RSS
    images = _apply(superoperators(thetas, (1, 2, 3)), density_matrix(kets)[:, None])
    worst = max(max(abs(out[0, 0].real - closed_form_p(theta, t, a, b)),
                    abs(out[0, 1] - closed_form_q(theta, t, a, b)))
                for (a, b), theta, outs in zip(kets, thetas, images)
                for t, out in zip((1, 2, 3), outs))
    return _result(worst, 1e-12)


def check_concatenation_decay() -> tuple[bool, str]:
    worst = 0.0
    for theta in (math.pi / 6, 0.9, 2.2):
        series = td_series(theta, 30, mode="concat")
        decay = abs(math.cos(2 * theta))
        for n, d in zip(series.steps, series.values):
            worst = max(worst, abs(d - decay ** n))
    return _result(worst, 1e-12)


# points z = exp(2 pi i k / _CIRCLE) of the generating function: the phase of
# z^mu is reduced exactly, (k mu) mod _CIRCLE, so each power is one rounding
_CIRCLE = 1 << 20


def generating_function_gap(thetas, t: int, operators, ks) -> np.ndarray:
    """``max |sum_mu K_mu z^mu - (z C_up + C_down / z)^t|`` for each angle.

    ``operators[b]`` is the t-step set of ``thetas[b]`` in ascending labels,
    shape ``(B, t + 1, 2, 2)``, and ``z = exp(2 pi i k / 2^20)`` for each
    ``k`` in ``ks``.  The right side is the t-th power of the walk's one-step
    symbol, so the identity certifies every label of a set, negative and
    positive alike, in O(t) per point and independently of the walk.
    """
    labels = np.arange(-t, t + 1, 2)
    ks = np.asarray(ks, dtype=np.int64)
    powers = np.exp(2j * np.pi * ((ks[:, None] * labels) % _CIRCLE) / _CIRCLE)
    series = np.einsum("pm,bmij->bpij", powers, operators)
    z = np.exp(2j * np.pi * ks / _CIRCLE)[:, None, None]
    blocks = [coin_projections(theta) for theta in thetas]
    symbols = np.array([z * up + z.conj() * down for up, down in blocks])
    closed = np.linalg.matrix_power(symbols, t)
    return np.abs(series - closed).max(axis=(1, 2, 3))


def check_minor_symmetry() -> tuple[bool, str]:
    # the engine walks every label, so the parity symmetry K_{-mu} = J K_mu J
    # is checked, not assumed: whole sets of both parities against their own
    # flip (at most 0.125 eps (t + 1) up to t = 4000) and against the
    # generating function at 8 seeded points of the unit circle.  The longest
    # walk, 400 steps, is what the suite's time allows
    rng = random.Random(8)
    ks = [rng.randrange(_CIRCLE) for _ in range(8)]
    thetas = (0.37, 1.1, 2.9)
    worst = 0.0
    for angles, t, operators in iter_kraus_batches(thetas, (1, 2, 3, 399, 400)):
        gap = generating_function_gap(thetas[angles], t, operators, ks)
        mirror = np.abs(operators[:, ::-1] - minor_map(operators)).max()
        worst = max(worst, float(gap.max()), float(mirror))
    return _result(worst, 1e-12)


def check_half_pi_degeneracy() -> tuple[bool, str]:
    worst = 0.0
    for t in range(2, 13, 2):
        kset = extract_kraus_direct(math.pi / 2, t)
        for mu, matrix in kset.entries:
            if mu == 0:
                sign = 1.0 if matrix[0, 0].real > 0 else -1.0
                worst = max(worst, float(np.abs(matrix - sign * np.eye(2)).max()))
            else:
                worst = max(worst, float(np.abs(matrix).max()))
    return _result(worst, 1e-14)


def check_rtn_kernel() -> tuple[bool, str]:
    worst = 0.0
    for ratio in (0.4, 2.0):
        values = rtn_lambda(RTNParams(a=ratio, gamma=1.0), np.linspace(0.0, 20.0, 2001))
        worst = max(worst, abs(values[0] - 1.0), np.abs(values).max() - 1.0)
    markovian = rtn_lambda(RTNParams(a=0.4, gamma=1.0), np.linspace(0.0, 10.0, 1001))
    monotone = (markovian[1:] <= markovian[:-1] + 1e-15).all()
    positive = (markovian > 0).all()
    if not (monotone and positive):
        return False, "overdamped kernel not positive-decreasing"
    return _result(worst, 1e-12)


def check_shift_power_identity() -> tuple[bool, str]:
    for t in range(0, 11):
        lattice = Lattice.for_steps(t)
        s_left, s_right = build_shifts(lattice)
        origin = lattice.origin_index
        for k in range(t + 1):
            power = (np.linalg.matrix_power(s_left, k)
                     @ np.linalg.matrix_power(s_right, t - k))
            for mu in range(-lattice.max_steps - 1, lattice.max_steps + 2):
                value = power[origin + mu, origin].real
                expected = 1.0 if mu + k == t - k else 0.0
                if value != expected:
                    return False, f"mismatch at t={t}, k={k}, mu={mu}"
    return True, "exact for all t <= 10"


ALL_CHECKS = (
    check_completeness,
    check_table_fidelity_standard,
    check_table_fidelity_split_step,
    check_dual_extraction,
    check_reduced_dynamics,
    check_closed_form_probabilities,
    check_concatenation_decay,
    check_minor_symmetry,
    check_half_pi_degeneracy,
    check_rtn_kernel,
    check_shift_power_identity,
)


def run_checks() -> list[CheckResult]:
    """Run every named check, capturing unexpected errors as failures."""
    results = []
    for check in ALL_CHECKS:
        try:
            passed, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {exc!r}"
        name = check.__name__.removeprefix("check_").replace("_", "-")
        results.append(CheckResult(name, passed, detail))
    return results
