"""Self-contained consistency checks behind the ``verify`` CLI command.

Each check pits one route through the code against an independent one
(closed-form tables, the expanded-operator extraction, the joint evolution
plus explicit position trace, analytic decay laws) and reports a named
pass/fail result with the worst observed deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reference
from .channels import (
    RTNParams,
    apply_kraus,
    closed_form_p,
    closed_form_q,
    density_matrix,
    rtn_lambda,
)
from .kraus import (
    extract_kraus_binomial,
    extract_kraus_direct,
    extract_kraus_split_step,
    iter_kraus_batches,
)
from .walk import Lattice, build_shifts, coin_projections, evolve, joint_state
from .witnesses import td_series


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, worst: float, tol: float) -> CheckResult:
    detail = f"worst deviation {worst:.3e} (tolerance {tol:.0e})"
    return CheckResult(name, worst <= tol, detail)


def check_completeness() -> CheckResult:
    # every (angle, step) set from one batched walk, summing K^dag K label by
    # label, and the library's own gate (the partial trace of the superoperator)
    # on the single-set route (the one ``kraus`` dumps) at the longest walk
    thetas = np.linspace(0.05, 2 * math.pi - 0.05, 16)
    steps = range(1, 26)
    worst = max(extract_kraus_direct(theta, steps[-1]).completeness_residual()
                for theta in thetas)
    for _, _, operators in iter_kraus_batches(thetas, steps):
        gram = np.einsum("...mji,...mjk->...ik", operators.conj(), operators)
        worst = max(worst, float(np.abs(gram - np.eye(2)).max()))
    return _result("completeness", worst, 1e-10)


def check_table_standard() -> CheckResult:
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        for t in range(1, 5):
            table = reference.standard_walk_operators(theta, t)
            extracted = extract_kraus_direct(theta, t)
            for mu, expected in table.items():
                worst = max(worst, float(np.abs(extracted.operator(mu) - expected).max()))
    return _result("table-fidelity-standard", worst, 1e-12)


def check_table_split_step() -> CheckResult:
    worst = 0.0
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        for n in range(1, 4):
            expected = reference.split_step_operators(theta, n)
            got = extract_kraus_split_step(theta, n).operators()
            for matrix in expected:
                best = min(float(np.abs(g - matrix).max()) for g in got)
                worst = max(worst, best)
    return _result("table-fidelity-split-step", worst, 1e-12)


def check_dual_extraction() -> CheckResult:
    worst = 0.0
    for theta in (math.pi / 7, math.pi / 4, 1.0):
        for t in range(1, 9):
            direct = extract_kraus_direct(theta, t)
            expanded = extract_kraus_binomial(theta, t)
            for ka, kb in zip(direct.operators(), expanded.operators()):
                worst = max(worst, float(np.abs(ka - kb).max()))
    return _result("dual-extraction", worst, 1e-9)


def check_reduced_dynamics() -> CheckResult:
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(1, 13):
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket /= np.linalg.norm(ket)
        theta = rng.uniform(0.0, 2 * math.pi)
        lattice = Lattice.for_steps(n)
        psi = evolve(joint_state(lattice, ket), theta, n).reshape(2, lattice.size)
        traced = psi @ psi.conj().T
        channeled = apply_kraus(extract_kraus_direct(theta, n), density_matrix(ket))
        worst = max(worst, float(np.abs(traced - channeled).max()))
    return _result("reduced-dynamics", worst, 1e-10)


def check_closed_form_probabilities() -> CheckResult:
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(25):
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        ket /= np.linalg.norm(ket)
        a, b = ket
        theta = rng.uniform(0.0, 2 * math.pi)
        for t in (1, 2, 3):
            out = apply_kraus(extract_kraus_direct(theta, t), density_matrix(ket))
            worst = max(worst, abs(out[0, 0].real - closed_form_p(theta, t, a, b)))
            worst = max(worst, abs(out[0, 1] - closed_form_q(theta, t, a, b)))
    return _result("closed-form-probabilities", worst, 1e-12)


def check_concatenation_decay() -> CheckResult:
    worst = 0.0
    for theta in (math.pi / 6, 0.9, 2.2):
        series = td_series(theta, 30, mode="concat")
        decay = abs(math.cos(2 * theta))
        for n, d in zip(series.steps, series.values):
            worst = max(worst, abs(d - decay ** n))
    return _result("concatenation-decay", worst, 1e-12)


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


def check_minor_symmetry() -> CheckResult:
    # the engine walks the labels mu >= 0 and flips out K_{-mu} = J K_mu J:
    # certify whole flipped sets of both parities against the generating
    # function at 8 seeded points of the unit circle.  The longest walk, 400
    # steps, is what the suite's time allows
    ks = np.random.default_rng(8).integers(0, _CIRCLE, 8)
    thetas = (0.37, 1.1, 2.9)
    worst = 0.0
    for angles, t, operators in iter_kraus_batches(thetas, (1, 2, 3, 399, 400)):
        gap = generating_function_gap(thetas[angles], t, operators, ks)
        worst = max(worst, float(gap.max()))
    return _result("minor-symmetry", worst, 1e-12)


def check_half_pi_degeneracy() -> CheckResult:
    worst = 0.0
    for t in range(2, 13, 2):
        kset = extract_kraus_direct(math.pi / 2, t)
        for mu, matrix in kset.entries:
            if mu == 0:
                sign = 1.0 if matrix[0, 0].real > 0 else -1.0
                worst = max(worst, float(np.abs(matrix - sign * np.eye(2)).max()))
            else:
                worst = max(worst, float(np.abs(matrix).max()))
    return _result("half-pi-degeneracy", worst, 1e-14)


def check_rtn_kernel() -> CheckResult:
    worst = 0.0
    for ratio in (0.4, 2.0):
        params = RTNParams(a=ratio, gamma=1.0)
        worst = max(worst, abs(rtn_lambda(params, 0.0) - 1.0))
        values = [rtn_lambda(params, t) for t in np.linspace(0.0, 20.0, 2001)]
        worst = max(worst, max(0.0, max(abs(v) for v in values) - 1.0))
    overdamped = RTNParams(a=0.4, gamma=1.0)
    markovian = [rtn_lambda(overdamped, t) for t in np.linspace(0.0, 10.0, 1001)]
    monotone = all(b <= a + 1e-15 for a, b in zip(markovian, markovian[1:]))
    positive = all(v > 0 for v in markovian)
    result = _result("rtn-kernel", worst, 1e-12)
    if not (monotone and positive):
        return CheckResult("rtn-kernel", False,
                           "overdamped kernel not positive-decreasing")
    return result


def check_shift_power_identity() -> CheckResult:
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
                    return CheckResult(
                        "shift-power-identity", False,
                        f"mismatch at t={t}, k={k}, mu={mu}")
    return CheckResult("shift-power-identity", True, "exact for all t <= 10")


ALL_CHECKS = (
    check_completeness,
    check_table_standard,
    check_table_split_step,
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
            results.append(check())
        except Exception as exc:  # a crashed check is a failed check
            name = check.__name__.removeprefix("check_").replace("_", "-")
            results.append(CheckResult(name, False, f"raised {exc!r}"))
    return results
