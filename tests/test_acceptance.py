"""Acceptance suite: one test per numbered criterion, with pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; timed criteria assert their runtime bound as well.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from qwchannel import reference
from qwchannel.channels import (
    RTNParams,
    apply_kraus,
    closed_form_p,
    closed_form_q,
    density_matrix,
    is_density_matrix,
    n_step_map,
    rtn_lambda,
)
from qwchannel.cli import main as cli_main
from qwchannel.kraus import (
    extract_kraus_binomial,
    extract_kraus_direct,
    extract_kraus_split_step,
)
from qwchannel.walk import Lattice, build_shifts, evolve, joint_state
from qwchannel.witnesses import (
    holevo,
    holevo_max,
    nonmonotonicity,
    purity,
    td_series,
    trace_distance,
)

PI = math.pi
RHO_UP = np.diag([1.0, 0.0]).astype(complex)
RHO_DOWN = np.diag([0.0, 1.0]).astype(complex)


@contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def ensemble_pair():
    rho1 = 0.25 * RHO_UP + 0.75 * RHO_DOWN
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    minus = np.array([1.0, -1.0]) / math.sqrt(2)
    return rho1, density_matrix(plus) / 6 + 5 * density_matrix(minus) / 6


def test_criterion_01_table_fidelity():
    with criterion(1, "table fidelity", budget=1.0):
        for theta in (PI / 6, PI / 4, PI / 3):
            for t in (1, 2, 3, 4):
                kset = extract_kraus_direct(theta, t)
                for mu, expected in reference.standard_walk_operators(theta, t).items():
                    assert np.abs(kset.operator(mu) - expected).max() <= 1e-12
            for n in (1, 2, 3):
                got = extract_kraus_split_step(theta, n).operators()
                expected = reference.split_step_operators(theta, n)
                assert len(got) == len(expected)
                assert np.abs(np.subtract(got, expected)).max() <= 1e-12


def test_criterion_02_completeness_and_cptp():
    with criterion(2, "completeness and CPTP", budget=10.0):
        for t in range(1, 26):
            for theta in np.linspace(0.05, 2 * PI - 0.05, 16):
                assert extract_kraus_direct(theta, t).completeness_residual() <= 1e-10
        rng = np.random.default_rng(20240901)
        for trial in range(1000):
            theta = rng.uniform(0, 2 * PI)
            n = int(rng.integers(1, 16))
            ket = rng.normal(size=2) + 1j * rng.normal(size=2)
            ket /= np.linalg.norm(ket)
            rho = density_matrix(ket)
            if trial % 3 == 0:
                weight = rng.uniform(0, 1)
                rho = weight * rho + (1 - weight) * np.eye(2) / 2
            out = n_step_map(theta, n, rho)
            assert np.abs(out - out.conj().T).max() <= 1e-12
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            assert min(np.linalg.eigvalsh(out)) >= -1e-12
            assert is_density_matrix(out)


def test_criterion_03_dual_extraction_oracle():
    with criterion(3, "dual-extraction oracle", budget=30.0):
        for theta in (PI / 7, PI / 4, 1.0):
            for t in range(1, 9):
                direct = extract_kraus_direct(theta, t)
                expanded = extract_kraus_binomial(theta, t)
                assert direct.labels() == expanded.labels()
                for mu in direct.labels():
                    assert np.abs(direct.operator(mu)
                                  - expanded.operator(mu)).max() <= 1e-9


def test_criterion_04_reduced_dynamics_oracle():
    with criterion(4, "reduced-dynamics oracle", budget=5.0):
        rng = np.random.default_rng(7)
        for n in range(1, 13):
            for _ in range(3):
                ket = rng.normal(size=2) + 1j * rng.normal(size=2)
                ket /= np.linalg.norm(ket)
                theta = rng.uniform(0, 2 * PI)
                lattice = Lattice.for_steps(n)
                psi = evolve(joint_state(lattice, ket), theta, n)
                psi = psi.reshape(2, lattice.size)
                traced = psi @ psi.conj().T
                out = n_step_map(theta, n, density_matrix(ket))
                assert np.abs(traced - out).max() <= 1e-10


def test_criterion_05_closed_forms():
    with criterion(5, "closed-form probabilities"):
        rng = np.random.default_rng(55)
        for _ in range(40):
            ket = rng.normal(size=2) + 1j * rng.normal(size=2)
            ket /= np.linalg.norm(ket)
            a, b = ket
            theta = rng.uniform(0, 2 * PI)
            for t in (1, 2, 3):
                out = n_step_map(theta, t, density_matrix(ket))
                assert abs(out[0, 0].real - closed_form_p(theta, t, a, b)) <= 1e-12
                assert abs(out[0, 1] - closed_form_q(theta, t, a, b)) <= 1e-12


def test_criterion_06_trace_distance_laws():
    with criterion(6, "trace-distance laws"):
        for theta in np.linspace(0, PI, 33):
            kset = extract_kraus_direct(theta, 1)
            d = trace_distance(apply_kraus(kset, RHO_UP),
                               apply_kraus(kset, RHO_DOWN))
            assert abs(d - abs(math.cos(2 * theta))) <= 1e-12
        for theta in (PI / 6, 0.9):
            series = td_series(theta, 30, mode="concat")
            decay = abs(math.cos(2 * theta))
            for n, d in zip(series.steps, series.values):
                assert abs(d - decay ** n) <= 1e-12
        assert nonmonotonicity(td_series(PI / 6, 20, mode="nstep")) > 0.0


def test_criterion_07_half_pi_degeneracy():
    with criterion(7, "half-pi degeneracy"):
        rng = np.random.default_rng(3)
        for t in range(2, 13, 2):
            ket = rng.normal(size=2) + 1j * rng.normal(size=2)
            ket /= np.linalg.norm(ket)
            rho = density_matrix(ket)
            assert np.abs(n_step_map(PI / 2, t, rho) - rho).max() <= 1e-12
        for t in range(1, 9):
            p = n_step_map(PI / 2, t, RHO_UP)[0, 0].real
            if t % 2 == 0:
                assert p == 1.0
            else:
                assert p <= 1e-30


def test_criterion_08_rtn_regimes():
    with criterion(8, "telegraph-noise regimes"):
        markovian = RTNParams(a=0.4, gamma=1.0)
        nonmarkovian = RTNParams(a=2.0, gamma=1.0)
        assert rtn_lambda(markovian, 0.0) == 1.0
        assert rtn_lambda(nonmarkovian, 0.0) == 1.0
        for params in (markovian, nonmarkovian):
            for elapsed in np.linspace(0.0, 20.0, 2001):
                assert abs(rtn_lambda(params, elapsed)) <= 1.0
        composite = td_series(PI / 6, 20, mode="composite", rtn=markovian)
        assert nonmonotonicity(composite) > 0.0
        assert nonmonotonicity(td_series(PI / 6, 20, mode="concat")) == 0.0


def test_criterion_09_holevo_parity_ordering():
    with criterion(9, "Holevo quantity"):
        rho1, rho2 = ensemble_pair()
        single = holevo([(1.0, rho1)], lambda rho: n_step_map(0.8, 2, rho))
        assert abs(single) <= 1e-12
        means = {}
        for step in range(1, 9):
            values = []
            for theta in np.linspace(0, PI, 64):
                kset = extract_kraus_direct(theta, step)
                chi, _ = holevo_max(rho1, rho2, lambda rho: apply_kraus(kset, rho))
                assert -1e-12 <= chi <= 1 + 1e-12
                values.append(chi)
            means[step] = float(np.mean(values))
        odd = np.mean([means[s] for s in (1, 3, 5, 7)])
        even = np.mean([means[s] for s in (2, 4, 6, 8)])
        assert odd < even


def test_criterion_10_shift_power_identity():
    with criterion(10, "shift-power identity"):
        for t in range(0, 11):
            lattice = Lattice.for_steps(t)
            s_left, s_right = build_shifts(lattice)
            origin = lattice.origin_index
            for k in range(t + 1):
                power = (np.linalg.matrix_power(s_left, k)
                         @ np.linalg.matrix_power(s_right, t - k))
                for mu in range(-origin, origin + 1):
                    expected = 1.0 if mu + k == t - k else 0.0
                    assert power[origin + mu, origin].real == expected


def test_criterion_11_purity_sweep_with_documented_caveat(tmp_path, capsys):
    with criterion(11, "purity sweep"):
        out = tmp_path / "purity.csv"
        code = cli_main([
            "purity",
            "--theta-grid", f"0:{PI}:3",       # {0, pi/2, pi}
            "--delta-grid", f"0:{PI}:2",       # {0, pi}
            "--steps", "8",
            "--out", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,delta,step,purity,mixedness"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 2 * 8
        # basis-aligned inputs stay pure at theta in {0, pi/2, pi}
        for row in rows:
            assert abs(float(row[3]) - 1.0) <= 1e-12
        # superposition inputs do NOT stay pure at theta = 0: the channel is a
        # perfect dephaser there, so the analogous claim fails off the poles
        # (documented behaviour, deliberately not asserted as purity == 1)
        from qwchannel.channels import coin_state_from_angle
        rho = density_matrix(coin_state_from_angle(PI / 4))
        assert purity(n_step_map(0.0, 1, rho)) < 1.0 - 1e-6
