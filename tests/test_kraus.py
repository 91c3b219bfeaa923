import json
import math

import numpy as np
import pytest
from test_engine import traced_operators

import qwchannel.kraus as kraus
from qwchannel import reference
from qwchannel.kraus import (
    KrausSet,
    commutator_corrections,
    extract_kraus_binomial,
    extract_kraus_direct,
    extract_kraus_split_step,
    kraus_closed_form_first_term,
    minor_map,
)
from qwchannel.walk import Lattice, build_shifts, coin_projections


def test_one_step_operators():
    theta = 0.83
    c, s = math.cos(theta), math.sin(theta)
    kset = extract_kraus_direct(theta, 1)
    assert kset.labels() == [-1, 1]
    assert np.allclose(kset.operator(-1), [[0, 0], [-1j * s, c]], atol=1e-14)
    assert np.allclose(kset.operator(+1), [[c, -1j * s], [0, 0]], atol=1e-14)


def test_two_step_quarter_pi_center_operator():
    kset = extract_kraus_direct(math.pi / 4, 2)
    expected = np.array([[-0.5, -0.5j], [-0.5j, -0.5]])
    assert np.allclose(kset.operator(0), expected, atol=1e-14)


def test_half_pi_two_steps_degenerate():
    kset = extract_kraus_direct(math.pi / 2, 2)
    assert np.abs(kset.operator(2)).max() <= 1e-14
    assert np.abs(kset.operator(-2)).max() <= 1e-14
    assert np.allclose(kset.operator(0), -np.eye(2), atol=1e-14)


def test_half_pi_even_step_degeneracy_up_to_twelve():
    for t in range(2, 13, 2):
        kset = extract_kraus_direct(math.pi / 2, t)
        sign = 1.0 if t % 4 == 0 else -1.0
        assert np.abs(kset.operator(0) - sign * np.eye(2)).max() <= 1e-14
        for mu, matrix in kset.entries:
            if mu != 0:
                assert np.abs(matrix).max() <= 1e-14


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3])
@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_reference_table_standard(theta, t):
    kset = extract_kraus_direct(theta, t)
    for mu, expected in reference.standard_walk_operators(theta, t).items():
        assert np.abs(kset.operator(mu) - expected).max() <= 1e-12


def test_completeness_across_steps_and_angles():
    for t in range(1, 26):
        for theta in np.linspace(0.05, 2 * math.pi - 0.05, 16):
            assert extract_kraus_direct(theta, t).completeness_residual() <= 1e-10


def test_entry_count_and_parity():
    for t in (1, 4, 9):
        kset = extract_kraus_direct(0.77, t)
        assert len(kset.entries) == t + 1
        assert kset.labels() == list(range(-t, t + 1, 2))


def test_binomial_matches_direct():
    for theta in (math.pi / 7, math.pi / 4, 1.0):
        for t in range(1, 9):
            direct = extract_kraus_direct(theta, t)
            expanded = extract_kraus_binomial(theta, t)
            assert direct.labels() == expanded.labels()
            for mu in direct.labels():
                dev = np.abs(direct.operator(mu) - expanded.operator(mu)).max()
                assert dev <= 1e-9


def test_binomial_step_cap():
    with pytest.raises(ValueError):
        extract_kraus_binomial(0.5, 9)


def test_commutator_corrections_start_at_zero():
    lat = Lattice(7)
    s_left, s_right = build_shifts(lat)
    up, down = coin_projections(1.1)
    table = commutator_corrections(np.kron(up, s_left), np.kron(down, s_right), 3)
    assert np.abs(table[0]).max() == 0.0
    assert np.abs(table[1]).max() <= 1e-15
    assert np.abs(table[2]).max() > 0.1


def test_two_step_correction_is_the_commutator():
    # (P+Q)^2 - (P^2 + 2 P Q + Q^2) == [Q, P] == D_2
    lat = Lattice(7)
    s_left, s_right = build_shifts(lat)
    up, down = coin_projections(0.9)
    p, q = np.kron(up, s_left), np.kron(down, s_right)
    ordered = p @ p + 2 * (p @ q) + q @ q
    correction = np.linalg.matrix_power(p + q, 2) - ordered
    assert np.allclose(correction, q @ p - p @ q, atol=1e-14)
    table = commutator_corrections(p, q, 2)
    assert np.allclose(table[2], correction, atol=1e-14)


def test_closed_form_first_term_one_step():
    theta = 0.6
    c, s = math.cos(theta), math.sin(theta)
    assert np.allclose(kraus_closed_form_first_term(theta, 1, +1),
                       [[c, -1j * s], [0, 0]], atol=1e-14)
    assert np.allclose(kraus_closed_form_first_term(theta, 1, -1),
                       [[0, 0], [-1j * s, c]], atol=1e-14)


def test_closed_form_first_term_extreme_labels_are_full_operators():
    for theta in (0.6, 2.1):
        for t in (2, 3, 4, 6):
            kset = extract_kraus_direct(theta, t)
            for mu in (t, -t):
                term = kraus_closed_form_first_term(theta, t, mu)
                assert np.abs(term - kset.operator(mu)).max() <= 1e-12


def test_closed_form_first_term_center_misses_correction():
    # at t=2, mu=0 the difference from the full operator is exactly [Q, P]
    theta = 0.9
    c, s = math.cos(theta), math.sin(theta)
    term = kraus_closed_form_first_term(theta, 2, 0)
    full = extract_kraus_direct(theta, 2).operator(0)
    commutator_block = np.array([[s ** 2, 1j * s * c], [-1j * s * c, -s ** 2]])
    assert np.abs(full - term - commutator_block).max() <= 1e-13
    assert np.abs(full - term).max() > 0.1


def test_closed_form_first_term_parity_errors():
    with pytest.raises(ValueError):
        kraus_closed_form_first_term(0.5, 2, 1)
    with pytest.raises(ValueError):
        kraus_closed_form_first_term(0.5, 2, 4)


def test_split_step_single_step():
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)
    kset = extract_kraus_split_step(theta, 1)
    assert kset.kind == "split_step"
    assert kset.labels() == [-1, 0, 1]
    target = np.array([[c ** 2, -1j * c * s], [0, 0]])
    assert np.abs(kset.operator(1) - target).max() <= 1e-13
    standard = extract_kraus_direct(theta, 2)
    assert np.abs(kset.operator(0) - standard.operator(0)).max() <= 1e-14


@pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_split_step_reference_sets(theta, n):
    expected = reference.split_step_operators(theta, n)
    got = extract_kraus_split_step(theta, n).operators()
    assert len(got) == len(expected) == 2 * n + 1
    assert np.abs(np.subtract(got, expected)).max() <= 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, 2.9])
def test_a_split_step_set_is_the_standard_set_of_twice_the_steps_label_by_label(theta):
    for n in range(1, 51):
        kset, base = extract_kraus_split_step(theta, n), extract_kraus_direct(theta, 2 * n)
        for mu in kset.labels():
            assert np.array_equal(kset.operator(mu), base.operator(2 * mu))
    # the reference lists are the standard tables of twice the steps, labels halved
    for n in (1, 2):
        table = reference.standard_walk_operators(theta, 2 * n)
        halved = [table[2 * mu] for mu in range(-n, n + 1)]
        gap = np.abs(np.subtract(reference.split_step_operators(theta, n), halved)).max()
        assert gap <= 4.4e-16


def test_split_step_completeness():
    assert extract_kraus_split_step(math.pi / 5, 3).completeness_residual() <= 1e-10


def test_minor_map_basics():
    assert np.array_equal(minor_map(np.eye(2)), np.eye(2))
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(minor_map(m), [[4, 3], [2, 1]])
    assert np.array_equal(minor_map(minor_map(m)), m)
    with pytest.raises(ValueError):
        minor_map(np.eye(3))


# the engine builds K_{-mu} by flipping K_mu, so the mirror is checked on the
# routes that walk every label: the expanded operator and the position trace
def test_minor_map_relates_one_step_pair():
    kset = extract_kraus_binomial(1.3, 1)
    assert np.abs(minor_map(kset.operator(1)) - kset.operator(-1)).max() <= 1e-15
    traced = traced_operators(1.3, 1)
    assert np.abs(minor_map(traced[-1]) - traced[0]).max() <= 1e-15


def test_minor_symmetry_extremes_up_to_25():
    for theta in (0.37, 2.9):
        for t in range(1, 26):
            routes = [traced_operators(theta, t)]
            if t <= 8:
                routes.append(np.array(extract_kraus_binomial(theta, t).operators()))
            for ops in routes:
                assert np.abs(ops[0] - minor_map(ops[-1])).max() <= 1e-12


def test_minor_symmetry_holds_for_every_pair():
    for ops in (np.array(extract_kraus_binomial(1.1, 7).operators()),
                traced_operators(1.1, 7)):
        # labels ascend, so row j holds K_{-7+2j} and row -1 - j its mirror label
        assert np.abs(ops[::-1] - minor_map(ops)).max() <= 1e-12


def test_serialization_round_trip_exact():
    for kset in (extract_kraus_direct(0.123456789, 5),
                  extract_kraus_split_step(2.71, 2)):
        clone = KrausSet.from_json(kset.to_json())
        assert clone.kind == kset.kind
        assert clone.theta == kset.theta
        assert clone.t == kset.t
        assert clone.labels() == kset.labels()
        for mu in kset.labels():
            assert np.array_equal(clone.operator(mu), kset.operator(mu))


@pytest.mark.parametrize("indent", [-1, "ab", "%", "%s"])
def test_a_dump_is_the_encoders_text_for_an_indent_that_is_not_whitespace(indent):
    kset = extract_kraus_direct(0.5, 3)
    assert kset.to_json(indent=indent) == json.dumps(kset.to_dict(), indent=indent)


def test_kraus_set_validation():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        KrausSet(theta=0.1, t=0, entries=())
    with pytest.raises(ValueError):
        KrausSet(theta=0.1, t=1, entries=((0, eye),))  # wrong parity labels
    with pytest.raises(ValueError):
        KrausSet(theta=0.1, t=1, entries=((1, eye), (-1, eye)))  # not ascending
    with pytest.raises(ValueError):
        KrausSet(theta=0.1, t=1, entries=((-1, np.eye(3)), (1, eye)))
    with pytest.raises(KeyError):
        extract_kraus_direct(0.5, 2).operator(1)


@pytest.mark.parametrize("label", [True, False, np.True_, np.False_, np.array(True),
                                   np.array(False)],
                         ids=["True", "False", "np.True_", "np.False_", "np.array(True)",
                              "np.array(False)"])
def test_a_bool_is_no_label(label):
    kset = extract_kraus_split_step(0.3, 1)  # labels -1, 0 and 1
    with pytest.raises(KeyError, match="no operator with label"):
        kset.operator(label)
    labels = [-1, 0, 1]
    labels[int(label) + 1] = label
    with pytest.raises(ValueError, match=r"split_step set of 1 steps needs labels \[-1, 0, 1\]"):
        KrausSet(theta=0.3, t=1, kind="split_step", entries=tuple(zip(labels, kset.operators())))
    if isinstance(label, bool):
        text = kset.to_json().replace(f'"mu": {int(label)}', f'"mu": {json.dumps(label)}')
        with pytest.raises(ValueError, match="needs labels"):
            KrausSet.from_json(text)


def test_sets_compare_and_hash_by_identity():
    a, b = extract_kraus_direct(0.5, 3), extract_kraus_direct(0.5, 3)
    assert a != b
    assert a == a
    assert len({a, b}) == 2


def test_labels_are_ints_whatever_the_given_labels():
    ops = extract_kraus_direct(0.4, 3).operators()
    given = KrausSet(theta=0.4, t=3, entries=tuple(zip([-3, -1, 1, 3], ops)))
    for labels in (np.arange(-3, 4, 2), [-3.0, -1.0, 1.0, 3.0]):
        kset = KrausSet(theta=0.4, t=3, entries=tuple(zip(labels, ops)))
        assert kset.labels() == [-3, -1, 1, 3]
        assert all(type(mu) is int for mu in kset.labels())
        # a label is found by its value, whatever its type
        assert all(np.array_equal(kset.operator(mu), op) for mu, op in zip(labels, ops))
        assert kset.to_json(indent=2) == given.to_json(indent=2)
        assert kset.to_json() == given.to_json()


def test_a_set_is_one_array_given_whole_or_by_label():
    kset = extract_kraus_direct(0.7, 4)
    whole = KrausSet(theta=0.7, t=4, entries=np.array(kset.operators()))
    assert whole.pair_array().tobytes() == kset.pair_array().tobytes()
    pairs = kset.pair_array()
    assert pairs.shape == (5, 2, 2, 2) and pairs.dtype == np.float64
    assert np.shares_memory(pairs, kset.operator(0))
    with pytest.raises(ValueError, match="read-only"):
        pairs[0] = 0
    with pytest.raises(ValueError, match="needs 5 kraus operators, each 2x2"):
        KrausSet(theta=0.7, t=4, entries=np.array(kset.operators()[1:]))


def test_invalid_step_counts():
    with pytest.raises(ValueError):
        extract_kraus_direct(0.5, 0)
    with pytest.raises(ValueError):
        extract_kraus_split_step(0.5, 0)


def test_binomial_guard_refuses_amplitude_on_wrong_parity_sites(monkeypatch):
    monkeypatch.setattr(kraus, "ZERO_SITE_TOL", -1.0)  # every site counts as loud
    with pytest.raises(ValueError, match="site -1 of wrong parity"):
        extract_kraus_binomial(0.5, 2)
    monkeypatch.undo()
    assert extract_kraus_binomial(0.5, 2).labels() == [-2, 0, 2]


@pytest.mark.parametrize("kset", [extract_kraus_direct(0.7, 5), extract_kraus_split_step(0.3, 2)],
                         ids=["standard", "split"])
def test_entries_are_the_label_operator_pairs_made_when_read(kset):
    entries = kset.entries
    labels, operators = kset.labels(), kset.operators()
    assert len(entries) == len(labels)
    assert [mu for mu, _ in entries] == labels
    assert all(type(mu) is int for mu, _ in entries)
    assert all(np.shares_memory(matrix, kset.pair_array()) for _, matrix in entries)
    for k in (0, 2, -1):
        mu, matrix = entries[k]
        assert mu == labels[k] and np.array_equal(matrix, operators[k])
    assert [mu for mu, _ in entries[1:3]] == labels[1:3]
    pairs = list(entries)
    assert [mu for mu, _ in pairs] == labels
    with pytest.raises(IndexError):
        entries[len(labels)]
    with pytest.raises(ValueError, match="read-only"):
        entries[0][1][:] = 0
    # the pairs rebuild the same set
    clone = KrausSet(theta=kset.theta, t=kset.t, entries=entries, kind=kset.kind)
    assert clone.pair_array().tobytes() == kset.pair_array().tobytes()
