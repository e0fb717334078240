"""Acceptance suite.

Each test is one acceptance criterion, checked at its stated tolerance, and
prints a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``
to see them as they go).
"""

import functools

import numpy as np
import pytest

from schmidt.catalog import (
    BELL_AMPLITUDES,
    EXPRESSIONS,
    bell_state,
    example_state,
    opposite_polarization_mixture,
)
from schmidt.density import (
    conditional_state,
    gram_greek,
    gram_latin,
    partial_trace,
    pure_density,
    purity,
)
from schmidt.ketparse import format_state, parse_state
from schmidt.modes import (
    entanglement_entropy,
    reconstruct,
    schmidt_decompose,
    schmidt_number,
)
from states import AMPLITUDES, LABELS, LATIN, labelled_state, random_unitary


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL  {description}")
                raise
            print(f"criterion {number:2d}: PASS  {description}")
            return result

        return wrapper

    return decorate


def eigvals_desc(h):
    # LAPACK's Hermitian eigenvalues, largest first: an oracle apart from the SVD
    return np.linalg.eigvalsh(h)[::-1]


def eigvals_desc_2x2(a):
    # quadratic-formula oracle, independent of the SVD
    a = np.asarray(a, dtype=float)
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det)
    return np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])


@criterion(1, "2x3 demo state: shared spectrum, K = 144/122, expected mode pairs")
def test_c01_demo_state_eigensystem():
    state = example_state("psi0")
    latin, greek = gram_latin(state), gram_greek(state)
    np.testing.assert_allclose(latin.matrix, np.array([[6, 5], [5, 6]]) / 12.0, rtol=0,
                               atol=1e-12)
    assert latin.basis_labels == LATIN
    expected_greek = np.array([[5, 4, 3], [4, 5, 3], [3, 3, 2]]) / 12.0
    np.testing.assert_allclose(greek.matrix, expected_greek, rtol=0, atol=1e-12)
    lam_latin = eigvals_desc(latin.matrix)
    lam_greek = eigvals_desc(greek.matrix)
    np.testing.assert_allclose(lam_latin, [11 / 12, 1 / 12], atol=1e-10)
    np.testing.assert_allclose(lam_greek, [11 / 12, 1 / 12, 0.0], atol=1e-10)

    d = schmidt_decompose(state)
    np.testing.assert_allclose(d.lambdas, [11 / 12, 1 / 12], atol=1e-12)
    assert d.rank == 2
    assert schmidt_number(d) == pytest.approx(144 / 122, abs=1e-9)

    np.testing.assert_allclose(d.latin_modes[:, 0], np.array([1, 1]) / np.sqrt(2), atol=1e-9)
    np.testing.assert_allclose(d.latin_modes[:, 1], np.array([1, -1]) / np.sqrt(2), atol=1e-9)
    np.testing.assert_allclose(
        d.greek_modes[:, 0], np.array([3, 3, 2]) / np.sqrt(22), atol=1e-9
    )
    np.testing.assert_allclose(
        d.greek_modes[:, 1], np.array([1, -1, 0]) / np.sqrt(2), atol=1e-9
    )


@criterion(2, "2x3 demo state: mode sum rebuilds the amplitude matrix")
def test_c02_demo_state_reconstruction():
    state = example_state("psi0")
    rebuilt = reconstruct(schmidt_decompose(state))
    assert np.max(np.abs(rebuilt - state.amplitudes)) < 1e-9


@criterion(3, "sign-flipped state: spectrum 3/4, 1/4, 0 and K = 1.6")
def test_c03_sign_flipped_state():
    state = example_state("psi1")
    lam = eigvals_desc(gram_greek(state).matrix)
    np.testing.assert_allclose(lam, [0.75, 0.25, 0.0], atol=1e-10)
    assert schmidt_number(schmidt_decompose(state)) == pytest.approx(1.6, abs=1e-9)
    expected = np.array([[5, 4, 1], [4, 5, -1], [1, -1, 2]]) / 12.0
    np.testing.assert_allclose(gram_greek(state).matrix, expected, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gram_latin(state).matrix, np.array([[6, 3], [3, 6]]) / 12.0,
                               rtol=0, atol=1e-12)


@criterion(4, "four-level state: norm^2 = 14, rank 2, K = 196/106 vs 2x2 oracle")
def test_c04_four_level_state():
    state = example_state("psi2")
    assert state.norm**2 == pytest.approx(14.0, abs=1e-12)
    d = schmidt_decompose(state)
    assert d.rank == 2
    lam = eigvals_desc_2x2(gram_latin(state).matrix.real)
    np.testing.assert_allclose(lam, [9 / 14, 5 / 14], atol=1e-12)
    k_oracle = 1.0 / np.sum(lam**2)
    assert k_oracle == pytest.approx(196 / 106, abs=1e-12)
    assert schmidt_number(d) == pytest.approx(k_oracle, abs=1e-9)
    assert schmidt_number(d) == pytest.approx(196 / 106, abs=1e-9)
    expected = np.array(
        [[5, 4, 1, -1], [4, 5, -1, 1], [1, -1, 2, -2], [-1, 1, -2, 2]]
    ) / 14.0
    np.testing.assert_allclose(gram_greek(state).matrix, expected, rtol=0, atol=1e-12)


@criterion(5, "complex-coefficient state: K = 144/74")
def test_c05_complex_state():
    state = example_state("psi3")
    assert schmidt_number(schmidt_decompose(state)) == pytest.approx(144 / 74, abs=1e-9)


@criterion(6, "all four Bell states: K = 2, entropy 1 bit, reduced = I/2")
def test_c06_bell_suite():
    for kind in BELL_AMPLITUDES:
        state = bell_state(kind)
        d = schmidt_decompose(state)
        assert schmidt_number(d) == pytest.approx(2.0, abs=1e-9)
        assert entanglement_entropy(d) == pytest.approx(1.0, abs=1e-12)
        rho = pure_density(state)
        for keep in ("A", "B"):
            reduced = partial_trace(rho, keep)
            assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-10
            assert reduced.basis_labels == ("H", "V")


@criterion(7, "classical mixture vs Bell projector: matrices, conditioning, coherences")
def test_c07_classical_vs_quantum():
    rho_cl = opposite_polarization_mixture()
    rho_qm = pure_density(bell_state("psi_plus"))
    np.testing.assert_allclose(rho_cl.matrix, np.diag([0.0, 0.5, 0.5, 0.0]), rtol=0,
                               atol=1e-15)
    expected_qm = np.zeros((4, 4))
    expected_qm[1:3, 1:3] = 0.5
    np.testing.assert_allclose(rho_qm.matrix, expected_qm, rtol=0, atol=1e-15)
    assert rho_cl.basis_labels == rho_qm.basis_labels == ("HH", "HV", "VH", "VV")

    for rho in (rho_cl, rho_qm):
        prob, cond = conditional_state(rho, [1.0, 0.0])
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(cond.matrix, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)
        assert cond.basis_labels == ("H", "V")

    diff = np.abs(rho_qm.matrix - rho_cl.matrix)
    support = {(int(i), int(j)) for i, j in zip(*np.nonzero(diff > 1e-15))}
    assert support == {(1, 2), (2, 1)}


@criterion(8, "200 random states per shape: spectra, bounds, round trip, invariance")
def test_c08_random_state_properties():
    shapes = [
        (1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3),
        (4, 2), (4, 4), (5, 3), (5, 5), (6, 4), (6, 6),
    ]
    rng = np.random.default_rng(20240817)
    for rows, cols in shapes:
        for _ in range(200):
            state = labelled_state(rng.normal(size=(rows, cols))
                                   + 1j * rng.normal(size=(rows, cols)))
            d = schmidt_decompose(state)

            assert abs(np.sum(d.lambdas) - 1.0) <= 1e-10

            # Both reduced states have the Schmidt spectrum, padded with zeros.
            for gram in (gram_latin(state), gram_greek(state)):
                padded = np.pad(d.lambdas, (0, len(gram.basis_labels) - len(d.lambdas)))
                np.testing.assert_allclose(eigvals_desc(gram.matrix), padded, atol=1e-10)

            k = schmidt_number(d)
            assert 1.0 - 1e-9 <= k <= min(rows, cols) + 1e-9

            assert np.max(np.abs(reconstruct(d) - state.amplitudes)) <= 1e-9

            rotated = labelled_state(random_unitary(rng, rows) @ state.amplitudes)
            assert schmidt_number(schmidt_decompose(rotated)) == pytest.approx(k, abs=1e-9)

            assert purity(gram_latin(state)) == pytest.approx(1.0 / k, abs=1e-9)
            assert purity(gram_greek(state)) == pytest.approx(1.0 / k, abs=1e-9)


@criterion(9, "N equal Schmidt weights give K = N for N = 1..6")
def test_c09_equal_weights_count_exactly():
    for n in range(1, 7):
        d = schmidt_decompose(labelled_state(np.eye(n)))
        assert schmidt_number(d) == pytest.approx(n, abs=1e-9)
        assert d.rank == n


@criterion(10, "parser: exact fixture matrices, 500 round trips")
def test_c10_parser_suite():
    parsed = {name: parse_state(expression) for name, expression in EXPRESSIONS.items()}
    for name, state in parsed.items():
        np.testing.assert_allclose(state.amplitudes * state.norm, AMPLITUDES[name], rtol=0,
                                   atol=1e-12)
        assert (state.latin_labels, state.greek_labels) == LABELS[name]
    for name in ("psi0", "psi3"):
        assert parsed[name].norm == pytest.approx(np.sqrt(12.0), abs=1e-12)
    # psi3's cross terms: 2*conj(i) + i*conj(2) + 1 = 1
    np.testing.assert_allclose(gram_latin(parsed["psi3"]).matrix,
                               np.array([[6, 1], [1, 6]]) / 12.0, rtol=0, atol=1e-12)
    single = parse_state("|a>(x)|alpha>")
    np.testing.assert_allclose(single.amplitudes * single.norm, [[1.0]], rtol=0, atol=1e-15)
    assert single.norm == pytest.approx(1.0, abs=1e-15)

    rng = np.random.default_rng(99)
    for _ in range(500):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        state = labelled_state(rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))
        again = parse_state(format_state(state))
        assert again.latin_labels == state.latin_labels
        assert again.greek_labels == state.greek_labels
        assert np.max(np.abs(again.amplitudes - state.amplitudes)) < 1e-12
