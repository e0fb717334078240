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
from schmidt.errors import ParseError, ValidationError
from schmidt.ketparse import format_state, parse_state
from schmidt.modes import (
    BipartitePureState,
    entanglement_entropy,
    reconstruct,
    schmidt_decompose,
    schmidt_number,
)


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
    # quadratic-formula oracle, independent of the Jacobi solver
    a = np.asarray(a, dtype=float)
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det)
    return np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])


@criterion(1, "2x3 demo state: shared spectrum, K = 144/122, expected mode pairs")
def test_c01_demo_state_eigensystem():
    state = example_state("psi0")
    lam_latin = eigvals_desc(gram_latin(state).matrix)
    lam_greek = eigvals_desc(gram_greek(state).matrix)
    np.testing.assert_allclose(lam_latin, [11 / 12, 1 / 12], atol=1e-10)
    np.testing.assert_allclose(lam_greek, [11 / 12, 1 / 12, 0.0], atol=1e-10)

    d = schmidt_decompose(state)
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
    np.testing.assert_allclose(gram_greek(state).matrix, expected, atol=1e-12)


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
        assert entanglement_entropy(d) == pytest.approx(1.0, abs=1e-9)
        rho = pure_density(state)
        for keep in ("A", "B"):
            reduced = partial_trace(rho, keep)
            assert np.max(np.abs(reduced.matrix - np.eye(2) / 2)) < 1e-10


@criterion(7, "classical mixture vs Bell projector: matrices, conditioning, coherences")
def test_c07_classical_vs_quantum():
    rho_cl = opposite_polarization_mixture()
    rho_qm = pure_density(bell_state("psi_plus"))
    np.testing.assert_allclose(rho_cl.matrix, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-12)
    expected_qm = np.zeros((4, 4))
    expected_qm[1:3, 1:3] = 0.5
    np.testing.assert_allclose(rho_qm.matrix, expected_qm, atol=1e-12)

    for rho in (rho_cl, rho_qm):
        prob, cond = conditional_state(rho, [1.0, 0.0])
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(cond.matrix, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)

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
            amps = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            state = BipartitePureState.from_amplitudes(
                tuple(f"m{i}" for i in range(rows)),
                tuple(f"s{j}" for j in range(cols)),
                amps,
            )
            d = schmidt_decompose(state)

            assert abs(np.sum(d.lambdas) - 1.0) <= 1e-10

            lam_latin = eigvals_desc(gram_latin(state).matrix)
            lam_greek = eigvals_desc(gram_greek(state).matrix)
            common = min(len(lam_latin), len(lam_greek))
            np.testing.assert_allclose(lam_latin[:common], lam_greek[:common], atol=1e-10)

            k = schmidt_number(d)
            assert 1.0 - 1e-9 <= k <= min(rows, cols) + 1e-9

            assert np.max(np.abs(reconstruct(d) - state.amplitudes)) <= 1e-9

            u = _random_unitary(rng, rows)
            rotated = BipartitePureState.from_amplitudes(
                state.latin_labels, state.greek_labels, u @ state.amplitudes
            )
            assert schmidt_number(schmidt_decompose(rotated)) == pytest.approx(k, abs=1e-9)

            assert purity(gram_latin(state)) == pytest.approx(1.0 / k, abs=1e-9)
            assert purity(gram_greek(state)) == pytest.approx(1.0 / k, abs=1e-9)


def _random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@criterion(9, "N equal Schmidt weights give K = N for N = 1..6")
def test_c09_equal_weights_count_exactly():
    for n in range(1, 7):
        state = BipartitePureState.from_amplitudes(
            tuple(f"m{i}" for i in range(n)),
            tuple(f"s{i}" for i in range(n)),
            np.eye(n),
        )
        assert schmidt_number(schmidt_decompose(state)) == pytest.approx(n, abs=1e-9)


@criterion(10, "parser: exact fixture matrices, 500 round trips, fuzz safety")
def test_c10_parser_suite():
    expected = {
        "psi0": np.array([[2, 1, 1], [1, 2, 1]], dtype=complex),
        "psi1": np.array([[2, 1, 1], [1, 2, -1]], dtype=complex),
        "psi2": np.array([[2, 1, 1, -1], [1, 2, -1, 1]], dtype=complex),
        "psi3": np.array([[2, 1j, 1], [1j, 2, 1]], dtype=complex),
    }
    for name, matrix in expected.items():
        state = parse_state(EXPRESSIONS[name])
        np.testing.assert_allclose(state.amplitudes * state.norm, matrix, atol=1e-12)

    rng = np.random.default_rng(99)
    for _ in range(500):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        amps = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        state = BipartitePureState.from_amplitudes(
            tuple(f"m{i}" for i in range(rows)),
            tuple(f"s{j}" for j in range(cols)),
            amps,
        )
        again = parse_state(format_state(state))
        assert again.latin_labels == state.latin_labels
        assert again.greek_labels == state.greek_labels
        assert np.max(np.abs(again.amplitudes - state.amplitudes)) <= 1e-12

    alphabet = "0123456789.+-*/()|><xi sqrtabe_⊗@#"
    for _ in range(400):
        length = int(rng.integers(0, 40))
        text = "".join(rng.choice(list(alphabet), size=length))
        try:
            parse_state(text)
        except (ParseError, ValidationError):
            pass
