import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from schmidt.errors import ConvergenceError, ShapeError, ValidationError
from schmidt.modes import hermitian_eigen

# The reduced matrices of the barely-entangled demo state, whose 2x3
# amplitude matrix is [[2, 1, 1], [1, 2, 1]] / sqrt(12).
RHO_L0 = np.array([[6, 5], [5, 6]], dtype=complex) / 12.0
RHO_G0 = np.array([[5, 4, 3], [4, 5, 3], [3, 3, 2]], dtype=complex) / 12.0


def char_roots_2x2(a):
    """Eigenvalues of a real symmetric 2x2 from its characteristic polynomial."""
    a = np.asarray(a, dtype=float)
    tr = a[0, 0] + a[1, 1]
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    disc = np.sqrt(tr * tr - 4.0 * det)
    return np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])


def char_roots_3x3(a):
    """Eigenvalues of a real symmetric 3x3 via cofactor-expanded char poly."""
    a = np.asarray(a, dtype=float)
    tr = a[0, 0] + a[1, 1] + a[2, 2]
    minors = (
        (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        + (a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0])
        + (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    )
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    roots = np.roots([-1.0, tr, -minors, det])
    return np.sort(roots.real)[::-1]


class TestHermitianEigen:
    def test_demo_latin_gram_eigenvalues(self):
        eig = hermitian_eigen(RHO_L0)
        np.testing.assert_allclose(eig.eigenvalues, [11 / 12, 1 / 12], atol=1e-12)

    def test_identity_any_size(self):
        for n in (1, 2, 5):
            eig = hermitian_eigen(np.eye(n))
            np.testing.assert_allclose(eig.eigenvalues, np.ones(n), atol=1e-15)

    def test_demo_greek_gram_against_characteristic_polynomial(self):
        oracle = char_roots_3x3(RHO_G0.real)
        np.testing.assert_allclose(oracle, [11 / 12, 1 / 12, 0.0], atol=1e-12)
        eig = hermitian_eigen(RHO_G0)
        np.testing.assert_allclose(eig.eigenvalues, oracle, atol=1e-10)

    def test_eigenvalues_match_lapack_on_random_hermitian(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = (a + a.conj().T) / 2.0
            eig = hermitian_eigen(h)
            np.testing.assert_allclose(
                eig.eigenvalues, np.linalg.eigvalsh(h)[::-1], atol=1e-10
            )

    def test_eigenvector_residuals_and_orthonormality(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) / 2.0
        eig = hermitian_eigen(h)
        for s in range(6):
            v = eig.eigenvectors[:, s]
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            np.testing.assert_allclose(h @ v, eig.eigenvalues[s] * v, atol=1e-9)
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_phase_convention_makes_pivot_real_positive(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        eig = hermitian_eigen((a + a.conj().T) / 2.0)
        for s in range(4):
            v = eig.eigenvectors[:, s]
            pivot = v[np.flatnonzero(np.abs(v) > 1e-9)[0]]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real > 0.0

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = (a + a.conj().T) / 2.0
        eig = hermitian_eigen(h)
        assert abs(np.sum(eig.eigenvalues) - np.trace(h).real) < 1e-10

    def test_non_square_raises_shape_error(self):
        with pytest.raises(ShapeError):
            hermitian_eigen(np.zeros((2, 3)))

    def test_non_hermitian_raises_validation_error(self):
        with pytest.raises(ValidationError):
            hermitian_eigen(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_nan_matrix_raises_validation_error(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            hermitian_eigen(np.full((2, 2), np.nan))

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match=r"eigh.*2x2.*did not converge"):
            hermitian_eigen(RHO_L0)

    def test_residual_is_measured_offdiagonal(self):
        eig = hermitian_eigen(RHO_G0)
        rotated = eig.eigenvectors.conj().T @ RHO_G0 @ eig.eigenvectors
        np.testing.assert_allclose(np.diag(rotated).real, eig.eigenvalues, atol=1e-15)
        assert eig.residual == np.max(np.abs(rotated - np.diag(np.diag(rotated))))
        assert eig.residual < 1e-15

    def test_zero_matrix(self):
        eig = hermitian_eigen(np.zeros((3, 3)))
        np.testing.assert_array_equal(eig.eigenvalues, np.zeros(3))


class TestSpectralProperties:
    def test_gram_pair_spectra_agree_up_to_padding(self):
        rng = np.random.default_rng(21)
        for rows, cols in [(2, 3), (3, 2), (4, 6), (5, 5), (1, 4)]:
            m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            m /= np.linalg.norm(m)
            small = hermitian_eigen(m @ m.conj().T).eigenvalues
            large = hermitian_eigen(m.conj().T @ m).eigenvalues
            if len(small) > len(large):
                small, large = large, small
            common = len(small)
            np.testing.assert_allclose(small, large[:common], atol=1e-10)
            assert np.all(np.abs(large[common:]) <= 1e-10)

    def test_gram_eigenvalues_are_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
            m /= np.linalg.norm(m)
            eig = hermitian_eigen(m @ m.conj().T)
            assert np.all(eig.eigenvalues >= -1e-12)

    def test_reassembly_reproduces_input(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = (a + a.conj().T) / 2.0
        eig = hermitian_eigen(h)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    entries=arrays(
        np.float64,
        (2, 4, 4),
        elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    )
)
def test_random_hermitian_reassembly_property(entries):
    a = entries[0] + 1j * entries[1]
    h = (a + a.conj().T) / 2.0
    eig = hermitian_eigen(h)
    rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
    scale = max(1.0, float(np.max(np.abs(h))))
    assert np.max(np.abs(rebuilt - h)) < 1e-9 * scale
    gram = eig.eigenvectors.conj().T @ eig.eigenvectors
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10
