"""Dense complex linear algebra for small Hermitian problems.

Matrices are plain numpy arrays of complex128; scalars are ordinary Python or
numpy complex numbers. Eigensystems come from LAPACK through
``np.linalg.eigh``; this module adds the package's conventions on top:
descending eigenvalues, a deterministic phase for every eigenvector, input
checks, and ``ConvergenceError`` in place of ``np.linalg.LinAlgError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ShapeError, ValidationError

# Inputs to hermitian_eigen may deviate from exact Hermiticity by at most this.
HERMITICITY_ATOL = 1e-10
# Components at or below this magnitude are ignored when fixing eigenvector phases.
PHASE_PIVOT = 1e-9


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` is sorted non-increasing; column ``s`` of ``eigenvectors``
    is the unit-norm eigenvector belonging to ``eigenvalues[s]``.  ``residual``
    is the largest off-diagonal magnitude of ``adj(V) H V``, measured on the
    returned eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got an array of shape {a.shape}")
    return a


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(m).conj().T


def mat_mul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def fix_phases(vecs: np.ndarray, partner: np.ndarray | None = None) -> None:
    """Give each column of ``vecs`` its deterministic phase, in place.

    Column ``s`` is multiplied by the unit phase that makes its first
    component larger than PHASE_PIVOT in magnitude real and positive, which
    makes non-degenerate vectors unique. Column ``s`` of ``partner`` (a
    Schmidt mode paired with ``vecs[:, s]``) is multiplied by the same phase,
    which leaves the product ``vecs[:, s] adj(partner[:, s])`` unchanged.
    """
    big = np.abs(vecs) > PHASE_PIVOT
    found = big.any(axis=0)
    pivots = vecs[big.argmax(axis=0), np.arange(vecs.shape[1])][found]
    phases = np.ones(vecs.shape[1], dtype=complex)
    phases[found] = pivots.conj() / np.abs(pivots)
    vecs *= phases
    if partner is not None:
        partner *= phases


def hermitian_eigen(h) -> EigenSystem:
    """Full eigensystem of a Hermitian matrix, by LAPACK's ``np.linalg.eigh``.

    Raises ShapeError for non-square input, ValidationError when ``h``
    deviates from Hermiticity by more than ``HERMITICITY_ATOL``, and
    ConvergenceError if LAPACK does not converge.
    """
    a = _as_matrix(h)
    n, m = a.shape
    if n != m:
        raise ShapeError(f"eigendecomposition needs a square matrix, got {n}x{m}")
    if n == 0:
        return EigenSystem(np.zeros(0), np.zeros((0, 0), dtype=complex), 0.0)
    defect = float(np.max(np.abs(a - a.conj().T)))
    if defect > HERMITICITY_ATOL:
        raise ValidationError(
            f"matrix is not Hermitian: max |H - adj(H)| = {defect:.3e} "
            f"exceeds {HERMITICITY_ATOL:g}"
        )

    a = (a + a.conj().T) / 2.0  # eigh reads one triangle; use both
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"np.linalg.eigh failed on the {n}x{n} matrix: {exc}") from exc
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    fix_phases(vectors)
    rotated = vectors.conj().T @ a @ vectors
    residual = float(np.max(np.abs(rotated - np.diag(np.diag(rotated)))))
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSystem(eigenvalues=values, eigenvectors=vectors, residual=residual)
