"""Density-matrix formalism: pure-state projectors, classical mixtures,
partial traces, purity, and post-measurement conditional states.

Product-basis convention: the composite index of |n> (x) |nu> is
``n * greek_dim + nu`` (row-major), so two-qubit bases ordered H, V on each
side produce the composite order HH, HV, VH, VV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ImpossibleOutcomeError, ShapeError, ValidationError
from .linalg import HERMITICITY_ATOL

if TYPE_CHECKING:  # pragma: no cover
    from .modes import BipartitePureState

TRACE_ATOL = 1e-10
# States and projection vectors must have unit norm to within this.
NORM_ATOL = 1e-9
# Below this, a measurement outcome counts as impossible and cannot be
# conditioned on.
OUTCOME_ATOL = 1e-12


def product_labels(latin_labels: Sequence[str], greek_labels: Sequence[str]) -> tuple[str, ...]:
    """Composite basis labels in row-major order (Latin outer, Greek inner).

    Single-character labels are concatenated (H, V -> HH, HV, VH, VV);
    longer ones are joined with a comma to stay unambiguous.
    """
    plain = all(len(str(l)) == 1 for l in latin_labels) and all(
        len(str(g)) == 1 for g in greek_labels
    )
    sep = "" if plain else ","
    return tuple(f"{l}{sep}{g}" for l in latin_labels for g in greek_labels)


@dataclass(frozen=True)
class DensityMatrix:
    """Square, Hermitian, unit-trace matrix with labelled basis rows.

    Hermiticity and trace are checked at construction; positive
    semidefiniteness is a documented invariant left to the producer.
    """

    matrix: np.ndarray
    basis_labels: tuple[str, ...] = field(default=())

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"density matrix must be square, got shape {m.shape}")
        labels = tuple(self.basis_labels) or tuple(str(i) for i in range(m.shape[0]))
        if len(labels) != m.shape[0]:
            raise ShapeError(
                f"{len(labels)} basis labels for a {m.shape[0]}-dimensional matrix"
            )
        defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if defect > HERMITICITY_ATOL:
            raise ValidationError(f"density matrix is not Hermitian (defect {defect:.3e})")
        tr = complex(np.trace(m)).real if m.size else 0.0
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError(f"density matrix trace is {tr!r}, expected 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "basis_labels", labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def require_normalized(state: BipartitePureState) -> None:
    """Raise ValidationError unless sum |C|^2 is within NORM_ATOL of 1."""
    total = float(np.sum(np.abs(np.asarray(state.amplitudes)) ** 2))
    if abs(total - 1.0) > NORM_ATOL:
        raise ValidationError(f"state is not normalized: sum |C|^2 = {total:.6g}")


def pure_density(state: BipartitePureState) -> DensityMatrix:
    """Projector |Psi><Psi| of a normalized two-party pure state."""
    require_normalized(state)
    vec = np.asarray(state.amplitudes, dtype=complex).reshape(-1)
    return DensityMatrix(
        np.outer(vec, vec.conj()),
        product_labels(state.latin_labels, state.greek_labels),
    )


def classical_mixture(
    terms: Sequence[tuple[float, str, str]],
    latin_basis: Sequence[str] | None = None,
    greek_basis: Sequence[str] | None = None,
) -> DensityMatrix:
    """Statistical mixture of product states |a>(x)|b>, one per (weight, a, b).

    The result is diagonal in the product basis: classically correlated, with
    no cross-particle coherences. Weights must be non-negative and sum to 1.
    Bases default to the sorted labels occurring in ``terms``.
    """
    if not terms:
        raise ValidationError("a classical mixture needs at least one term")
    weights = [float(w) for w, _, _ in terms]
    if min(weights) < -OUTCOME_ATOL:
        raise ValidationError(f"mixture weights must be non-negative, got {min(weights)!r}")
    total = sum(weights)
    if abs(total - 1.0) > TRACE_ATOL:
        raise ValidationError(f"mixture weights sum to {total!r}, expected 1")
    latin = tuple(latin_basis) if latin_basis is not None else tuple(sorted({a for _, a, _ in terms}))
    greek = tuple(greek_basis) if greek_basis is not None else tuple(sorted({b for _, _, b in terms}))
    gdim = len(greek)
    m = np.zeros((len(latin) * gdim, len(latin) * gdim), dtype=complex)
    for w, a, b in terms:
        if a not in latin:
            raise ValidationError(f"label {a!r} is not in the Latin basis {latin}")
        if b not in greek:
            raise ValidationError(f"label {b!r} is not in the Greek basis {greek}")
        idx = latin.index(a) * gdim + greek.index(b)
        m[idx, idx] += w
    return DensityMatrix(m, product_labels(latin, greek))


def _reshape_bipartite(rho: DensityMatrix, dims: tuple[int, int]) -> np.ndarray:
    latin_dim, greek_dim = dims
    n = rho.dim
    if n != latin_dim * greek_dim:
        raise ShapeError(
            f"density matrix is {n}x{n} but dims {latin_dim}x{greek_dim} "
            f"imply {latin_dim * greek_dim}x{latin_dim * greek_dim}"
        )
    return rho.matrix.reshape(latin_dim, greek_dim, latin_dim, greek_dim)


def partial_trace(
    rho: DensityMatrix,
    keep: str,
    dims: tuple[int, int],
    labels: Sequence[str] | None = None,
) -> DensityMatrix:
    """Reduced density matrix on one subsystem of a bipartite state.

    ``keep`` is "A" (Latin side, rows of the amplitude matrix) or "B"
    (Greek side); ``dims`` is (latin_dim, greek_dim).
    """
    t = _reshape_bipartite(rho, dims)
    if keep == "A":
        reduced = np.trace(t, axis1=1, axis2=3)
    elif keep == "B":
        reduced = np.trace(t, axis1=0, axis2=2)
    else:
        raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityMatrix(reduced, tuple(labels) if labels is not None else ())


def purity(rho: DensityMatrix) -> float:
    """Trace of rho squared; 1 for pure states, 1/dim for maximal mixtures."""
    # For Hermitian rho, Tr(rho^2) is the squared Frobenius norm.
    return float(np.vdot(rho.matrix, rho.matrix).real)


def conditional_state(
    rho: DensityMatrix,
    projector_on_a,
    dims: tuple[int, int],
    labels: Sequence[str] | None = None,
) -> tuple[float, DensityMatrix]:
    """State of subsystem B after projecting subsystem A onto a unit vector.

    Returns ``(probability, state)``. Raises ImpossibleOutcomeError when the
    outcome probability is below ``OUTCOME_ATOL``, i.e. the measurement can
    essentially never give this result.
    """
    p = np.asarray(projector_on_a, dtype=complex).reshape(-1)
    latin_dim, greek_dim = dims
    if p.size != latin_dim:
        raise ShapeError(f"projection vector has {p.size} components, expected {latin_dim}")
    norm = float(np.linalg.norm(p))
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValidationError(f"projection vector must have unit norm, got {norm:.6g}")
    t = _reshape_bipartite(rho, dims)
    reduced = np.einsum("i,iajb,j->ab", p.conj(), t, p)
    probability = float(np.trace(reduced).real)
    if probability < OUTCOME_ATOL:
        raise ImpossibleOutcomeError(
            f"outcome probability {probability:.3e} is below {OUTCOME_ATOL:g}; "
            "cannot condition on it"
        )
    return probability, DensityMatrix(
        reduced / probability, tuple(labels) if labels is not None else ()
    )
