"""Density-matrix formalism over ``modes``' states: pure-state projectors, classical
mixtures, partial traces, the reduced states ``gram_latin``/``gram_greek`` taken
straight from the amplitude matrix, purity, and post-measurement conditional states.

Product-basis convention: the composite index of |n> (x) |nu> is ``n * greek_dim + nu``
(row-major), so two-qubit bases ordered H, V on each side give the order HH, HV, VH, VV.

``pure_density`` and ``classical_mixture`` record the Latin and Greek bases in
``DensityMatrix.parts``; ``partial_trace`` and ``conditional_state`` read the split from
there, give their one-party result the kept basis, and raise ShapeError for a one-party
matrix. ``DensityMatrix`` refuses a NaN entry or one above 1 in magnitude before it takes
m - adj(m), so no sum this module takes can overflow. Every bound here is ``modes.RESIDUAL_LIMIT``,
and a trace is summed by the rule that sums a Schmidt spectrum, so diag(lambda) passes with lambda.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import ImpossibleOutcomeError, ShapeError, ValidationError
from .modes import (RESIDUAL_LIMIT, BipartitePureState, _entries, _frozen_array, _label_tuple,
                    _Record, _refuse_above_one, _refuse_unless_one)


def product_labels(latin_labels: Sequence[str], greek_labels: Sequence[str]) -> tuple[str, ...]:
    """Composite basis labels in row-major order (Latin outer, Greek inner).

    Single-character labels are concatenated (H, V -> HH, HV, VH, VV);
    longer ones are joined with a comma (a, alpha -> a,alpha), so labels that
    hold a comma can print alike: "a,b" with "c" and "a" with "b,c" give "a,b,c".
    """
    plain = all(len(str(label)) == 1 for label in (*latin_labels, *greek_labels))
    sep = "" if plain else ","
    return tuple(f"{l}{sep}{g}" for l in latin_labels for g in greek_labels)


class DensityMatrix(_Record):
    """Square, Hermitian, unit-trace matrix with labelled basis rows.

    ``parts`` holds one basis of unique ``str`` labels per party, one or two of them.
    ``basis_labels`` is derived: the single basis, the two bases' ``product_labels``, or "0",
    "1", ... with no part. The checks run in this order: the matrix is square, every entry is a
    number of magnitude at most 1 (as in a positive semidefinite matrix of trace 1), its Hermitian
    defect max |m - adj(m)| is 0; then each part's labels, the part and label counts, the trace is
    1, summed exactly; each within ``RESIDUAL_LIMIT``. Positive semidefiniteness is the producer's.
    """

    def __init__(self, matrix, parts=()):
        m = _frozen_array(matrix, complex, 2, "matrix")
        if m.shape[0] != m.shape[1]:
            raise ShapeError(f"density matrix must be square, got shape {m.shape}")
        _refuse_above_one(m, "density matrix entry")  # bounds every sum below
        defect = float(np.max(np.abs(m - m.conj().T), initial=0.0))
        if defect > RESIDUAL_LIMIT:
            raise ValidationError(f"density matrix is not Hermitian (defect {defect:.3e})")
        parts = tuple(_label_tuple(part, f"parts[{i}]")
                      for i, part in enumerate(_entries(parts, "parts", "label arrays")))
        if len(parts) > 2:
            raise ShapeError(f"a density matrix has one or two parts, got {len(parts)}")
        labels = (product_labels(*parts) if len(parts) == 2 else parts[0] if parts
                  else tuple(str(i) for i in range(m.shape[0])))
        # Also catches parts whose sizes do not multiply to the dimension.
        if len(labels) != m.shape[0]:
            raise ShapeError(f"{len(labels)} basis labels for a {m.shape[0]}-dimensional matrix")
        _refuse_unless_one(m.diagonal().real.tolist(), "density matrix trace is")
        self.__setstate__(dict(matrix=m, parts=parts, basis_labels=labels))


def pure_density(state: BipartitePureState) -> DensityMatrix:
    """Projector |Psi><Psi| of a two-party pure state (unit-norm by construction)."""
    vec = state.amplitudes.reshape(-1)
    return DensityMatrix(np.outer(vec, vec.conj()), (state.latin_labels, state.greek_labels))


def classical_mixture(terms: Sequence[tuple[float, str, str]]) -> DensityMatrix:
    """Statistical mixture of product states |a>(x)|b>, one per (weight, a, b).

    The result is diagonal in the product basis: classically correlated, with
    no cross-particle coherences. Weights must be non-negative and sum to 1, within
    ``RESIDUAL_LIMIT``; labels must be strings. Each side's basis is the sorted labels that
    occur on it in ``terms``; the weights of a repeated pair add, as Python floats.
    """
    terms = _entries(terms, "mixture terms", "(weight, a, b) triples")
    if not terms:
        raise ValidationError("a classical mixture needs at least one term")
    for term in terms:
        try:
            _, a, b = term
        except (TypeError, ValueError):  # not three items
            raise ValidationError(f"mixture term {term!r} is not a (weight, a, b) triple") from None
        for label in (a, b):
            if not isinstance(label, str):  # sorting needs one type, and None is no label
                raise ValidationError(
                    f"mixture term {term!r} has a label that is not a str: {label!r}")
    weights = _frozen_array([w for w, _, _ in terms], float, 1, "mixture weights")
    low = float(weights.min())
    if not low >= -RESIDUAL_LIMIT:  # false for NaN too
        raise ValidationError(f"mixture weights must be non-negative, got {low!r}")
    latin = tuple(sorted({a for _, a, _ in terms}))
    greek = tuple(sorted({b for _, _, b in terms}))
    diagonal = [0.0] * (len(latin) * len(greek))
    for w, (_, a, b) in zip(weights.tolist(), terms):  # Python floats overflow to inf silently
        diagonal[latin.index(a) * len(greek) + greek.index(b)] += w
    return DensityMatrix(np.diag(diagonal), parts=(latin, greek))


def _two_party(rho: DensityMatrix, what: str) -> np.ndarray:
    """``rho.matrix`` as a (latin, greek, latin, greek) tensor."""
    if len(rho.parts) != 2:
        raise ShapeError(f"{what} needs a two-party density matrix, as built by pure_density "
                         "or classical_mixture")
    latin_dim, greek_dim = (len(part) for part in rho.parts)
    return rho.matrix.reshape(latin_dim, greek_dim, latin_dim, greek_dim)


def partial_trace(rho: DensityMatrix, keep: str) -> DensityMatrix:
    """Reduced density matrix on one subsystem of a two-party state.

    ``keep`` is "A" (Latin side, rows of the amplitude matrix) or "B"
    (Greek side); the result is labelled with the kept side's basis.
    """
    t = _two_party(rho, "a partial trace")
    if keep == "A":
        return DensityMatrix(np.trace(t, axis1=1, axis2=3), rho.parts[:1])
    if keep == "B":
        return DensityMatrix(np.trace(t, axis1=0, axis2=2), rho.parts[1:])
    raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")


def gram_latin(state: BipartitePureState) -> DensityMatrix:
    """Reduced density matrix on the Latin side: Tr_B |Psi><Psi| = C adj(C)."""
    c = state.amplitudes
    return DensityMatrix(c @ c.conj().T, (state.latin_labels,))


def gram_greek(state: BipartitePureState) -> DensityMatrix:
    """Reduced density matrix on the Greek side: Tr_A |Psi><Psi| = C^T conj(C)."""
    c = state.amplitudes
    return DensityMatrix(c.T @ c.conj(), (state.greek_labels,))


def purity(rho: DensityMatrix) -> float:
    """Trace of rho squared; 1 for pure states, 1/dim for maximal mixtures."""
    # For Hermitian rho, Tr(rho^2) is the squared Frobenius norm.
    return float(np.vdot(rho.matrix, rho.matrix).real)


def conditional_state(rho: DensityMatrix, projector_on_a) -> tuple[float, DensityMatrix]:
    """State of subsystem B after projecting subsystem A onto a unit vector.

    Returns ``(probability, state)``, the state labelled with the Greek basis. ValidationError
    refuses a projection vector that is not a unit vector, a component that is NaN or above
    1 + ``RESIDUAL_LIMIT`` in magnitude before the norm is taken, and ImpossibleOutcomeError an
    outcome probability below ``RESIDUAL_LIMIT``, which the accuracy of ``rho`` cannot tell from 0.
    """
    t = _two_party(rho, "a conditional state")
    p = _frozen_array(projector_on_a, complex, 1, "projection vector")
    if p.size != t.shape[0]:
        raise ShapeError(f"projection vector has {p.size} components, expected {t.shape[0]}")
    _refuse_above_one(p, "projection vector component")  # or the norm overflows
    norm = float(np.linalg.norm(p))
    if abs(norm - 1.0) > RESIDUAL_LIMIT:
        raise ValidationError(f"projection vector must have unit norm, got {norm:.6g}")
    reduced = np.einsum("i,iajb,j->ab", p.conj(), t, p)
    probability = float(np.trace(reduced).real)
    if probability < RESIDUAL_LIMIT:
        raise ImpossibleOutcomeError(f"outcome probability {probability!r} is below "
                                     f"{RESIDUAL_LIMIT:g}; cannot condition on it")
    return probability, DensityMatrix(reduced / probability, rho.parts[1:])
