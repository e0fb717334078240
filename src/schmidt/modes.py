"""Schmidt analysis of two-party pure states.

A pure state of systems A and B, |Psi> = sum_{n,nu} C(n,nu) |n> (x) |nu>, is
described here by its rectangular amplitude matrix C, rows indexed by the
Latin (A-side) basis and columns by the Greek (B-side) basis. The reduced
density matrices Tr_B |Psi><Psi| = C adj(C) and Tr_A |Psi><Psi| = C^T conj(C)
share their non-zero spectrum, and each eigenvector of one side pairs with an
eigenvector of the other to give the single-sum Schmidt form

    |Psi> = sum_s sqrt(lambda_s) |F^s> (x) |Phi^s>.

That form is the singular value decomposition C = U diag(s) adj(V): the
Schmidt coefficients are the singular values, lambda_s = s_s^2, F^s is
column s of U and Phi^s the complex conjugate of column s of V. The Greek
modes are stored as V's columns, so for complex amplitudes they are the
conjugates of the kets Phi^s. The state factorizes exactly when a single
term survives.

``_frozen_array``, ``_label_tuple`` and ``_hermitian_matrix`` are the records' intakes of
arrays, labels and Hermitian matrices, and ``_Record`` their read-only base, which also freezes
arrays a pickle or copy restores. No code in the package calls ``hermitian_eigen``, a Hermitian
eigensolver with the modes' phase convention, or builds an ``EigenSystem``: they stay only
because the benchmark's tracer wraps ``modes.hermitian_eigen``.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Iterable, Mapping

import numpy as np

from .errors import ConvergenceError, ShapeError, ValidationError

DEFAULT_RANK_THRESHOLD = 1e-10
# The reconstruction accuracy a report needs; no smaller component sets a mode's phase.
RESIDUAL_LIMIT = 1e-9
# ket-v1's LABEL rule, which the constructor applies and the ket tokens embed.
LABEL = r"[A-Za-z][A-Za-z0-9_]*"
# _hermitian_matrix, the intake of DensityMatrix and hermitian_eigen, allows this defect.
HERMITICITY_ATOL = 1e-10
# --strict-norm input and projection vectors must have unit norm to within this.
NORM_ATOL = 1e-9


def _frozen_array(value, dtype, ndim: int, name: str) -> np.ndarray:
    """A record's field as a ``dtype`` copy for ``_Record`` to freeze; the caller's is only read.
    ShapeError names the field unless ``np.asarray`` reads a bool, integer, float or, for a
    complex ``dtype``, complex array of rank ``ndim``: for a ragged list, text or a dict."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError, OverflowError) as exc:  # a ragged list, ...
        raise ShapeError(f"{name} is not a rectangular array of numbers: {exc}") from None
    if array.dtype.kind not in ("biuf" if dtype is float else "biufc"):  # text, a dict, ...
        numbers = "real numbers" if array.dtype.kind == "c" else "numbers"
        raise ShapeError(f"{name} is not a rectangular array of {numbers}: dtype {array.dtype}")
    if array.ndim != ndim:
        raise ShapeError(f"{name} must be a {ndim}-d {'matrix' if ndim == 2 else 'array'}, "
                         f"got shape {array.shape}")
    return array.astype(dtype)


def _label_tuple(value, name: str) -> tuple:
    """A label field as a tuple. ShapeError names the field for a value that does not
    iterate, and for text, bytes or a mapping, which iterate as characters or keys."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise ShapeError(f"{name} is not an array of strings: {value!r}")
    return tuple(value)


def _hermitian_matrix(value, name: str) -> np.ndarray:
    """A square, finite, Hermitian matrix as ``_frozen_array``'s complex copy. ShapeError
    names ``name`` unless it is square; ValidationError names the first non-finite entry,
    or the defect max |m - adj(m)| when it exceeds ``HERMITICITY_ATOL``."""
    m = _frozen_array(value, complex, 2, "matrix")
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():  # m - adj(m) would warn, and the defect be NaN
        i, j = (int(k) for k in np.argwhere(~np.isfinite(m))[0])
        raise ValidationError(f"{name} is not Hermitian: entry {(i, j)} "
                              f"is not finite: {complex(m[i, j])!r}")
    with np.errstate(over="ignore"):  # finite entries can differ by more than the float maximum
        defect = float(np.max(np.abs(m - m.conj().T), initial=0.0))
    if defect > HERMITICITY_ATOL:
        raise ValidationError(f"{name} is not Hermitian (defect {defect:.3e})")
    return m


class _Record:
    """Base of the records: each constructor checks its arguments, then stores every
    field once with ``__setstate__``. Fields and arrays are read-only, and equality is identity."""

    def __setstate__(self, fields):
        """Store ``fields``, arrays read-only: constructors, pickle and copy all end here."""
        for value in fields.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        vars(self).update(fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


class BipartitePureState(_Record):
    """Two-party pure state in a fixed product basis, unit-norm by construction.

    ``amplitudes[i, j]`` multiplies ``|latin_labels[i]> (x) |greek_labels[j]>``.
    The constructor takes raw coefficients. It checks the shape, that the labels on
    each side are unique strings matching ``LABEL`` and, naming the ket, that every
    coefficient is finite; it stores them rescaled to unit norm and read-only. Two
    fields are derived, not passed: ``coefficients``, a read-only complex copy of
    the coefficients given, and ``norm``, their Euclidean norm.
    """

    def __init__(self, latin_labels, greek_labels, amplitudes):
        latin = _label_tuple(latin_labels, "latin_labels")
        greek = _label_tuple(greek_labels, "greek_labels")
        coefs = _frozen_array(amplitudes, complex, 2, "amplitudes")
        if coefs.shape != (len(latin), len(greek)):
            raise ShapeError(
                f"amplitude matrix is {coefs.shape[0]}x{coefs.shape[1]} but there are "
                f"{len(latin)} Latin and {len(greek)} Greek labels"
            )
        fullmatch = re.compile(LABEL).fullmatch  # compiled on first use, then cached by re
        for side, labels in (("Latin", latin), ("Greek", greek)):
            for index, label in enumerate(labels):
                if not (isinstance(label, str) and fullmatch(label)):
                    raise ValidationError(f"{side} label {index} is not a ket-v1 label (a letter, "
                                          f"then letters, digits or '_'): {label!r}")
            if len(set(labels)) != len(labels):
                raise ValidationError(f"{side} labels are not unique: {labels}")
        finite = np.isfinite(coefs)
        if not finite.all():
            i, j = (int(k) for k in np.argwhere(~finite)[0])
            raise ValidationError(f"amplitude {(i, j)} of |{latin[i]}>(x)|"
                                  f"{greek[j]}> is not finite: {complex(coefs[i, j])!r}")
        flat = coefs.ravel().view(float)  # re, im, re, ... row-major in any memory layout
        peak = float(np.max(np.abs(flat), initial=0.0))
        if peak == 0.0:
            raise ValidationError("cannot build a state from all-zero amplitudes")
        # Scale by the power of two just below the largest |re| or |im| before
        # taking the norm, so that squares of tiny or huge coefficients neither
        # underflow nor overflow. ldexp scales exactly, so for coefficients
        # that need no scaling every bit of the result is unchanged.
        exponent = math.frexp(peak)[1] - 1
        amps = np.ldexp(flat, -exponent).view(complex).reshape(coefs.shape)
        scaled_norm = float(np.linalg.norm(amps))
        norm = scaled_norm * 2.0**exponent
        if math.isinf(norm):
            raise ValidationError(
                f"amplitude norm {scaled_norm!r} * 2**{exponent} exceeds the float range"
            )
        amps /= scaled_norm
        self.__setstate__(dict(latin_labels=latin, greek_labels=greek, amplitudes=amps,
                               coefficients=coefs, norm=norm))

    @classmethod
    def from_amplitudes(cls, latin_labels, greek_labels, amplitudes) -> "BipartitePureState":
        """Same as ``cls(latin_labels, greek_labels, amplitudes)``: the named
        entry that the ket parser, the file reader and the catalog use."""
        return cls(latin_labels, greek_labels, amplitudes)

    @property
    def latin_dim(self) -> int:
        return len(self.latin_labels)

    @property
    def greek_dim(self) -> int:
        return len(self.greek_labels)


class SchmidtDecomposition(_Record):
    """Schmidt data of a two-party pure state, as read-only copies of the arrays given.

    ``lambdas`` (1-d) holds all min(latin_dim, greek_dim) squared singular values
    of the amplitude matrix in descending order. Column ``s`` of the 2-d
    ``latin_modes`` / ``greek_modes`` is the paired mode vector for
    ``lambdas[s]``; modes are only kept for the eigenvalues above the rank
    threshold, so ``rank``, the number of mode pairs, is derived from them.
    The Latin modes are the Schmidt kets F^s; the Greek modes are the columns
    of V in C = U diag(s) adj(V), the complex conjugates of the kets Phi^s.
    Other shapes raise ShapeError, and modes that do not pair up ValidationError.
    """

    def __init__(self, lambdas, latin_modes, greek_modes):
        lam = _frozen_array(lambdas, float, 1, "lambdas")
        f = _frozen_array(latin_modes, complex, 2, "latin_modes")
        g = _frozen_array(greek_modes, complex, 2, "greek_modes")
        if not f.shape[1] == g.shape[1] <= len(lam):
            raise ValidationError(f"{f.shape[1]} Latin and {g.shape[1]} Greek modes for "
                                  f"{len(lam)} eigenvalues: one pair per leading eigenvalue")
        self.__setstate__(dict(lambdas=lam, latin_modes=f, greek_modes=g))

    @property
    def rank(self) -> int:
        return self.latin_modes.shape[1]


class EigenSystem(_Record):
    """Eigendecomposition of a Hermitian matrix, as read-only copies of the arrays given.

    ``eigenvalues`` is sorted non-increasing; column ``s`` of ``eigenvectors``
    is the unit-norm eigenvector belonging to ``eigenvalues[s]``.  ``residual``
    is the largest off-diagonal magnitude of ``adj(V) H V``, measured on the
    returned eigenvectors.
    """

    def __init__(self, eigenvalues, eigenvectors, residual):
        values = _frozen_array(eigenvalues, float, 1, "eigenvalues")
        vectors = _frozen_array(eigenvectors, complex, 2, "eigenvectors")
        self.__setstate__(dict(eigenvalues=values, eigenvectors=vectors, residual=residual))


def hermitian_eigen(h) -> EigenSystem:
    """Full eigensystem of a Hermitian matrix, by LAPACK's ``np.linalg.eigh``.

    ``_hermitian_matrix`` checks ``h``: ShapeError unless it is square, ValidationError
    for a non-finite entry or for a matrix too far from Hermitian.
    Raises ConvergenceError if LAPACK does not converge.
    """
    a = _hermitian_matrix(h, "matrix")
    n = a.shape[0]
    if n == 0:
        return EigenSystem(np.zeros(0), np.zeros((0, 0), dtype=complex), 0.0)
    a = (a + a.conj().T) / 2.0  # eigh reads one triangle; use both
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"np.linalg.eigh failed on the {n}x{n} matrix: {exc}") from exc
    values, vectors = values[::-1], vectors[:, ::-1]
    fix_phases(vectors)
    rotated = vectors.conj().T @ a @ vectors
    residual = float(np.max(np.abs(rotated - np.diag(np.diag(rotated)))))
    return EigenSystem(eigenvalues=values, eigenvectors=vectors, residual=residual)


def fix_phases(vecs: np.ndarray, partner: np.ndarray | None = None) -> None:
    """Give each column of ``vecs`` its deterministic phase, in place.

    Column ``s`` is multiplied by the unit phase that makes its first
    component larger than RESIDUAL_LIMIT in magnitude real and positive, which
    makes non-degenerate vectors unique. Column ``s`` of ``partner`` (a
    Schmidt mode paired with ``vecs[:, s]``) is multiplied by the same phase,
    which leaves the product ``vecs[:, s] adj(partner[:, s])`` unchanged.
    A finite unit-norm column always has such a component.
    """
    pivots = vecs[(np.abs(vecs) > RESIDUAL_LIMIT).argmax(axis=0), np.arange(vecs.shape[1])]
    phases = pivots.conj() / np.abs(pivots)
    vecs *= phases
    if partner is not None:
        partner *= phases


def schmidt_decompose(
    state: BipartitePureState,
    threshold: float = DEFAULT_RANK_THRESHOLD,
) -> SchmidtDecomposition:
    """Schmidt spectrum and paired modes from one SVD of the amplitude matrix.

    Eigenvalues at or below ``threshold`` keep their slot in ``lambdas`` but
    get no mode pair. Each pair gets the phase that makes the first
    significant component of the smaller side's mode (Latin on a tie) real
    and positive. The state is unit-norm by construction, so only the
    threshold is checked: ValidationError unless it is a finite positive real number.
    Raises ConvergenceError if LAPACK does not converge or returns a non-finite factor.
    """
    if not (isinstance(threshold, numbers.Real) and 0.0 < threshold < math.inf):  # NaN fails too
        raise ValidationError(f"rank threshold must be finite and positive, got {threshold!r}")
    try:
        # Thin factors: a full V of a 2 x 4096 state would hold 4096^2 entries.
        u, s, vh = np.linalg.svd(state.amplitudes, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"np.linalg.svd failed on the {state.latin_dim}x"
                               f"{state.greek_dim} amplitude matrix: {exc}") from exc
    if not all(np.isfinite(factor).all() for factor in (u, s, vh)):
        raise ConvergenceError("np.linalg.svd returned a non-finite factor of the "
                               f"{state.latin_dim}x{state.greek_dim} amplitude matrix")
    lambdas = s * s
    rank = int(np.sum(lambdas > threshold))
    latin_modes = u[:, :rank]
    greek_modes = vh[:rank].conj().T
    if state.latin_dim <= state.greek_dim:
        fix_phases(latin_modes, greek_modes)
    else:
        fix_phases(greek_modes, latin_modes)
    return SchmidtDecomposition(lambdas, latin_modes, greek_modes)


def schmidt_number(decomposition: SchmidtDecomposition) -> float:
    """Effective number of Schmidt terms, 1 / sum(lambda^2).

    Equals 1 for product states and the common dimension for maximally
    entangled ones; it is the reciprocal purity of either reduced state.
    """
    return float(1.0 / np.sum(np.square(decomposition.lambdas)))


def entanglement_entropy(decomposition: SchmidtDecomposition) -> float:
    """Von Neumann entropy of either reduced state, in bits.

    Computed as -sum(lambda * log2(lambda)) over the ``rank`` eigenvalues
    above the rank threshold; zero exactly when a single mode carries
    everything.
    """
    lam = decomposition.lambdas[:decomposition.rank]
    entropy = float(-np.sum(lam * np.log2(lam)))
    # Roundoff can push a lone eigenvalue of 1 to a -1e-16 entropy.
    return entropy if entropy > 0.0 else 0.0


def is_entangled(decomposition: SchmidtDecomposition) -> bool:
    """True when more than one Schmidt term is needed, i.e. no factorization."""
    return decomposition.rank >= 2


def reconstruct(decomposition: SchmidtDecomposition) -> np.ndarray:
    """Rebuild the amplitude matrix, C = sum_s sqrt(lambda_s) f_s adj(g_s), with
    f_s and g_s column s of ``latin_modes`` and ``greek_modes``."""
    d = decomposition
    return (d.latin_modes * np.sqrt(d.lambdas[:d.rank])) @ d.greek_modes.conj().T
