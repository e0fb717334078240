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

``_frozen_array`` and ``_label_tuple`` are the records' one array and label
intakes. No code in the package calls ``hermitian_eigen``, a Hermitian
eigensolver with the modes' phase convention, or builds an ``EigenSystem``:
they stay only because the benchmark's tracer wraps ``modes.hermitian_eigen``.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ShapeError, ValidationError

DEFAULT_RANK_THRESHOLD = 1e-10
# The reconstruction accuracy a report needs; no smaller component sets a mode's phase.
RESIDUAL_LIMIT = 1e-9
# ket-v1's LABEL rule, which the constructor applies and the ket tokens embed.
LABEL = r"[A-Za-z][A-Za-z0-9_]*"
# Density matrices and hermitian_eigen inputs may deviate from Hermiticity by this.
HERMITICITY_ATOL = 1e-10
# --strict-norm input and projection vectors must have unit norm to within this.
NORM_ATOL = 1e-9


def _frozen_array(value, dtype, ndim: int, name: str) -> np.ndarray:
    """A record's field as a read-only ``dtype`` copy, the caller's array left writable.
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
    array = array.astype(dtype)
    array.setflags(write=False)
    return array


def _label_tuple(value, name: str) -> tuple:
    """A label field as a tuple. ShapeError names the field for a value that does not
    iterate, and for text, bytes or a mapping, which iterate as characters or keys."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise ShapeError(f"{name} is not an array of strings: {value!r}")
    return tuple(value)


@dataclass(frozen=True, eq=False)
class BipartitePureState:
    """Two-party pure state in a fixed product basis, unit-norm by construction.

    ``amplitudes[i, j]`` multiplies ``|latin_labels[i]> (x) |greek_labels[j]>``.
    The constructor takes raw coefficients. It checks the shape, that the labels on
    each side are unique strings matching ``LABEL`` and, naming the ket, that every
    coefficient is finite; it stores them rescaled to unit norm and read-only. Two
    fields are derived, not passed: ``coefficients``, a read-only complex copy of
    the coefficients given, and ``norm``, their Euclidean norm.
    """

    latin_labels: tuple[str, ...]
    greek_labels: tuple[str, ...]
    amplitudes: np.ndarray
    coefficients: np.ndarray = field(init=False)
    norm: float = field(init=False)

    def __post_init__(self):
        latin = _label_tuple(self.latin_labels, "latin_labels")
        greek = _label_tuple(self.greek_labels, "greek_labels")
        coefs = _frozen_array(self.amplitudes, complex, 2, "amplitudes")
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
        amps.setflags(write=False)
        object.__setattr__(self, "latin_labels", latin)
        object.__setattr__(self, "greek_labels", greek)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "coefficients", coefs)
        object.__setattr__(self, "norm", norm)

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


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
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

    lambdas: np.ndarray
    latin_modes: np.ndarray
    greek_modes: np.ndarray

    def __post_init__(self):
        lam = _frozen_array(self.lambdas, float, 1, "lambdas")
        f = _frozen_array(self.latin_modes, complex, 2, "latin_modes")
        g = _frozen_array(self.greek_modes, complex, 2, "greek_modes")
        if not f.shape[1] == g.shape[1] <= len(lam):
            raise ValidationError(f"{f.shape[1]} Latin and {g.shape[1]} Greek modes for "
                                  f"{len(lam)} eigenvalues: one pair per leading eigenvalue")
        for name, array in (("lambdas", lam), ("latin_modes", f), ("greek_modes", g)):
            object.__setattr__(self, name, array)

    @property
    def rank(self) -> int:
        return self.latin_modes.shape[1]


@dataclass(frozen=True, eq=False)
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


def hermitian_eigen(h) -> EigenSystem:
    """Full eigensystem of a Hermitian matrix, by LAPACK's ``np.linalg.eigh``.

    Raises ShapeError unless ``h`` is a square matrix, ValidationError when it
    deviates from Hermiticity by more than ``HERMITICITY_ATOL``, and
    ConvergenceError if LAPACK does not converge.
    """
    a = _frozen_array(h, complex, 2, "matrix")
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"eigendecomposition needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return EigenSystem(np.zeros(0), np.zeros((0, 0), dtype=complex), 0.0)
    defect = float(np.max(np.abs(a - a.conj().T)))
    if not defect <= HERMITICITY_ATOL:  # false for NaN too
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
