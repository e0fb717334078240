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

``_frozen_array``, ``_entries``, ``_label_tuple`` and ``_refuse_above_one`` read number arrays,
containers (the one rule for state labels, density parts and mixture terms), labels (a state's
sides, a density matrix's parts) and entries bounded by 1; ``_Record`` is the records' read-only
base, which also freezes arrays a pickle or copy restores.
The SVD in ``schmidt_decompose`` is the one factorization; ``hermitian_eigen`` only raises, and
its name stays because the benchmark's tracer wraps it.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from collections.abc import Iterable, Mapping

import numpy as np

from .errors import ConvergenceError, ShapeError, ValidationError

DEFAULT_RANK_THRESHOLD = 1e-10
# The one accuracy tolerance: verify's residual and orthonormality defect, the lambdas' range and
# sum, unit norms, entries at most 1, a density matrix's Hermitian defect and trace, phase pivots.
RESIDUAL_LIMIT = 1e-9
# ket-v1's LABEL rule, which the constructor applies and the ket tokens embed.
LABEL = r"[A-Za-z][A-Za-z0-9_]*"


def _frozen_array(value, dtype, ndim: int, name: str) -> np.ndarray:
    """A record's field as a ``dtype`` copy for ``_Record`` to freeze; the caller's is only read.
    ShapeError names the field unless ``np.asarray`` reads a bool, integer, float or, for a
    complex ``dtype``, complex array of rank ``ndim``: for a ragged list, text or a dict."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError, OverflowError) as exc:  # a ragged list, ...
        raise ShapeError(f"{name} is not a rectangular array of numbers: {exc}") from None
    if array.dtype.kind not in ("biuf" if dtype is float else "biufc"):  # text, a dict, ...
        kind = "real numbers" if array.dtype.kind == "c" else "numbers"
        raise ShapeError(f"{name} is not a rectangular array of {kind}: dtype {array.dtype}")
    if array.ndim != ndim:
        raise ShapeError(f"{name} must be a {ndim}-d {'matrix' if ndim == 2 else 'array'}, "
                         f"got shape {array.shape}")
    return array.astype(dtype)


def _entries(value, name: str, what: str) -> tuple:
    """A caller's array as a tuple. ShapeError names ``name``, an array of ``what``, for text,
    bytes or a mapping, which iterate as characters or keys, and for a value that does not."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise ShapeError(f"{name} is not an array of {what}: {value!r}")
    return tuple(value)


def _label_tuple(value, name: str, side: str = "") -> tuple:
    """A label field read by ``_entries``. ValidationError names by index the first label of a
    state's ``side`` not a ``LABEL`` (of another field, not a str), then the first repeat."""
    entries, who = _entries(value, name, "strings"), side or name
    fullmatch = re.compile(LABEL if side else "(?s).*").fullmatch  # any str in a density part
    for index, label in enumerate(entries):
        if not (isinstance(label, str) and fullmatch(label)):
            rule = "a ket-v1 label (a letter, then letters, digits or '_')" if side else "a str"
            raise ValidationError(f"{who} label {index} is not {rule}: {label!r}")
    if len(set(entries)) != len(entries):
        seen: dict[str, int] = {}
        for index, label in enumerate(entries):
            if seen.setdefault(label, index) != index:
                raise ValidationError(f"{who} label {index} repeats label {seen[label]}: {label!r}")
    return entries


def _refuse_above_one(values: np.ndarray, name: str) -> None:
    """ValidationError names the first entry of ``values`` that is NaN or above 1 +
    ``RESIDUAL_LIMIT`` in magnitude. Entries that pass square and sum without overflow."""
    magnitude = np.abs(values)
    outside = ~(magnitude <= 1.0 + RESIDUAL_LIMIT)  # NaN too, and no valid input has one
    if outside.any():
        index = tuple(int(k) for k in np.argwhere(outside)[0])  # row-major
        where = f"{name} {index if len(index) > 1 else index[0]}"
        if np.isnan(magnitude[index]):
            raise ValidationError(f"{where} is not a number: {complex(values[index])!r}")
        raise ValidationError(f"{where} has magnitude {float(magnitude[index])!r}, above 1")


class _Record:
    """Base of the records: each constructor checks its arguments, then stores every
    field once with ``__setstate__``. Fields and arrays are read-only, and equality is identity.
    The records are plain classes, not dataclasses, and ``repr`` lists their fields in order as
    ``Name(field=value, ...)``. pickle and copy restore a record through ``__setstate__`` too,
    not the refused ``__setattr__``, so the arrays numpy restores writable are frozen again."""

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
    The constructor takes raw coefficients. It checks that the labels on each side are
    unique strings matching ``LABEL``, then the shape and, naming the ket, that every
    coefficient is finite; it stores them rescaled to unit norm and read-only. Two
    fields are derived, not passed: ``coefficients``, a read-only complex copy of
    the coefficients given, and ``norm``, their Euclidean norm.
    """

    def __init__(self, latin_labels, greek_labels, amplitudes):
        latin = _label_tuple(latin_labels, "latin_labels", "Latin")
        greek = _label_tuple(greek_labels, "greek_labels", "Greek")
        coefs = _frozen_array(amplitudes, complex, 2, "amplitudes")
        if coefs.shape != (len(latin), len(greek)):
            raise ShapeError(
                f"amplitude matrix is {coefs.shape[0]}x{coefs.shape[1]} but there are "
                f"{len(latin)} Latin and {len(greek)} Greek labels"
            )
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

    ``lambdas`` (1-d) holds the squared singular values of the amplitude matrix in descending
    order, one per row of the shorter mode array. Column ``s`` of the 2-d ``latin_modes`` /
    ``greek_modes`` is the paired mode vector for ``lambdas[s]``; only eigenvalues above the rank
    threshold keep modes, so ``rank``, the number of mode pairs, is derived. The Latin modes are
    the Schmidt kets F^s; the Greek modes are the columns of V in C = U diag(s) adj(V), the
    conjugates of kets Phi^s. Other shapes and counts raise ShapeError. ValidationError refuses
    modes that do not pair up, lambdas not in [0, 1], rising, zero for a kept pair or not summing
    to 1, and a mode entry that is NaN or above 1 in magnitude, each within ``RESIDUAL_LIMIT``: no
    summary sees a bad spectrum. Each refusal names the index and the value. Nested lists are read
    as arrays. ``verify(state, d)`` rebuilds the state and checks that each side is orthonormal.
    """

    def __init__(self, lambdas, latin_modes, greek_modes):
        lam = _frozen_array(lambdas, float, 1, "lambdas")
        f = _frozen_array(latin_modes, complex, 2, "latin_modes")
        g = _frozen_array(greek_modes, complex, 2, "greek_modes")
        if not f.shape[1] == g.shape[1] <= len(lam):
            raise ValidationError(f"{f.shape[1]} Latin and {g.shape[1]} Greek modes for "
                                  f"{len(lam)} eigenvalues: one pair per leading eigenvalue")
        if len(lam) != min(len(f), len(g)):
            raise ShapeError(f"{len(lam)} eigenvalues for modes with {len(f)} Latin and {len(g)} "
                             "Greek rows: one per row of the shorter side")
        values, rank = lam.tolist(), f.shape[1]
        for s, value in enumerate(values):
            if not 0.0 <= value <= 1.0 + RESIDUAL_LIMIT:  # false for NaN too
                raise ValidationError(f"lambda {s} is {value!r}, outside [0, 1]")
            if s and value > values[s - 1]:
                raise ValidationError(f"lambda {s} is {value!r}, above lambda {s - 1}")
            if s < rank and value == 0.0:
                raise ValidationError(f"lambda {s} is {value!r}, but its mode pair is kept")
        if not abs(math.fsum(values) - 1.0) <= RESIDUAL_LIMIT:
            raise ValidationError(f"lambdas sum to {math.fsum(values)!r}, expected 1")
        for name, modes in (("latin_modes", f), ("greek_modes", g)):
            _refuse_above_one(modes, f"{name} entry")  # bounds verify's products
        self.__setstate__(dict(lambdas=lam, latin_modes=f, greek_modes=g))

    @property
    def rank(self) -> int:
        return self.latin_modes.shape[1]


def hermitian_eigen(h):
    """Retired: no code factorizes a Hermitian matrix; the Schmidt data come from one SVD."""
    raise NotImplementedError("hermitian_eigen is retired; use schmidt_decompose")


def schmidt_decompose(
    state: BipartitePureState,
    threshold: float = DEFAULT_RANK_THRESHOLD,
) -> SchmidtDecomposition:
    """Schmidt spectrum and paired modes from one SVD of the amplitude matrix.

    Eigenvalues at or below ``threshold`` keep their slot in ``lambdas`` but
    get no mode pair. Both modes of a pair are multiplied by conj(p)/|p|, where
    p is the first component above RESIDUAL_LIMIT in magnitude of the smaller
    side's mode (Latin on a tie); a unit-norm column always has one. p becomes
    real and positive, which makes non-degenerate pairs unique, and the shared
    phase leaves the product f adj(g) unchanged. The state is unit-norm by
    construction, so only the threshold is checked: ValidationError unless it
    is a positive real no greater than sys.float_info.max, not a bool (an int
    beyond the float range would overflow the comparison with ``lambdas``).
    Raises ConvergenceError if LAPACK does not converge or returns a non-finite factor.
    """
    if isinstance(threshold, bool) or not (isinstance(threshold, numbers.Real)
                                           and 0.0 < threshold <= sys.float_info.max):  # NaN fails too
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
    side = latin_modes if state.latin_dim <= state.greek_dim else greek_modes
    pivots = side[(np.abs(side) > RESIDUAL_LIMIT).argmax(axis=0), np.arange(rank)]
    phases = pivots.conj() / np.abs(pivots)
    latin_modes *= phases
    greek_modes *= phases
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


def verify(state: BipartitePureState, decomposition: SchmidtDecomposition,
           rebuild=reconstruct) -> float:
    """Accept ``decomposition`` as the Schmidt data of ``state`` and return the residual
    ``max|rebuild(decomposition) - amplitudes|``, or raise: ShapeError unless the modes' row
    counts are the state's shape, then ConvergenceError for a residual above RESIDUAL_LIMIT or NaN
    (naming the weight the rank threshold dropped, when above zero), then for a side M not
    orthonormal, its defect ``max|adj(M) M - I|`` above RESIDUAL_LIMIT: K and the entropy read
    only ``lambdas``. ``rebuild`` is ``reconstruct``, which ``cli`` passes under its own name for
    ``perfbench/tracing.py`` to wrap; the parameter can go when the tracer no longer patches it."""
    d = decomposition
    rows = (len(d.latin_modes), len(d.greek_modes))
    if rows != state.amplitudes.shape:
        raise ShapeError(f"modes with {rows[0]} Latin and {rows[1]} Greek rows for a "
                         f"{state.latin_dim} x {state.greek_dim} state")
    residual = float(np.max(np.abs(rebuild(d) - state.amplitudes)))
    if not residual <= RESIDUAL_LIMIT:  # false for NaN too
        message = f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_LIMIT:g}"
        dropped = float(np.sum(d.lambdas[d.rank:]))
        if dropped > 0.0:
            message += f"; the rank threshold dropped Schmidt weight {dropped:.6g}"
        raise ConvergenceError(message)
    for name, modes in (("latin_modes", d.latin_modes), ("greek_modes", d.greek_modes)):
        defect = float(np.max(np.abs(modes.conj().T @ modes - np.eye(d.rank)), initial=0.0))
        if defect > RESIDUAL_LIMIT:
            raise ConvergenceError(f"{name} are not orthonormal: defect {defect:.3e} "
                                   f"exceeds {RESIDUAL_LIMIT:g}")
    return residual
