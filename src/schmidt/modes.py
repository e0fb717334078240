"""Schmidt analysis of two-party pure states.

A pure state of systems A and B, |Psi> = sum_{n,nu} C(n,nu) |n> (x) |nu>, is
described here by its rectangular amplitude matrix C, rows indexed by the
Latin (A-side) basis and columns by the Greek (B-side) basis. The two reduced
density matrices are the Gram products C*adj(C) and adj(C)*C; they share
their non-zero spectrum, and each eigenvector of one side pairs with an
eigenvector of the other to give the single-sum Schmidt form

    |Psi> = sum_s sqrt(lambda_s) |F^s> (x) |Phi^s>.

That form is the singular value decomposition C = U diag(s) adj(V): the
Schmidt coefficients are the singular values, lambda_s = s_s^2, and the
paired modes are the columns of U and V. The state factorizes exactly when a
single term survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import NORM_ATOL, DensityMatrix, require_normalized
from .errors import ConvergenceError, ShapeError, ValidationError
from .linalg import adjoint, fix_phases, mat_mul
# Bound here so that perfbench/tracing.py can still wrap modes.hermitian_eigen.
from .linalg import hermitian_eigen  # noqa: F401

DEFAULT_RANK_THRESHOLD = 1e-10


@dataclass(frozen=True)
class BipartitePureState:
    """Two-party pure state in a fixed product basis.

    ``amplitudes[i, j]`` multiplies ``|latin_labels[i]> (x) |greek_labels[j]>``.
    ``norm`` records the Euclidean norm of the coefficients the state was
    built from; ``from_amplitudes`` rescales to unit norm and keeps the
    original norm here, so the raw coefficients are ``amplitudes * norm``.
    """

    latin_labels: tuple[str, ...]
    greek_labels: tuple[str, ...]
    amplitudes: np.ndarray
    norm: float = 1.0

    def __post_init__(self):
        latin = tuple(self.latin_labels)
        greek = tuple(self.greek_labels)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2:
            raise ShapeError(f"amplitudes must be a 2-d matrix, got shape {amps.shape}")
        if amps.shape != (len(latin), len(greek)):
            raise ShapeError(
                f"amplitude matrix is {amps.shape[0]}x{amps.shape[1]} but there are "
                f"{len(latin)} Latin and {len(greek)} Greek labels"
            )
        for side, labels in (("Latin", latin), ("Greek", greek)):
            if len(set(labels)) != len(labels):
                raise ValidationError(f"{side} labels are not unique: {labels}")
        amps.setflags(write=False)
        object.__setattr__(self, "latin_labels", latin)
        object.__setattr__(self, "greek_labels", greek)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm", float(self.norm))

    @classmethod
    def from_amplitudes(cls, latin_labels, greek_labels, amplitudes,
                        strict_norm: bool = False) -> "BipartitePureState":
        """Build a state from raw coefficients, rescaling them to unit norm.

        With ``strict_norm`` the coefficients must already be normalized to
        within 1e-9; otherwise the norm is simply recorded. Raises
        ValidationError for a non-finite coefficient, naming its entry.
        """
        latin_labels, greek_labels = tuple(latin_labels), tuple(greek_labels)
        amps = np.asarray(amplitudes, dtype=complex)
        finite = np.isfinite(amps)
        if not finite.all():
            where = tuple(int(k) for k in np.argwhere(~finite)[0])
            entry = f"amplitude {where}"
            if amps.shape == (len(latin_labels), len(greek_labels)):
                entry += f" of |{latin_labels[where[0]]}>(x)|{greek_labels[where[1]]}>"
            raise ValidationError(f"{entry} is not finite: {complex(amps[where])!r}")
        peak = max(float(np.max(np.abs(amps.real), initial=0.0)),
                   float(np.max(np.abs(amps.imag), initial=0.0)))
        if peak == 0.0:
            raise ValidationError("cannot build a state from all-zero amplitudes")
        # Scale by the power of two just below the largest |re| or |im| before
        # taking the norm, so that squares of tiny or huge coefficients neither
        # underflow nor overflow. ldexp scales exactly, so for coefficients
        # that need no scaling every bit of the result is unchanged.
        exponent = math.frexp(peak)[1] - 1
        scaled = np.empty_like(amps)
        scaled.real = np.ldexp(amps.real, -exponent)
        scaled.imag = np.ldexp(amps.imag, -exponent)
        scaled_norm = float(np.linalg.norm(scaled))
        norm = scaled_norm * 2.0**exponent
        if math.isinf(norm):
            raise ValidationError(
                f"amplitude norm {scaled_norm!r} * 2**{exponent} exceeds the float range"
            )
        if strict_norm and abs(norm - 1.0) > NORM_ATOL:
            raise ValidationError(
                f"strict normalization requested but the amplitude norm is {norm!r}"
            )
        return cls(latin_labels, greek_labels, scaled / scaled_norm, norm)

    @property
    def latin_dim(self) -> int:
        return len(self.latin_labels)

    @property
    def greek_dim(self) -> int:
        return len(self.greek_labels)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a two-party pure state.

    ``lambdas`` holds all min(latin_dim, greek_dim) squared singular values
    of the amplitude matrix in descending order; ``rank`` counts those above
    ``threshold``. Column ``s`` of ``latin_modes`` / ``greek_modes`` is the
    paired mode vector for ``lambdas[s]``; modes are only kept for the
    eigenvalues above the threshold.
    """

    lambdas: np.ndarray
    latin_modes: np.ndarray
    greek_modes: np.ndarray
    rank: int
    threshold: float


def gram_latin(state: BipartitePureState) -> DensityMatrix:
    """Reduced density matrix on the Latin side: C * adj(C)."""
    require_normalized(state)
    c = state.amplitudes
    return DensityMatrix(mat_mul(c, adjoint(c)), state.latin_labels)


def gram_greek(state: BipartitePureState) -> DensityMatrix:
    """Reduced density matrix on the Greek side: adj(C) * C."""
    require_normalized(state)
    c = state.amplitudes
    return DensityMatrix(mat_mul(adjoint(c), c), state.greek_labels)


def schmidt_decompose(
    state: BipartitePureState,
    threshold: float = DEFAULT_RANK_THRESHOLD,
) -> SchmidtDecomposition:
    """Schmidt spectrum and paired modes from one SVD of the amplitude matrix.

    Eigenvalues at or below ``threshold`` keep their slot in ``lambdas`` but
    get no mode pair. Each pair gets the phase that makes the first
    significant component of the smaller side's mode (Latin on a tie) real
    and positive. Raises ConvergenceError if LAPACK does not converge.
    """
    if not 0.0 < threshold < math.inf:  # false for NaN too
        raise ValidationError(f"rank threshold must be finite and positive, got {threshold!r}")
    require_normalized(state)
    try:
        # Thin factors: a full V of a 2 x 4096 state would hold 4096^2 entries.
        u, s, vh = np.linalg.svd(state.amplitudes, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"np.linalg.svd failed on the {state.latin_dim}x{state.greek_dim} "
            f"amplitude matrix: {exc}"
        ) from exc
    lambdas = s * s
    rank = int(np.sum(lambdas > threshold))
    latin_modes = u[:, :rank].copy()
    greek_modes = vh[:rank].conj().T
    if state.latin_dim <= state.greek_dim:
        fix_phases(latin_modes, greek_modes)
    else:
        fix_phases(greek_modes, latin_modes)
    for array in (lambdas, latin_modes, greek_modes):
        array.setflags(write=False)
    return SchmidtDecomposition(
        lambdas=lambdas,
        latin_modes=latin_modes,
        greek_modes=greek_modes,
        rank=rank,
        threshold=float(threshold),
    )


def schmidt_number(decomposition: SchmidtDecomposition) -> float:
    """Effective number of Schmidt terms, 1 / sum(lambda^2).

    Equals 1 for product states and the common dimension for maximally
    entangled ones; it is the reciprocal purity of either reduced state.
    """
    lam = np.asarray(decomposition.lambdas, dtype=float)
    return float(1.0 / np.sum(lam * lam))


def entanglement_entropy(decomposition: SchmidtDecomposition) -> float:
    """Von Neumann entropy of either reduced state, in bits.

    Computed as -sum(lambda * log2(lambda)) over the eigenvalues above the
    decomposition's threshold; zero exactly when a single mode carries
    everything.
    """
    lam = np.asarray(decomposition.lambdas, dtype=float)
    lam = lam[lam > decomposition.threshold]
    if lam.size == 0:
        return 0.0
    entropy = float(-np.sum(lam * np.log2(lam)))
    # Roundoff can push a lone eigenvalue of 1 to a -1e-16 entropy.
    return entropy if entropy > 0.0 else 0.0


def is_entangled(decomposition: SchmidtDecomposition) -> bool:
    """True when more than one Schmidt term is needed, i.e. no factorization."""
    return decomposition.rank >= 2


def reconstruct(
    decomposition: SchmidtDecomposition,
    dims: tuple[int, int] | None = None,
) -> np.ndarray:
    """Rebuild the amplitude matrix, C = sum_s sqrt(lambda_s) F^s adj(Phi^s).

    ``dims`` (latin_dim, greek_dim) is checked against the stored modes when
    given. Raises ValidationError if mode pairs are missing for eigenvalues
    above the threshold.
    """
    lam = np.asarray(decomposition.lambdas, dtype=float)
    above = int(np.sum(lam > decomposition.threshold))
    f = np.asarray(decomposition.latin_modes, dtype=complex)
    g = np.asarray(decomposition.greek_modes, dtype=complex)
    if f.ndim != 2 or g.ndim != 2:
        raise ShapeError("mode arrays must be 2-d (one column per mode)")
    if f.shape[1] != above or g.shape[1] != above:
        raise ValidationError(
            f"{above} eigenvalues above threshold but {f.shape[1]} Latin and "
            f"{g.shape[1]} Greek modes are present"
        )
    if dims is not None and dims != (f.shape[0], g.shape[0]):
        raise ShapeError(
            f"requested dims {dims[0]}x{dims[1]} but modes live in "
            f"{f.shape[0]}x{g.shape[0]}"
        )
    return (f * np.sqrt(lam[:above])) @ g.conj().T
