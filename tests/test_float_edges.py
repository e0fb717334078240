"""Every public function of ``modes`` and ``density`` on float-edge input: each call returns
finite values or raises SchmidtError. The suite's ``filterwarnings = error`` turns a numpy
warning (overflow, invalid value, divide by zero) into a failure."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schmidt.density import (DensityMatrix, classical_mixture, conditional_state, gram_greek,
                             gram_latin, partial_trace, pure_density, purity)
from schmidt.errors import SchmidtError
from schmidt.modes import (BipartitePureState, SchmidtDecomposition, entanglement_entropy,
                           is_entangled, reconstruct, schmidt_decompose, schmidt_number, verify)

EDGES = (0.0, 5e-324, 1e-300, 1e300, 1.7e308, math.inf, math.nan)
TINY = (0.0, -0.0, 5e-324, -5e-324, 1e-300)
reals = st.one_of(st.sampled_from(EDGES + tuple(-x for x in EDGES)), st.floats(-1.0, 1.0),
                  st.sampled_from((0.5, 0.25, 1.0)))
complexes = st.one_of(reals, st.builds(complex, reals, reals))


def finite(value) -> bool:
    """Whether every number ``value`` holds, in a record's fields too, is finite."""
    if isinstance(value, (DensityMatrix, BipartitePureState, SchmidtDecomposition)):
        value = [field for field in vars(value).values() if not isinstance(field, tuple)]
    if isinstance(value, (tuple, list)):
        return all(finite(item) for item in value)
    return bool(np.isfinite(value).all())


def checked(call, *args):
    """``call(*args)``, checked finite, or None when it raises SchmidtError."""
    try:
        value = call(*args)
    except SchmidtError:
        return None
    assert finite(value), (call.__name__, args, value)
    return value


@st.composite
def trace_one_hermitian(draw, dim):
    """A Hermitian matrix, as nested lists, whose diagonal sums to 1 in Python floats."""
    diagonal = [draw(st.one_of(reals, st.floats(0.0, 1.0))) for _ in range(dim - 1)]
    diagonal.append(1.0 - sum(diagonal))  # Python floats: inf - inf is a quiet nan
    m = [[complex(x) if i == j else 0j for j in range(dim)] for i, x in enumerate(diagonal)]
    for i in range(dim):
        for j in range(i + 1, dim):
            m[i][j] = complex(draw(st.one_of(complexes, st.sampled_from(TINY))))
            m[j][i] = m[i][j].conjugate()
    return m


@st.composite
def unit_or_not(draw, dim):
    """A basis vector with tiny entries off its one, or any vector of ``dim`` entries."""
    if draw(st.booleans()):
        k = draw(st.integers(0, dim - 1))
        return [1.0 if i == k else draw(st.sampled_from(TINY)) for i in range(dim)]
    return draw(st.lists(complexes, min_size=dim, max_size=dim))


@st.composite
def decomposition_args(draw):
    """Lambdas and modes, rows of the identity or any entries: valid records and refused ones."""
    size = draw(st.integers(1, 3))
    rank = draw(st.integers(0, size))
    if draw(st.booleans()):
        lambdas = [draw(st.one_of(reals, st.sampled_from(TINY))) for _ in range(size)]
    else:  # 1 minus a tail of tiny values, which sums to 1
        tail = sorted((draw(st.sampled_from(TINY)) for _ in range(size - 1)), reverse=True)
        lambdas = [1.0 - sum(tail), *tail]
    modes = [list(np.eye(size)[row, :rank]) if draw(st.booleans())
             else [draw(st.one_of(complexes, st.sampled_from(TINY))) for _ in range(rank)]
             for row in range(size)]
    return lambdas, modes, modes


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_every_public_function_returns_finite_values_or_refuses(data):
    latin_dim, greek_dim = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    latin, greek = ("a", "b")[:latin_dim], ("x", "y")[:greek_dim]
    amplitudes = data.draw(st.lists(st.lists(complexes, min_size=greek_dim, max_size=greek_dim),
                                    min_size=latin_dim, max_size=latin_dim))
    state = checked(BipartitePureState, latin, greek, amplitudes)
    decompositions = [checked(SchmidtDecomposition, *data.draw(decomposition_args()))]
    if state is not None:
        threshold = data.draw(st.one_of(reals, st.booleans(), st.just(1e-10)))
        decompositions += [checked(schmidt_decompose, state),
                           checked(schmidt_decompose, state, threshold)]
        for call in (pure_density, gram_latin, gram_greek):
            checked(call, state)
    for d in decompositions:
        if d is not None:
            for call in (schmidt_number, entanglement_entropy, is_entangled, reconstruct):
                checked(call, d)
            if state is not None:
                checked(verify, state, d)
    tail = data.draw(st.lists(st.one_of(reals, st.floats(0.0, 0.5)), max_size=2))
    weights = [1.0 - sum(tail), *tail]  # sums to 1 unless a weight is an edge value
    terms = [(w, latin[i % latin_dim], greek[i % greek_dim]) for i, w in enumerate(weights)]
    mixture = checked(classical_mixture, terms)
    dim = latin_dim * greek_dim
    hermitian = data.draw(trace_one_hermitian(dim))
    anything = data.draw(st.lists(st.lists(complexes, min_size=dim, max_size=dim),
                                  min_size=dim, max_size=dim))
    for rho in (mixture, checked(DensityMatrix, hermitian, (latin, greek)),
                checked(DensityMatrix, anything, (latin, greek))):
        if rho is not None:
            checked(purity, rho)
            for keep in ("A", "B"):
                reduced = checked(partial_trace, rho, keep)
                if reduced is not None:
                    checked(purity, reduced)
            conditioned = checked(conditional_state, rho, data.draw(unit_or_not(latin_dim)))
            if conditioned is not None:
                checked(purity, conditioned[1])
