"""The Schmidt spectrum, K and entropy graded against a reference that shares no code
with the package: mpmath's SVD of the same unit-norm amplitude matrix at 40 digits.

LAPACK's lambdas are accurate in absolute terms, so each is held to 1e-14
absolute, not relative: the small ones carry no relative accuracy.
"""

import mpmath
import numpy as np
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from schmidt.errors import ValidationError
from schmidt.modes import (
    DEFAULT_RANK_THRESHOLD,
    entanglement_entropy,
    schmidt_decompose,
    schmidt_number,
)
from states import labelled_state
from test_pipeline import cases


@st.composite
def random_states(draw):
    """A random complex d x (d+1) amplitude matrix, d from 1 to 16."""
    d = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(d, d + 1)) + 1j * rng.normal(size=(d, d + 1))


def oracle_lambdas(amplitudes):
    """Squared singular values of ``amplitudes``, descending, as 40-digit mpf."""
    with mpmath.workdps(40):
        s = mpmath.svd_c(mpmath.matrix(amplitudes.tolist()), compute_uv=False)
        return sorted((x * x for x in s), reverse=True)


@settings(max_examples=50, deadline=None)
@given(st.one_of(cases().map(lambda case: case[2]), random_states()))
@example(amplitudes=np.random.default_rng(16).normal(size=(16, 17)))  # the top size
def test_spectrum_number_and_entropy_match_a_40_digit_svd(amplitudes):
    try:
        state = labelled_state(amplitudes)
    except ValidationError:  # scaled beyond the float range
        reject()
    exact = oracle_lambdas(state.amplitudes)
    # One lambda on the other side of the threshold would move the entropy by about 3e-9.
    assume(all(abs(lam - DEFAULT_RANK_THRESHOLD) > 1e-13 for lam in exact))
    d = schmidt_decompose(state)
    assert np.max(np.abs(d.lambdas - np.array(exact, dtype=float))) <= 1e-14
    with mpmath.workdps(40):
        k = 1 / mpmath.fsum(lam * lam for lam in exact)
        entropy = -mpmath.fsum(lam * mpmath.log(lam, 2) for lam in exact
                               if lam > DEFAULT_RANK_THRESHOLD)
        assert abs(schmidt_number(d) - k) <= 1e-13 * k
        assert abs(entanglement_entropy(d) - entropy) <= 1e-13
