"""Schmidt data checked against rules that hold exactly at every size, with no reference solver.

A product state psi (x) phi, amplitude matrix kron(A, B), has as its spectrum the outer product
of the two factors' spectra: K multiplies and the entropy adds. The rank threshold is 1e-300, so
the 1e-10 rank floor drops no term on either side of a comparison.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt.modes import entanglement_entropy, schmidt_decompose, schmidt_number
from states import labelled_state, product_state

THRESHOLD = 1e-300


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.integers(1, 5)] * 4), st.integers(0, 2**32 - 1))
def test_a_product_multiplies_the_spectra_and_k_and_adds_the_entropy(shape, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=size) + 1j * rng.normal(size=size) for size in (shape[:2], shape[2:]))
    da, db, d = (schmidt_decompose(state, threshold=THRESHOLD)
                 for state in (labelled_state(a), labelled_state(b), product_state(a, b)))
    outer = np.sort(np.outer(da.lambdas, db.lambdas), axis=None)[::-1]
    # The product's spectrum is longer when, say, a is 1 x 2 and b is 2 x 1: the rest are zeros.
    assert np.max(np.abs(d.lambdas - np.pad(outer, (0, d.lambdas.size - outer.size)))) <= 1e-13
    k = schmidt_number(da) * schmidt_number(db)
    assert abs(schmidt_number(d) - k) <= 1e-13 * k
    entropy = entanglement_entropy(da) + entanglement_entropy(db)
    assert abs(entanglement_entropy(d) - entropy) <= 1e-13
