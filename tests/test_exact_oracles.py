"""Schmidt data checked against rules that hold exactly at every size, with no reference solver.

A product state psi (x) phi, amplitude matrix kron(A, B), has as its spectrum the outer product
of the two factors' spectra: K multiplies and the entropy adds. A circulant state,
C[j, k] = c[(j - k) mod d], is diagonalized by the DFT (Gray, Found. Trends Commun. Inf. Theory 2,
155, 2006): C e_m = fft(c)_m e_m for the Fourier ket e_m(j) = exp(2 pi i m j / d) / sqrt(d), so
its spectrum is |fft(c)|^2 / sum |fft(c)|^2 and its Latin modes are Fourier kets. The rank
threshold is 1e-300, so the 1e-10 rank floor drops no term on either side of a comparison.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt.modes import entanglement_entropy, schmidt_decompose, schmidt_number
from states import circulant_state, labelled_state, product_state

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


@pytest.mark.parametrize("d", [2, 3, 7, 16, 64, 128, 256])
def test_a_circulant_spectrum_is_its_normalized_dft_power(d):
    rng = np.random.default_rng(d)
    c = rng.normal(size=d) + 1j * rng.normal(size=d)
    power = np.abs(np.fft.fft(c)) ** 2
    lambdas = schmidt_decompose(circulant_state(c), threshold=THRESHOLD).lambdas
    assert np.max(np.abs(lambdas - np.sort(power / power.sum())[::-1])) <= 1e-14


@pytest.mark.parametrize("d", [16, 64, 256])
def test_a_real_symmetric_circulant_block_spans_its_fourier_pair(d):
    # c_k = c_{-k} makes fft(c) real with fft(c)_m = fft(c)_{d-m}: each block {m, d - m} is a
    # two-fold degenerate pair (one-fold at m = 0 and m = d/2), whose modes are fixed only up to
    # a rotation within the block, so the block's projector is compared, not its modes.
    rng = np.random.default_rng(d)
    r = rng.normal(size=d)
    c = (r + r[-np.arange(d) % d]) / 2
    size = np.abs(np.fft.fft(c))
    decomposition = schmidt_decompose(circulant_state(c), threshold=THRESHOLD)
    assert np.max(np.abs(decomposition.lambdas - np.sort(size**2 / np.sum(size**2))[::-1])) <= 1e-14
    modes = decomposition.latin_modes
    slot = np.empty(d, dtype=int)  # slot[m]: the column of fft index m in descending order
    slot[np.argsort(-size, kind="stable")] = np.arange(d)
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    blocks = [sorted({m, -m % d}) for m in range(d // 2 + 1)]
    checked = 0
    for block in blocks:
        others = np.delete(size, block)
        # Wedin's bound: a block's subspace error is about roundoff * |C| / gap.
        if np.min(np.abs(others - size[block[0]])) / size.max() <= 1e-4:
            continue
        f, e = modes[:, slot[block]], fourier[:, block]
        assert np.max(np.abs(f @ f.conj().T - e @ e.conj().T)) <= 1e-12
        checked += 1
    assert checked >= 3 * len(blocks) // 4  # the gap rule skips only near-degenerate blocks
