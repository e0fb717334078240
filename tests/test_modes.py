import inspect
import json
import math
import re

import numpy as np
import pytest

import schmidt.modes
from schmidt.catalog import bell_state, example_state
from schmidt.cli import AnalysisReport, build_report, main, render_report
from schmidt.density import (TRACE_ATOL, DensityMatrix, classical_mixture, conditional_state,
                              gram_greek, gram_latin, pure_density)
from schmidt.errors import ConvergenceError, SchmidtError, ShapeError, ValidationError
from schmidt.ketparse import parse_expression, parse_state
from schmidt.modes import (
    RESIDUAL_LIMIT,
    BipartitePureState,
    SchmidtDecomposition,
    entanglement_entropy,
    is_entangled,
    reconstruct,
    schmidt_decompose,
    schmidt_number,
    verify,
)
from states import AMPLITUDES, GREEK, LATIN, example, labelled_state


class TestBipartitePureState:
    def test_from_amplitudes_normalizes_and_records_norm(self):
        state = BipartitePureState.from_amplitudes(LATIN, GREEK, AMPLITUDES["psi0"])
        assert state.norm == pytest.approx(np.sqrt(12.0), abs=1e-12)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(state.amplitudes * state.norm, AMPLITUDES["psi0"], rtol=0,
                                   atol=1e-12)

    def test_constructor_leaves_the_callers_array_writable(self):
        amps = np.array([[2.0 + 0j]])
        state = BipartitePureState(("a",), ("b",), amps)
        assert amps.flags.writeable
        assert amps[0, 0] == 2.0  # the scaling works on a copy
        assert not state.amplitudes.flags.writeable
        amps[0, 0] = 3.0
        assert state.amplitudes[0, 0] == 1.0

    def test_constructor_normalizes_and_records_norm(self):
        state = BipartitePureState(("a",), ("b",), [[2.0]])
        assert state.amplitudes.tolist() == [[1.0]]
        assert state.norm == 2.0
        direct = BipartitePureState(LATIN, GREEK, AMPLITUDES["psi0"])
        named = BipartitePureState.from_amplitudes(LATIN, GREEK, AMPLITUDES["psi0"])
        assert np.array_equal(direct.amplitudes, named.amplitudes)
        assert direct.norm == named.norm

    def test_norm_is_derived_not_passed(self):
        assert list(inspect.signature(BipartitePureState).parameters) == [
            "latin_labels", "greek_labels", "amplitudes"]
        with pytest.raises(TypeError):
            BipartitePureState(("a",), ("b",), [[1.0]], norm=1.0)
        with pytest.raises(TypeError):
            BipartitePureState(("a",), ("b",), [[1.0]], -3.0)

    def test_coefficients_are_kept_as_given(self):
        given = [[3, 0, 0], [0, 2, 1], [0, 0, -1j]]
        state = BipartitePureState(("a", "b", "c"), ("x", "y", "z"), given)
        assert state.coefficients.dtype == complex
        assert state.coefficients.tolist() == np.array(given, dtype=complex).tolist()
        assert not state.coefficients.flags.writeable
        assert (state.amplitudes * state.norm)[2, 2] != -1j  # what a rebuild would give
        with pytest.raises(TypeError):
            BipartitePureState(("a",), ("b",), [[1.0]], coefficients=[[1.0]])

    def test_zero_amplitudes_rejected(self):
        for build in (BipartitePureState, BipartitePureState.from_amplitudes):
            with pytest.raises(ValidationError, match="cannot build a state from all-zero"):
                build(("a",), ("b",), [[0.0]])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError, match=r"^Latin label 1 repeats label 0: 'a'$"):
            BipartitePureState.from_amplitudes(("a", "a"), GREEK, [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(ValidationError, match=r"^Greek label 3 repeats label 1: 'y'$"):
            BipartitePureState.from_amplitudes(LATIN, ("x", "y", "z", "y"), np.ones((2, 4)))

    def test_a_bad_label_is_named_before_a_shape_mismatch(self):
        # The labels are read first, so a call with both faults names the label.
        with pytest.raises(ValidationError, match=r"^Latin label 1 repeats label 0: 'a'$"):
            BipartitePureState.from_amplitudes(("a", "a"), GREEK, np.ones((3, 5)))
        with pytest.raises(ValidationError, match=r"^Greek label 0 is not a ket-v1 label"):
            BipartitePureState.from_amplitudes(LATIN, (None,), np.ones(7))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            BipartitePureState.from_amplitudes(LATIN, GREEK, [[1, 0], [0, 1]])
        for amplitudes in (np.ones(6), np.ones((2, 3, 1))):
            with pytest.raises(ShapeError, match=re.escape(
                    f"amplitudes must be a 2-d matrix, got shape {amplitudes.shape}")):
                BipartitePureState.from_amplitudes(LATIN, GREEK, amplitudes)

    def test_amplitudes_are_read_only(self):
        state = example("psi0")
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_non_finite_amplitude_rejected_by_entry(self, bad):
        for build in (BipartitePureState, BipartitePureState.from_amplitudes):
            with pytest.raises(ValidationError,
                               match=r"\(1, 2\) of \|b>\(x\)\|gamma> is not finite"):
                build(LATIN, GREEK, [[1, 0, 0], [0, 1, bad]])

    @pytest.mark.parametrize("scale", [1e-200, 5e-324, 1e300])
    def test_tiny_and_huge_amplitudes_are_a_valid_state(self, scale):
        state = BipartitePureState.from_amplitudes(LATIN, ("alpha", "beta"),
                                                   [[scale, 0], [0, scale]])
        np.testing.assert_allclose(state.amplitudes, np.eye(2) / np.sqrt(2), rtol=0, atol=1e-15)
        assert state.norm == pytest.approx(scale * np.sqrt(2), rel=1e-15)
        assert schmidt_number(schmidt_decompose(state)) == pytest.approx(2.0, abs=1e-12)

    def test_norm_beyond_the_float_range_rejected(self):
        with pytest.raises(ValidationError, match="exceeds the float range"):
            BipartitePureState.from_amplitudes(("a", "b"), ("c",), [[1.5e308], [1.5e308]])

    def test_scaling_changes_no_bit_of_an_ordinary_state(self):
        rng = np.random.default_rng(7)
        amps = (rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))) * 3.7
        state = BipartitePureState.from_amplitudes(("a", "b", "c"), GREEK + ("d", "e"), amps)
        norm = float(np.linalg.norm(amps))
        assert state.norm == norm
        assert np.array_equal(state.amplitudes, amps / norm)


def test_array_holders_compare_and_hash_by_identity():
    # Equal arrays of more than one entry have no single truth value, so a
    # generated __eq__ or __hash__ could only raise.
    first, second = example("psi0"), example("psi0")
    for a, b in ((first, second),
                 (schmidt_decompose(first), schmidt_decompose(second)),
                 (pure_density(first), pure_density(second)),
                 (build_report(first), build_report(second))):
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_hermitian_eigen_is_a_placeholder_for_schmidt_decompose():
    # The name stays for the benchmark tracer, which wraps it; the SVD is the one path.
    with pytest.raises(NotImplementedError, match="schmidt_decompose"):
        schmidt.modes.hermitian_eigen(np.eye(2))
    assert not hasattr(schmidt.modes, "EigenSystem")
    assert not hasattr(schmidt.modes, "fix_phases")


class TestGramMatrices:
    def test_product_state_gives_pure_projector(self):
        state = BipartitePureState.from_amplitudes(("a",), ("alpha",), [[1.0]])
        np.testing.assert_allclose(gram_latin(state).matrix, [[1.0]], rtol=0, atol=1e-15)

    def test_unnormalized_input_gives_unit_trace_gram_matrices(self):
        state = BipartitePureState(LATIN, GREEK, np.full((2, 3), 0.5 + 0j))
        assert state.norm == pytest.approx(np.sqrt(1.5), rel=1e-15)
        np.testing.assert_allclose(gram_latin(state).matrix, np.full((2, 2), 0.5), rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(gram_greek(state).matrix, np.full((3, 3), 1 / 3), rtol=0,
                                   atol=1e-15)


class TestSchmidtDecompose:
    def test_non_finite_svd_factor_is_refused(self, monkeypatch):
        # No NaN mode reaches the phase rule, whose pivot needs a finite column.
        svd = np.linalg.svd

        def planted_nan(a, full_matrices=True):
            u, s, vh = svd(a, full_matrices=full_matrices)
            u[0, 0] = np.nan
            return u, s, vh

        monkeypatch.setattr(np.linalg, "svd", planted_nan)
        with pytest.raises(ConvergenceError, match="^" + re.escape(
                "np.linalg.svd returned a non-finite factor of the 2x3 amplitude matrix")):
            schmidt_decompose(example("psi0"))

    def test_greek_modes_are_the_conjugated_schmidt_kets(self):
        # With C = U diag(s) adj(V), greek_modes holds V; the Schmidt ket
        # Phi^s = <F^s| (x) 1 |Psi> / sqrt(lambda_s) is its conjugate column.
        state = example_state("psi3")
        d = schmidt_decompose(state)
        rho_b = gram_greek(state).matrix
        kets = d.latin_modes.conj().T @ state.amplitudes / np.sqrt(d.lambdas[:d.rank, None])
        for s, phi in enumerate(kets):
            np.testing.assert_allclose(d.greek_modes[:, s].conj(), phi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rho_b @ phi, d.lambdas[s] * phi, rtol=0, atol=1e-12)
        # The first mode's alpha component is 0.5345+0.2673i in Phi^1, and the
        # stored column (which the reports print) is not an eigenvector of rho_B.
        first = d.greek_modes[:, 0]
        assert kets[0, 0] == pytest.approx(0.534522 + 0.267261j, abs=1e-6)
        assert first[0] == pytest.approx(0.534522 - 0.267261j, abs=1e-6)
        assert np.max(np.abs(rho_b @ first - d.lambdas[0] * first)) > 0.1

    def test_bell_state_is_maximally_entangled(self):
        d = schmidt_decompose(example("bell"))
        np.testing.assert_allclose(d.lambdas, [0.5, 0.5], rtol=0, atol=1e-12)
        assert d.rank == 2

    def test_product_state_has_single_mode(self):
        state = BipartitePureState.from_amplitudes(("a",), ("alpha",), [[1.0]])
        d = schmidt_decompose(state)
        np.testing.assert_allclose(d.lambdas, [1.0], rtol=0, atol=1e-12)
        assert d.rank == 1
        assert d.latin_modes.shape == (1, 1)

    def test_factored_combination_is_rank_one(self):
        # (|a> + |b>) (x) (|alpha> - |gamma>) / 2, written out in components
        amps = np.outer([1, 1], [1, 0, -1]) / 2.0
        d = schmidt_decompose(BipartitePureState.from_amplitudes(LATIN, GREEK, amps))
        assert d.rank == 1
        assert not is_entangled(d)

    def test_zero_norm_state_rejected(self):
        # The constructor refuses the state, so no decomposition is attempted.
        with pytest.raises(ValidationError, match="cannot build a state from all-zero"):
            schmidt_decompose(
                BipartitePureState(("a",), ("b",), np.zeros((1, 1), dtype=complex)))

    def test_nan_state_is_not_normalized(self):
        # Built directly, a NaN state is refused by the constructor's finiteness check.
        with pytest.raises(ValidationError, match=r"\(0, 0\) of \|a>\(x\)\|b> is not finite"):
            schmidt_decompose(
                BipartitePureState(("a",), ("b",), np.full((1, 1), np.nan, dtype=complex)))

    def test_tall_matrix_uses_greek_side(self):
        # Transposing the demo amplitudes swaps the roles of the two bases.
        state = labelled_state(np.transpose(AMPLITUDES["psi0"]))
        d = schmidt_decompose(state)
        np.testing.assert_allclose(d.lambdas, [11 / 12, 1 / 12], rtol=0, atol=1e-12)
        assert d.latin_modes.shape == (3, 2)
        assert d.greek_modes.shape == (2, 2)
        residual = np.max(np.abs(reconstruct(d) - state.amplitudes))
        assert residual < 1e-12

    def test_subthreshold_eigenvalues_get_no_modes(self):
        amps = np.zeros((3, 3))
        amps[0, 0] = 1.0
        d = schmidt_decompose(BipartitePureState.from_amplitudes(
            ("a", "b", "c"), ("x", "y", "z"), amps))
        assert len(d.lambdas) == 3
        assert d.rank == 1
        assert d.latin_modes.shape == (3, 1)
        assert d.greek_modes.shape == (3, 1)

    def test_threshold_keeps_only_eigenvalues_above_it(self):
        # Four equal terms: each eigenvalue is exactly 0.25.
        state = parse_state("|a>(x)|w> + |b>(x)|x> + |c>(x)|y> + |d>(x)|z>")
        assert schmidt_decompose(state).lambdas.tolist() == [0.25] * 4
        assert schmidt_decompose(state, threshold=0.25).rank == 0
        assert schmidt_decompose(state, threshold=np.nextafter(0.25, 0)).rank == 4

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValidationError):
            schmidt_decompose(example("psi0"), threshold=0.0)

    def test_boolean_threshold_is_refused(self):
        # A bool is a numbers.Real: True would be read as 1.0 and leave no mode pair.
        with pytest.raises(ValidationError, match="^rank threshold must be finite and "
                                                  "positive, got True$"):
            schmidt_decompose(example("psi0"), threshold=True)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_threshold_must_be_finite(self, threshold):
        with pytest.raises(ValidationError, match="finite and positive"):
            schmidt_decompose(example("psi0"), threshold=threshold)


def test_verify_accepts_a_residual_of_residual_limit_and_no_more():
    # |a>(x)|x> in a 1 x 2 basis: a Greek mode (1, e) rebuilds the zero entry as exactly e.
    state = BipartitePureState(("a",), ("x", "y"), [[1, 0]])
    accepted, refused = (SchmidtDecomposition([1.0], [[1]], [[1], [e]])
                         for e in (RESIDUAL_LIMIT, np.nextafter(RESIDUAL_LIMIT, 1)))
    assert verify(state, accepted) == RESIDUAL_LIMIT
    with pytest.raises(ConvergenceError,
                       match=r"^reconstruction residual 1\.000e-09 exceeds 1e-09$"):
        verify(state, refused)


def test_verify_accepts_an_overlap_of_residual_limit_and_no_more():
    # Latin modes (1, 0) and (e, sqrt(1 - e^2)) overlap by exactly e; the Greek modes are e_0, e_1.
    accepted, refused = (SchmidtDecomposition([0.5, 0.5], [[1, e], [0, math.sqrt(1 - e * e)]],
                                              np.eye(2))
                         for e in (RESIDUAL_LIMIT, np.nextafter(RESIDUAL_LIMIT, 1)))
    assert verify(BipartitePureState(("a", "b"), ("x", "y"), reconstruct(accepted)),
                  accepted) <= RESIDUAL_LIMIT
    with pytest.raises(ConvergenceError, match=r"^latin_modes are not orthonormal: defect "
                                               r"1\.000e-09 exceeds 1e-09$"):
        verify(BipartitePureState(("a", "b"), ("x", "y"), reconstruct(refused)), refused)


def test_verify_refuses_orthogonal_modes_that_are_not_unit_length():
    # Greek mode 1 halved still rebuilds its weight-1e-20 term to within 5e-11 and overlaps
    # nothing: only the diagonal of adj(M) M - I, 0.25 - 1, sees it.
    state = BipartitePureState(("a", "b"), ("x", "y"), [[1, 0], [0, 1e-10]])
    d = schmidt_decompose(state, threshold=1e-30)
    np.testing.assert_allclose(d.lambdas, [1.0, 1e-20], rtol=1e-12)
    halved = SchmidtDecomposition(d.lambdas, d.latin_modes, d.greek_modes * [1, 0.5])
    assert halved.rank == 2
    assert np.max(np.abs(reconstruct(halved) - state.amplitudes)) <= RESIDUAL_LIMIT
    with pytest.raises(ConvergenceError, match=r"^greek_modes are not orthonormal: defect "
                                               r"7\.500e-01 exceeds 1e-09$"):
        verify(state, halved)


@pytest.mark.parametrize("build,atol,where", [
    (lambda on, above: SchmidtDecomposition([1.0, 0.0], [[on], [above]], [[1], [0]]),
     RESIDUAL_LIMIT, "latin_modes entry (1, 0)"),
    (lambda on, above: conditional_state(pure_density(example("bell")), [on, above]),
     RESIDUAL_LIMIT, "projection vector component 1"),
    (lambda on, above: DensityMatrix([[on, above], [0, 0]]), TRACE_ATOL,
     "density matrix entry (0, 1)"),
], ids=["latin-modes", "projection-vector", "density-matrix"])
def test_an_entry_on_the_bound_passes_and_the_next_one_above_it_is_named(build, atol, where):
    # An entry exactly on 1 + atol passes, so the refusal names the entry after it, one float
    # above: the mask that refuses is the one that finds the entry to name.
    on = 1.0 + atol
    above = float(np.nextafter(on, 2))
    with pytest.raises(ValidationError, match=f"^{re.escape(where)} has magnitude "
                                              f"{re.escape(repr(above))}, above 1$"):
        build(on, above)


def test_verify_rebuilds_the_state_itself():
    # The Bell state's labels with the modes of the product state |H>(x)|H>.
    d = SchmidtDecomposition([1.0, 0.0], [[1], [0]], [[1], [0]])
    with pytest.raises(ConvergenceError,
                       match=r"^reconstruction residual 1\.000e\+00 exceeds 1e-09$"):
        verify(bell_state(), d)


class TestMeasures:
    def test_entropy_of_product_state_is_zero(self):
        state = BipartitePureState.from_amplitudes(("a",), ("alpha",), [[1.0]])
        assert entanglement_entropy(schmidt_decompose(state)) == 0.0

    def test_rank_zero_has_zero_entropy(self):
        # Both Bell eigenvalues, 0.5, sit below the threshold: no term survives.
        d = schmidt_decompose(example("bell"), threshold=0.9)
        assert d.rank == 0
        entropy = entanglement_entropy(d)
        assert entropy == 0.0 and not np.signbit(entropy)
        assert not is_entangled(d)

    def test_entropy_of_demo_state(self):
        expected = -(11 / 12) * np.log2(11 / 12) - (1 / 12) * np.log2(1 / 12)
        assert entanglement_entropy(schmidt_decompose(example("psi0"))) == pytest.approx(
            expected, abs=1e-12
        )

    def test_is_entangled(self):
        assert is_entangled(schmidt_decompose(example("psi0")))
        product = BipartitePureState.from_amplitudes(("a",), ("alpha",), [[1.0]])
        assert not is_entangled(schmidt_decompose(product))


class TestReconstruct:
    def test_complex_state_round_trip(self):
        state = example("psi3")
        rebuilt = reconstruct(schmidt_decompose(state))
        assert np.max(np.abs(rebuilt - state.amplitudes)) < 1e-9

    def test_manual_rank_one_decomposition(self):
        d = SchmidtDecomposition(
            lambdas=[1.0, 0.0],
            latin_modes=np.array([[1.0], [0.0]], dtype=complex),
            greek_modes=np.array([[1.0], [0.0], [0.0]], dtype=complex),
        )
        assert d.rank == 1
        expected = np.zeros((2, 3))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(reconstruct(d), expected, rtol=0, atol=1e-15)

    def test_missing_modes_rejected(self):
        # The constructor refuses the record, so no summary or report ever sees it.
        with pytest.raises(ValidationError, match="2 Latin and 1 Greek modes for 2 eigenvalues"):
            SchmidtDecomposition(
                lambdas=np.array([0.5, 0.5]),
                latin_modes=np.eye(2, dtype=complex),
                greek_modes=np.array([[1.0], [0.0]], dtype=complex),
            )
        with pytest.raises(ValidationError, match="2 Latin and 1 Greek modes for 2 eigenvalues"):
            SchmidtDecomposition([0.5, 0.5], [[1, 0], [0, 1]], [[1], [0]])
        # Fewer eigenvalues than mode pairs: broadcasting would reuse lambdas[0].
        with pytest.raises(ValidationError, match="2 Latin and 2 Greek modes for 1 eigenvalues"):
            SchmidtDecomposition(np.array([1.0]), np.eye(2), np.eye(2))
        # 1-d mode arrays hold no column per mode.
        with pytest.raises(ShapeError, match=re.escape(
                "latin_modes must be a 2-d matrix, got shape (2,)")):
            SchmidtDecomposition(np.array([1.0]), np.ones(2), np.ones(2))
        with pytest.raises(ShapeError, match=re.escape(
                "lambdas must be a 1-d array, got shape (1, 1)")):
            SchmidtDecomposition([[1.0]], [[1.0]], [[1.0]])

    # Each broke a summary: the entropy read 0.0 and K nan for [nan, 1], K read 0.4 for
    # [-0.5, 1.5], and the others warned in log2, sqrt, square or matmul.
    @pytest.mark.parametrize("lambdas,latin,greek,message", [
        ([np.nan, 1.0], np.eye(2), np.eye(2), "lambda 0 is nan, outside [0, 1]"),
        ([1e200, 0.0], [[1], [0]], [[1], [0]], "lambda 0 is 1e+200, outside [0, 1]"),
        ([-0.5, 1.5], np.eye(2), np.eye(2), "lambda 0 is -0.5, outside [0, 1]"),
        ([np.inf, 0.0], [[1], [0]], [[1], [0]], "lambda 0 is inf, outside [0, 1]"),
        ([1.0, 0.0], [[1e300], [0]], [[1], [0]],
         "latin_modes entry (0, 0) has magnitude 1e+300, above 1"),
        ([1.0, 0.0], np.eye(2), np.eye(2), "lambda 1 is 0.0, but its mode pair is kept"),
        ([0.4, 0.6], np.eye(2), np.eye(2), "lambda 1 is 0.6, above lambda 0"),
        ([0.5, 0.25], np.eye(2), np.eye(2), "lambdas sum to 0.75, expected 1"),
        ([0.5, 0.5], np.eye(2), [[1, 0], [0, np.nan]],
         "greek_modes entry (1, 1) is not a number: (nan+0j)"),
    ], ids=["nan", "huge", "negative", "inf", "huge-mode", "kept-zero", "increasing",
            "sum", "nan-greek-mode"])
    def test_values_that_break_a_summary_are_refused(self, lambdas, latin, greek, message):
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            SchmidtDecomposition(lambdas, latin, greek)

    def test_rank_is_derived_not_passed(self):
        assert list(inspect.signature(SchmidtDecomposition).parameters) == [
            "lambdas", "latin_modes", "greek_modes"]
        with pytest.raises(TypeError):
            SchmidtDecomposition(np.array([1.0]), np.ones((1, 1)), np.ones((1, 1)), rank=1)


class TestDecompositionRecord:
    @pytest.mark.parametrize("state", [
        # rank 2 of 3: lambdas ends in a zero that has no mode pair
        BipartitePureState(("a", "b", "c"), ("x", "y", "z"), [[1, 1, 0], [1, 1, 0], [0, 0, 1]]),
        example_state("psi3"),
        BipartitePureState(("a",), ("x", "y", "z", "w"), [[1, 2j, 0, -1]]),
    ], ids=["rank-deficient", "psi3", "1xN"])
    def test_lists_give_what_the_arrays_give(self, state):
        report = build_report(state)
        d = report.decomposition
        listed = SchmidtDecomposition(d.lambdas.tolist(), d.latin_modes.tolist(),
                                      d.greek_modes.tolist())
        assert np.array_equal(reconstruct(listed), reconstruct(d))
        assert schmidt_number(listed) == schmidt_number(d)
        assert entanglement_entropy(listed) == entanglement_entropy(d)
        assert is_entangled(listed) is is_entangled(d)
        assert listed.rank == d.rank
        again = AnalysisReport(state, listed)
        assert again.to_dict() == report.to_dict()
        assert render_report(again) == render_report(report)

    def test_arrays_are_frozen_copies(self):
        given = {"lambdas": np.array([0.5, 0.5]), "latin_modes": np.eye(2),
                 "greek_modes": np.eye(2, dtype=complex)}
        d = SchmidtDecomposition(**given)
        for name, array in given.items():
            kept = getattr(d, name)
            assert array.flags.writeable
            assert not kept.flags.writeable
            array[...] = 7.0  # writes the caller's array, not the record's
            assert not np.any(kept == 7.0)


# Each record with one array field set to ``value`` and the others valid, by
# field name, with the field's rank.
RECORD_FIELDS = {
    "amplitudes": (2, lambda value: BipartitePureState(("a", "b"), ("x", "y"), value)),
    "lambdas": (1, lambda value: SchmidtDecomposition(value, [[1], [0]], [[1], [0]])),
    "latin_modes": (2, lambda value: SchmidtDecomposition([1.0, 0.0], value, [[1], [0]])),
    "greek_modes": (2, lambda value: SchmidtDecomposition([1.0, 0.0], [[1], [0]], value)),
    "matrix": (2, lambda value: DensityMatrix(value)),
}


@pytest.mark.parametrize("name", RECORD_FIELDS)
@pytest.mark.parametrize("value", [[[1, 0], [0]], {"a": 1}, np.ones((2, 2, 1)),
                                   [["1", "0"], ["0", "1"]]],
                         ids=["ragged", "dict", "rank-3", "text"])
def test_records_name_the_field_they_cannot_read(name, value):
    # A numpy ValueError or TypeError would not say which argument is wrong,
    # and numpy would read the text "1" as the number 1.
    ndim, build = RECORD_FIELDS[name]
    message = (f"{name} must be a {ndim}-d {'matrix' if ndim == 2 else 'array'}, "
               "got shape (2, 2, 1)" if isinstance(value, np.ndarray)
               else f"{name} is not a rectangular array of numbers: ")
    with pytest.raises(ShapeError, match="^" + re.escape(message)):
        build(value)


@pytest.mark.parametrize("lambdas", [np.array([0.5 + 1j, 0.5]), [0.5 + 1j, 0.5]],
                         ids=["array", "list"])
def test_complex_lambdas_are_refused(lambdas):
    # Cast to float, the array would lose its imaginary part with only a warning.
    with pytest.raises(ShapeError, match=re.escape(
            "lambdas is not a rectangular array of real numbers: dtype complex128")):
        SchmidtDecomposition(lambdas, [[1], [0]], [[1], [0]])


# Each label field set to ``value``, the other fields valid, by the name the error gives.
LABEL_FIELDS = {
    "latin_labels": lambda value: BipartitePureState(value, ("x", "y"), np.eye(2)),
    "greek_labels": lambda value: BipartitePureState(("a", "b"), value, np.eye(2)),
    "parts": lambda value: DensityMatrix(np.eye(2) / 2, value),
    "parts[0]": lambda value: DensityMatrix(np.eye(2) / 2, (value,)),
}


@pytest.mark.parametrize("name", LABEL_FIELDS)
@pytest.mark.parametrize("value", ["HV", {"H": 1}, None, 5],
                         ids=["text", "mapping", "none", "number"])
def test_label_fields_are_read_by_one_intake(name, value):
    # Text and a mapping iterate as characters and keys, which would pass as labels.
    kind = "label arrays" if name == "parts" else "strings"  # parts holds one array per party
    with pytest.raises(ShapeError, match="^" + re.escape(
            f"{name} is not an array of {kind}: {value!r}") + "$"):
        LABEL_FIELDS[name](value)


@pytest.mark.parametrize("labels,fault", [
    (["a", "b", 5], "label 2 is not {rule}: 5"),
    (["a", "b", "c", "b"], "label 3 repeats label 1: 'b'"),
], ids=["not-a-str", "repeat"])
def test_a_label_fault_reads_alike_in_a_state_a_density_matrix_and_a_file(
        tmp_path, capsys, labels, fault):
    # One rule names the index, and for a repeat the earlier one too; only the field's name
    # differs, and a state's labels must also be ket-v1 labels.
    state_fault = "Latin " + fault.format(rule="a ket-v1 label (a letter, then letters, "
                                               "digits or '_')")
    with pytest.raises(ValidationError, match="^" + re.escape(state_fault) + "$"):
        BipartitePureState(labels, ("x",), np.ones((len(labels), 1)))
    with pytest.raises(ValidationError, match="^" + re.escape(
            "parts[0] " + fault.format(rule="a str")) + "$"):
        DensityMatrix(np.eye(len(labels)) / len(labels), (labels,))
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"format": "schmidt-state-v1", "latin_labels": labels,
                                "greek_labels": ["x"], "amplitudes": [[[1, 0]]] * len(labels)}))
    assert main(["analyze", "--file", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {state_fault}\n")


@pytest.mark.parametrize("call,message", [
    (lambda: classical_mixture([(0.5, "H")]), "mixture term (0.5, 'H') is not a (weight, a, b)"),
    (lambda: schmidt_decompose(example_state("psi0"), "1e-10"),
     "rank threshold must be finite and positive, got '1e-10'"),
    (lambda: schmidt_decompose(example_state("psi0"), np.array([1e-10, 1e-10])),
     "rank threshold must be finite and positive, got array("),
    (lambda: parse_state(None), "ket-v1 text must be a str, got None"),
    (lambda: parse_expression(5), "ket-v1 text must be a str, got 5"),
], ids=["mixture-pair", "threshold-text", "threshold-array", "parse-none", "expression-int"])
def test_library_calls_name_the_argument_they_refuse(call, message):
    # Unchecked, each ends in Python's or numpy's own error, which names no argument.
    with pytest.raises(SchmidtError, match="^" + re.escape(message)):
        call()


def test_memory_layout_does_not_change_a_state():
    # A Fortran-ordered copy holds the same matrix, so every bit of the state is the same.
    rng = np.random.default_rng(7)
    for _ in range(2000):
        rows, cols = rng.integers(2, 7, size=2)
        amps = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        c_order = labelled_state(amps)
        f_order = labelled_state(np.asfortranarray(amps))
        assert f_order.norm == c_order.norm
        for name in ("amplitudes", "coefficients"):
            assert getattr(f_order, name).tobytes() == getattr(c_order, name).tobytes()

