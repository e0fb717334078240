import inspect
import math
import re

import numpy as np
import pytest

from schmidt.density import (
    DensityMatrix,
    classical_mixture,
    conditional_state,
    gram_greek,
    gram_latin,
    partial_trace,
    product_labels,
    pure_density,
    purity,
)
from schmidt.catalog import example_state
from schmidt.errors import ImpossibleOutcomeError, ShapeError, ValidationError
from schmidt.modes import (RESIDUAL_LIMIT, BipartitePureState, SchmidtDecomposition,
                           schmidt_number, schmidt_decompose)
from states import example

NEEDS_TWO_PARTIES = ("needs a two-party density matrix, "
                     "as built by pure_density or classical_mixture")



class TestDensityMatrixType:
    def test_validates_hermiticity(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_validates_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.eye(2))
        with pytest.raises(ValidationError, match=r"^density matrix trace is 0\.0, expected 1$"):
            DensityMatrix(np.zeros((0, 0)))

    def test_nan_matrix_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"^density matrix entry \(0, 0\) is not a number: \(nan\+0j\)$"):
            DensityMatrix(np.full((2, 2), np.nan))

    # m - adj(m) of an infinite entry is inf - inf: numpy warns, and the defect is NaN.
    # The entry bound refuses it first; a NaN pair would pass a Hermitian check of NaN.
    @pytest.mark.parametrize("build,message", [
        (lambda: DensityMatrix(np.diag([np.inf, 0.0])), r"\(0, 0\) has magnitude inf, above 1"),
        (lambda: DensityMatrix([[0.5, 0.5], [-np.inf, 0.5]]),
         r"\(1, 0\) has magnitude inf, above 1"),
        (lambda: classical_mixture([(math.inf, "a", "b")]), r"\(0, 0\) has magnitude inf, above 1"),
        (lambda: DensityMatrix([[0.5, np.nan], [np.nan, 0.5]]),
         r"\(0, 1\) is not a number: \(nan\+0j\)"),
    ], ids=["diagonal", "off-diagonal", "mixture-weight", "nan-hermitian-pair"])
    def test_non_finite_entry_is_named_without_a_warning(self, build, message):
        with pytest.raises(ValidationError, match=r"^density matrix entry " + message + "$"):
            build()

    # Finite entries whose difference or sum passes the float maximum: numpy would warn
    # "overflow encountered" (or, for inf - inf in a pairwise sum, "invalid value").
    @pytest.mark.parametrize("build,message", [
        (lambda: DensityMatrix([[0.5, 1e308], [-1e308, 0.5]]),
         r"^density matrix entry \(0, 1\) has magnitude 1e\+308, above 1$"),
        (lambda: DensityMatrix(np.diag([1.7e308, 1.7e308])),
         r"^density matrix entry \(0, 0\) has magnitude 1\.7e\+308, above 1$"),
        (lambda: DensityMatrix(np.diag([1.7e308, 1.7e308, -1.7e308, -1.7e308, 0, 0, 0, 0, 1])),
         r"^density matrix entry \(0, 0\) has magnitude 1\.7e\+308, above 1$"),
        (lambda: classical_mixture([(1e308, "a", "b"), (1e308, "a", "b")]),
         r"^density matrix entry \(0, 0\) has magnitude inf, above 1$"),
        (lambda: partial_trace(DensityMatrix(
            np.diag([0.25] * 4) + 1e308 * (np.eye(4, k=2) + np.eye(4, k=-2)),
            (["a", "b"], ["c", "d"])), "A"),
         r"^density matrix entry \(0, 2\) has magnitude 1e\+308, above 1$"),
        (lambda: conditional_state(DensityMatrix(
            np.diag([0.25] * 4) + 1e308 * (np.eye(4, k=2) + np.eye(4, k=-2)),
            (["a", "b"], ["c", "d"])), [2**-0.5, 2**-0.5]),
         r"^density matrix entry \(0, 2\) has magnitude 1e\+308, above 1$"),
    ], ids=["hermiticity", "trace", "trace-inf-minus-inf", "mixture-weights", "partial-trace",
            "conditional-state"])
    def test_sum_past_the_float_range_is_refused_without_a_warning(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    # Hermitian and of trace 1, but no positive semidefinite matrix of trace 1 has an entry
    # above 1; purity read 8.5 for the first and inf for the second.
    @pytest.mark.parametrize("matrix,magnitude", [
        ([[0.5, 2], [2, 0.5]], r"2\.0"), ([[0.5, 1e200], [1e200, 0.5]], r"1e\+200"),
    ], ids=["two", "past-the-square-root-of-the-float-maximum"])
    def test_entry_above_one_is_refused(self, matrix, magnitude):
        with pytest.raises(ValidationError, match=r"^density matrix entry \(0, 1\) has "
                                                  f"magnitude {magnitude}, above 1$"):
            DensityMatrix(matrix)

    # RESIDUAL_LIMIT is the one tolerance of each check: 0.9e-9 past exact passes, 1.1e-9 fails.
    @pytest.mark.parametrize("build,message", [
        (lambda d: [[0.5, 0.25], [0.25 + d, 0.5]], r"is not Hermitian \(defect 1\.100e-09\)"),
        (lambda d: np.diag([1 + d, -d]), r"entry \(0, 0\) has magnitude 1\.0000000011, above 1"),
        (lambda d: np.diag([0.5, 0.5 + d]), r"trace is 1\.0000000011, expected 1"),
    ], ids=["hermiticity", "entry", "trace"])
    @pytest.mark.parametrize("offset", [0.9e-9, 1.1e-9], ids=["inside", "outside"])
    def test_each_check_allows_trace_atol(self, build, message, offset):
        if offset < RESIDUAL_LIMIT:
            DensityMatrix(build(offset))
        else:
            with pytest.raises(ValidationError, match=f"^density matrix {message}$"):
                DensityMatrix(build(offset))

    @pytest.mark.parametrize("accepted,refused,message", [
        ([[0.5, 0], [RESIDUAL_LIMIT, 0.5]], [[0.5, 0], [np.nextafter(RESIDUAL_LIMIT, 1), 0.5]],
         r"is not Hermitian \(defect 1\.000e-09\)"),
        (np.diag([1 + RESIDUAL_LIMIT, -RESIDUAL_LIMIT]),
         np.diag([np.nextafter(1 + RESIDUAL_LIMIT, 2), -RESIDUAL_LIMIT]),
         r"entry \(0, 0\) has magnitude 1\.0000000010000003, above 1"),
    ], ids=["hermiticity", "entry"])
    def test_a_defect_or_entry_exactly_on_the_bound_passes(self, accepted, refused, message):
        # The bound itself passes and the next float above it fails.
        DensityMatrix(accepted)
        with pytest.raises(ValidationError, match=f"^density matrix {message}$"):
            DensityMatrix(refused)

    def test_an_accepted_schmidt_spectrum_is_an_accepted_reduced_state(self):
        # Either reduced state of a pure state is diag(lambdas) in its Schmidt basis, so both
        # records read the spectrum's sum by the same rule. The second spectrum's exact sum is
        # 1.0000000009999999, while np.trace rounded it to 1.000000001, above 1 + RESIDUAL_LIMIT.
        for lambdas in ([0.5 + 5e-10, 0.5], [0.25000000025] + [0.25000000024999997] * 3):
            SchmidtDecomposition(lambdas, np.eye(len(lambdas)), np.eye(len(lambdas)))
            DensityMatrix(np.diag(lambdas))
        labels = ("H", "V")
        lambdas = [0.5 + 2e-9, 0.5]
        with pytest.raises(ValidationError, match=r"^lambdas sum to 1\.0000000020000002, "):
            SchmidtDecomposition(lambdas, np.eye(2), np.eye(2))
        with pytest.raises(ValidationError, match=r"^density matrix trace is 1\.0000000020000002, "
                                                  r"expected 1$"):
            DensityMatrix(np.diag(lambdas), (labels,))

    def test_a_spectrum_and_its_diagonal_agree_at_the_sum_bound(self):
        # Seeded descending spectra whose sums lie a few ulps either side of 1 -/+ RESIDUAL_LIMIT:
        # both records accept, or both refuse, each spectrum, and each verdict occurs.
        def accepts(record, *args):
            try:
                record(*args)
            except ValidationError:
                return False
            return True

        rng = np.random.default_rng(54)
        verdicts = set()
        for n in range(1, 41):
            for edge in (1 - RESIDUAL_LIMIT, 1 + RESIDUAL_LIMIT):
                spectrum = np.sort(rng.random(n))[::-1]
                spectrum *= edge / math.fsum(spectrum)
                for ulps in range(-4, 5):
                    lam = spectrum.copy()
                    lam[0] += ulps * np.spacing(lam[0])
                    verdict = accepts(SchmidtDecomposition, lam, np.zeros((n, 0)), np.zeros((n, 0)))
                    assert accepts(DensityMatrix, np.diag(lam)) == verdict, lam
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("dim,parts,message", [
        (4, (["H", "V"], ["H", "H"]), r"^parts\[1\] label 1 repeats label 0: 'H'$"),
        (2, (["H", "H"],), r"^parts\[0\] label 1 repeats label 0: 'H'$"),
        (3, (["H", "V", "V"],), r"^parts\[0\] label 2 repeats label 1: 'V'$"),
        (2, ([1, None],), r"^parts\[0\] label 0 is not a str: 1$"),
        (4, (["H", "V"], ["H", b"V"]), r"^parts\[1\] label 1 is not a str: b'V'$"),
    ], ids=["product", "one-part", "not-first", "number", "bytes"])
    def test_labels_must_be_unique_strings(self, dim, parts, message):
        with pytest.raises(ValidationError, match=message):
            DensityMatrix(np.eye(dim) / dim, parts)

    def test_a_repeated_label_is_found_in_one_pass(self):
        # The repeat is last, so counting each label's occurrences would compare every pair.
        calls = []

        class Label(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                calls.append(other)
                return str.__eq__(self, other)

        n = 300
        part = [Label(f"q{i}") for i in range(n)] + [Label(f"q{n - 1}")]
        with pytest.raises(ValidationError,
                           match=rf"^parts\[0\] label {n} repeats label {n - 1}: 'q{n - 1}'$"):
            DensityMatrix(np.eye(n + 1) / (n + 1), (part,))
        assert len(calls) <= 4 * n

    def test_pairs_that_print_alike_are_a_basis(self):
        # Each party's labels are unique; "a,b" (x) "c" and "a" (x) "b,c" print alike.
        rho = DensityMatrix(np.eye(4) / 4, (["a,b", "a"], ["c", "b,c"]))
        assert rho.basis_labels == ("a,b,c", "a,b,b,c", "a,c", "a,b,c")
        mixed = classical_mixture([(0.5, "a,b", "c"), (0.5, "a", "b,c")])
        assert mixed.parts == (("a", "a,b"), ("b,c", "c"))

    def test_validates_shape_and_labels(self):
        with pytest.raises(ShapeError):
            DensityMatrix(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="1 basis labels for a 2-dimensional matrix"):
            DensityMatrix(np.eye(2) / 2, (("only-one",),))

    def test_constructor_leaves_the_callers_array_writable(self):
        m = np.eye(2, dtype=complex) / 2
        rho = DensityMatrix(m)
        assert m.flags.writeable
        assert not rho.matrix.flags.writeable
        m[0, 0] = 1.0
        assert rho.matrix[0, 0] == 0.5

    def test_default_labels(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert rho.basis_labels == ("0", "1")

    def test_parts_give_the_basis_labels(self):
        rho = DensityMatrix(np.eye(4) / 4, parts=(["H", "V"], ("H", "V")))
        assert rho.parts == (("H", "V"), ("H", "V"))
        assert rho.basis_labels == ("HH", "HV", "VH", "VV")
        one_party = DensityMatrix(np.eye(2) / 2, (["H", "V"],))
        assert one_party.parts == (("H", "V"),)
        assert one_party.basis_labels == ("H", "V")
        assert DensityMatrix(np.eye(2) / 2).parts == ()

    def test_basis_labels_are_derived_not_passed(self):
        assert list(inspect.signature(DensityMatrix).parameters) == ["matrix", "parts"]
        with pytest.raises(TypeError):
            DensityMatrix(np.eye(2) / 2, basis_labels=("H", "V"))

    @pytest.mark.parametrize("parts,message", [
        ((("H", "V"),), "2 basis labels for a 4-dimensional matrix"),
        ((("H", "V"), ("H", "V"), ("H",)), "one or two parts, got 3"),
        ((("a", "b", "c"), ("x", "y")), "6 basis labels for a 4-dimensional matrix"),
        ((("a",), ("x", "y")), "2 basis labels for a 4-dimensional matrix"),
        # Read as parts, ("HH", "VV") would label the matrix ("HV", "HV", "HV", "HV").
        (("HH", "VV"), r"^parts\[0\] is not an array of strings: 'HH'$"),
        ((("H", "V"), "HV"), r"^parts\[1\] is not an array of strings: 'HV'$"),
    ], ids=["one-part", "three-parts", "sizes-too-large", "sizes-too-small", "string-parts",
            "one-string-part"])
    def test_inconsistent_parts_rejected(self, parts, message):
        with pytest.raises(ShapeError, match=message):
            DensityMatrix(np.eye(4) / 4, parts)

    def test_product_labels(self):
        assert product_labels(("H", "V"), ("H", "V")) == ("HH", "HV", "VH", "VV")
        assert product_labels(("a",), ("alpha", "beta")) == ("a,alpha", "a,beta")


class TestPureDensity:
    def test_basis_product_state_is_single_diagonal_one(self):
        state = BipartitePureState.from_amplitudes(("H", "V"), ("H", "V"), [[0, 1], [0, 0]])
        rho = pure_density(state)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # the HV slot
        np.testing.assert_allclose(rho.matrix, expected, rtol=0, atol=1e-15)

    def test_projector_purity_is_one(self):
        assert purity(pure_density(example("psi0"))) == pytest.approx(1.0, abs=1e-10)

    def test_partial_traces_match_gram_matrices(self):
        for name in ("psi0", "psi1", "psi2", "psi3"):
            state = example_state(name)
            rho = pure_density(state)
            assert rho.parts == (state.latin_labels, state.greek_labels)
            reduced_a, reduced_b = partial_trace(rho, "A"), partial_trace(rho, "B")
            latin, greek = gram_latin(state), gram_greek(state)
            assert np.max(np.abs(reduced_a.matrix - latin.matrix)) < 1e-10
            assert np.max(np.abs(reduced_b.matrix - greek.matrix)) < 1e-10
            assert reduced_a.basis_labels == latin.basis_labels
            assert reduced_b.basis_labels == greek.basis_labels

    def test_unnormalized_input_gives_a_unit_trace_projector(self):
        state = BipartitePureState(("a", "b"), ("c",), np.array([[2.0 + 0j], [2.0j]]))
        assert state.norm == pytest.approx(np.sqrt(8.0), rel=1e-15)
        rho = pure_density(state)
        np.testing.assert_allclose(rho.matrix, [[0.5, -0.5j], [0.5j, 0.5]], rtol=0, atol=1e-15)


class TestClassicalMixture:
    def test_single_term_is_pure_projector(self):
        rho = classical_mixture([(1.0, "H", "V")])
        np.testing.assert_allclose(rho.matrix, [[1.0]], rtol=0, atol=1e-15)
        assert purity(rho) == pytest.approx(1.0)

    def test_uneven_weights(self):
        rho = classical_mixture([(0.25, "H", "V"), (0.75, "V", "H")])
        np.testing.assert_allclose(rho.matrix, np.diag([0.0, 0.25, 0.75, 0.0]), rtol=0, atol=1e-15)

    def test_generator_of_terms_reads_as_a_list(self):
        # The terms are read more than once, so a generator is drained into a tuple first.
        terms = [(0.25, "H", "V"), (0.5, "V", "H"), (0.25, "H", "V")]
        rho, listed = classical_mixture(term for term in terms), classical_mixture(terms)
        np.testing.assert_array_equal(rho.matrix, listed.matrix)
        assert rho.parts == listed.parts == (("H", "V"), ("H", "V"))

    def test_weight_violations_rejected(self):
        with pytest.raises(ValidationError):
            classical_mixture([(0.9, "H", "V")])
        with pytest.raises(ValidationError):
            classical_mixture([(1.5, "H", "V"), (-0.5, "V", "H")])
        with pytest.raises(ValidationError):
            classical_mixture([])

    @pytest.mark.parametrize("terms", [[(np.nan, "H", "V")],
                                       [(0.5, "H", "V"), (np.nan, "V", "H")]])
    def test_nan_weight_rejected(self, terms):
        with pytest.raises(ValidationError, match="weights must be non-negative, got nan"):
            classical_mixture(terms)

    def test_weights_are_converted_once(self):
        # The weights are read once, by the array intake, which refuses text as every
        # number field does.
        with pytest.raises(ShapeError, match=re.escape(
                "mixture weights is not a rectangular array of numbers: dtype <U3")):
            classical_mixture([("0.5", "H", "V"), ("0.5", "V", "H")])

    @pytest.mark.parametrize("weight", ["half", None, 0.5j])
    def test_unreadable_weight_rejected(self, weight):
        with pytest.raises(ShapeError, match="^mixture weights is not a rectangular array of"):
            classical_mixture([(0.5, "H", "V"), (weight, "V", "H")])

    def test_a_weight_of_minus_residual_limit_passes_and_no_lower(self):
        rho = classical_mixture([(1 + RESIDUAL_LIMIT, "H", "H"), (-RESIDUAL_LIMIT, "V", "V")])
        assert rho.matrix[3, 3] == -RESIDUAL_LIMIT
        with pytest.raises(ValidationError, match=re.escape(
                "mixture weights must be non-negative, got -1.0000000000000003e-09")):
            classical_mixture([(1 + RESIDUAL_LIMIT, "H", "H"),
                               (np.nextafter(-RESIDUAL_LIMIT, -1), "V", "V")])

    def test_negative_weight_is_printed_as_a_python_float(self):
        with pytest.raises(ValidationError, match=re.escape(
                "mixture weights must be non-negative, got -0.5")):
            classical_mixture([(1.5, "H", "V"), (-0.5, "V", "H")])

    @pytest.mark.parametrize("terms,error,message", [
        ([(0.5, "H", "V"), (0.5, 1, "H")], ValidationError,
         "mixture term (0.5, 1, 'H') has a label that is not a str: 1"),
        ([(1.0, ["H"], "V")], ValidationError,
         "mixture term (1.0, ['H'], 'V') has a label that is not a str: ['H']"),
        ([(1.0, None, "H")], ValidationError,
         "mixture term (1.0, None, 'H') has a label that is not a str: None"),
        (5, ShapeError, "mixture terms is not an array of (weight, a, b) triples: 5"),
        ("ab", ShapeError, "mixture terms is not an array of (weight, a, b) triples: 'ab'"),
        (b"ab", ShapeError, "mixture terms is not an array of (weight, a, b) triples: b'ab'"),
        ({(1.0, "H", "V"): 0}, ShapeError,
         "mixture terms is not an array of (weight, a, b) triples: {(1.0, 'H', 'V'): 0}"),
    ], ids=["mixed-label-types", "list-label", "none-label", "not-iterable", "text", "bytes",
            "mapping-of-triples"])
    def test_unreadable_terms_name_the_argument(self, terms, error, message):
        # Unchecked, a bad label ends in Python's own TypeError or in a 'None,H' basis, text and
        # bytes are read item by item, and a mapping builds a state from its keys.
        with pytest.raises(error, match="^" + re.escape(message) + "$"):
            classical_mixture(terms)


class TestPartialTrace:
    def test_classical_mixture_reduces_identically(self):
        rho = classical_mixture([(0.5, "H", "V"), (0.5, "V", "H")])
        reduced = partial_trace(rho, "A")
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, rtol=0, atol=1e-10)

    def test_trace_is_preserved(self):
        rho = pure_density(example("psi0"))
        reduced = partial_trace(rho, "B")
        assert np.trace(reduced.matrix).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("keep", ["A", "B"])
    def test_one_party_matrix_rejected(self, keep):
        reduced = partial_trace(pure_density(example("bell")), keep)
        assert reduced.parts == (("H", "V"),)
        for rho in (DensityMatrix(np.eye(4) / 4), reduced):
            with pytest.raises(ShapeError, match=f"a partial trace {NEEDS_TWO_PARTIES}"):
                partial_trace(rho, keep)

    def test_bad_keep_flag_rejected(self):
        rho = pure_density(example("bell"))
        with pytest.raises(ValidationError):
            partial_trace(rho, "C")


class TestPurity:
    def test_maximal_mixture(self):
        assert purity(DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-12)

    def test_rank_one_projector(self):
        v = np.array([1.0, 2.0, 2.0]) / 3.0
        rho = DensityMatrix(np.outer(v, v))
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_reduced_demo_state_purity_is_reciprocal_schmidt_number(self):
        state = example("psi0")
        assert purity(gram_latin(state)) == pytest.approx(122 / 144, abs=1e-12)
        k = schmidt_number(schmidt_decompose(state))
        assert purity(gram_greek(state)) == pytest.approx(1.0 / k, abs=1e-9)


class TestConditionalState:
    def test_result_is_labelled_with_the_greek_basis(self):
        _, cond = conditional_state(pure_density(example("psi0")), [1.0, 0.0])
        assert cond.basis_labels == ("alpha", "beta", "gamma")

    def test_one_party_matrix_rejected(self):
        with pytest.raises(ShapeError, match=f"a conditional state {NEEDS_TWO_PARTIES}"):
            conditional_state(DensityMatrix(np.eye(4) / 4), [1.0, 0.0])

    def test_orthogonal_projection_is_impossible(self):
        state = BipartitePureState.from_amplitudes(("a", "b"), ("alpha",), [[1.0], [0.0]])
        rho = pure_density(state)
        with pytest.raises(ImpossibleOutcomeError):
            conditional_state(rho, [0.0, 1.0])

    def test_a_probability_of_residual_limit_passes_and_no_lower(self):
        rho = classical_mixture([(RESIDUAL_LIMIT, "H", "H"), (1 - RESIDUAL_LIMIT, "V", "V")])
        assert conditional_state(rho, [1, 0])[0] == RESIDUAL_LIMIT
        below = float(np.nextafter(RESIDUAL_LIMIT, 0))
        rho = classical_mixture([(below, "H", "H"), (1 - below, "V", "V")])
        with pytest.raises(ImpossibleOutcomeError, match=re.escape(
                f"outcome probability {below!r} is below 1e-09; cannot condition on it")):
            conditional_state(rho, [1, 0])

    def test_an_outcome_within_the_accuracy_of_rho_is_impossible(self):
        # |VV><VV| plus a Hermitian error E of entries at most 4e-10, which DensityMatrix accepts.
        # Outcome H has probability 4e-10, all of it from E: its normalised block, read at a 1e-12
        # floor, was [[0.75, 0.5], [0.5, 0.25]], of eigenvalues -0.059 and 1.059.
        error = np.zeros((4, 4))
        error[0, 0], error[1, 1], error[3, 3] = 3e-10, 1e-10, -4e-10
        error[0, 1] = error[1, 0] = 2e-10
        rho = DensityMatrix(np.diag([0.0, 0.0, 0.0, 1.0]) + error, (("H", "V"), ("H", "V")))
        with pytest.raises(ImpossibleOutcomeError, match=re.escape(
                "outcome probability 4e-10 is below 1e-09; cannot condition on it")):
            conditional_state(rho, [1, 0])

    def test_probabilities_over_a_basis_sum_to_one(self):
        rho = pure_density(example("psi0"))
        basis = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        total = sum(conditional_state(rho, v)[0] for v in basis)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_projector_must_be_normalized(self):
        rho = pure_density(example("bell"))
        with pytest.raises(ValidationError, match=r"^projection vector must have unit norm, "
                                                  r"got 1\.41421$"):
            conditional_state(rho, [1.0, 1.0])

    def test_nan_projector_rejected(self):
        rho = pure_density(example("bell"))
        with pytest.raises(ValidationError, match=r"^projection vector component 0 is not a "
                                                  r"number: \(nan\+0j\)$"):
            conditional_state(rho, [np.nan, 0.0])

    def test_projector_component_above_one_is_refused_without_a_warning(self):
        # No unit vector has such a component; its square would overflow the norm.
        rho = pure_density(example("bell"))
        with pytest.raises(ValidationError, match=r"^projection vector component 0 has "
                                                  r"magnitude 1e\+300, above 1$"):
            conditional_state(rho, [1e300, 0])

    def test_projector_dimension_checked(self):
        rho = pure_density(example("bell"))
        with pytest.raises(ShapeError):
            conditional_state(rho, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("projector,message", [
        ("ab", "projection vector is not a rectangular array of numbers: dtype <U2"),
        ([1.0, [0.0]], "projection vector is not a rectangular array of numbers: "),
        ([[1], [0]], "projection vector must be a 1-d array, got shape (2, 1)"),
    ], ids=["text", "ragged", "2-d"])
    def test_projector_is_read_by_the_array_intake(self, projector, message):
        # Text and a ragged list are not vectors of numbers, and a column is not a vector.
        with pytest.raises(ShapeError, match="^" + re.escape(message)):
            conditional_state(pure_density(example("bell")), projector)
