import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schmidt.catalog import EXPRESSIONS
from schmidt.errors import ParseError, SchmidtError, ValidationError
from schmidt.ketparse import format_state, parse_expression, parse_state
from schmidt.modes import BipartitePureState


def raw(state):
    return np.asarray(state.amplitudes) * state.norm


class TestParseFixtures:
    def test_two_by_three_demo_expression(self):
        state = parse_state(EXPRESSIONS["psi0"])
        assert state.latin_labels == ("a", "b")
        assert state.greek_labels == ("alpha", "beta", "gamma")
        np.testing.assert_allclose(raw(state), [[2, 1, 1], [1, 2, 1]], atol=1e-12)
        assert state.norm == pytest.approx(np.sqrt(12.0), abs=1e-12)

    def test_sign_flip_expression(self):
        state = parse_state(EXPRESSIONS["psi1"])
        np.testing.assert_allclose(raw(state), [[2, 1, 1], [1, 2, -1]], atol=1e-12)

    def test_product_of_combinations_expression(self):
        state = parse_state(EXPRESSIONS["psi2"])
        assert state.greek_labels == ("alpha", "beta", "gamma", "delta")
        np.testing.assert_allclose(
            raw(state), [[2, 1, 1, -1], [1, 2, -1, 1]], atol=1e-12
        )
        assert state.norm**2 == pytest.approx(14.0, abs=1e-12)

    def test_complex_coefficients_expression(self):
        state = parse_state(EXPRESSIONS["psi3"])
        np.testing.assert_allclose(raw(state), [[2, 1j, 1], [1j, 2, 1]], atol=1e-12)
        assert state.norm == pytest.approx(np.sqrt(12.0), abs=1e-12)
        # the resulting Latin Gram matrix pins the cross terms: 2*conj(i)+i*conj(2)+1 = 1
        gram = state.amplitudes @ state.amplitudes.conj().T
        np.testing.assert_allclose(gram, np.array([[6, 1], [1, 6]]) / 12.0, atol=1e-12)

    def test_single_product_ket(self):
        state = parse_state("|a>(x)|alpha>")
        np.testing.assert_allclose(raw(state), [[1.0]], atol=1e-15)
        assert state.norm == pytest.approx(1.0)


class TestScalarsAndSyntax:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2|a>(x)|b_label>", 2.0),
            ("2.5|a>(x)|b_label>", 2.5),
            ("1/2|a>(x)|b_label>", 0.5),
            ("3/4*|a>(x)|b_label>", 0.75),
            ("1/sqrt(2)|a>(x)|b_label>", 1 / np.sqrt(2)),
            ("sqrt(2)|a>(x)|b_label>", np.sqrt(2)),
            ("i|a>(x)|b_label>", 1j),
            ("2i|a>(x)|b_label>", 2j),
            ("(1+2i)|a>(x)|b_label>", 1 + 2j),
            ("(1-i)|a>(x)|b_label>", 1 - 1j),
            ("(0.5+0.5i)|a>(x)|b_label>", 0.5 + 0.5j),
            ("1.5e-3|a>(x)|b_label>", 1.5e-3),
        ],
    )
    def test_scalar_forms(self, text, value):
        state = parse_state(text)
        assert raw(state)[0, 0] == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("tensor", ["(x)", "x", "⊗", "( x )"])
    def test_tensor_spellings(self, tensor):
        state = parse_state(f"|a>{tensor}|alpha> + |b>{tensor}|beta>")
        np.testing.assert_allclose(raw(state), np.eye(2), atol=1e-15)

    def test_whitespace_insensitivity(self):
        dense = parse_state("(2|a>+|b>)(x)|alpha>+(|a>+2|b>)(x)|beta>")
        spaced = parse_state(" ( 2 |a> + |b> ) ( x ) |alpha> + ( |a> + 2 |b> ) ( x ) |beta> ")
        np.testing.assert_allclose(dense.amplitudes, spaced.amplitudes, atol=1e-15)
        assert dense.latin_labels == spaced.latin_labels

    def test_minus_binds_like_arithmetic(self):
        state = parse_state("(|a> - |b>)(x)|alpha>")
        np.testing.assert_allclose(raw(state), [[1.0], [-1.0]], atol=1e-15)

    def test_leading_minus_on_state_and_combination(self):
        state = parse_state("-|a>(x)|alpha> + (-|a> + 2|b>)(x)|beta>")
        np.testing.assert_allclose(raw(state), [[-1.0, -1.0], [0.0, 2.0]], atol=1e-15)

    def test_term_level_scalar_scales_whole_product(self):
        state = parse_state("2(|a> + |b>)(x)(|alpha> + |beta>) + |a>(x)|gamma>")
        np.testing.assert_allclose(
            raw(state), [[2.0, 2.0, 1.0], [2.0, 2.0, 0.0]], atol=1e-15
        )

    def test_basis_order_is_first_appearance(self):
        state = parse_state("|b>(x)|beta> + |a>(x)|alpha>")
        assert state.latin_labels == ("b", "a")
        assert state.greek_labels == ("beta", "alpha")


class TestParseErrors:
    def test_lexical_error_reports_position_and_character(self):
        with pytest.raises(ParseError) as info:
            parse_state("|a>(x)|al@pha>")
        assert "@" in str(info.value)
        assert info.value.position == 10

    @pytest.mark.parametrize(
        "text,message,position",
        [
            ("|a>(x)", "expected a ket or '(', found end of input", 7),
            ("|a>(x)|b> +", "expected a ket or '(', found end of input", 12),
            ("2/|a>(x)|b>", "expected a number or sqrt(...) after '/'", 3),
            ("sqrt 2|a>(x)|b>", "expected '(' after sqrt, found '2'", 6),
            ("sqrt(2|a>(x)|b>", "expected ')' closing sqrt, found '|'", 7),
            ("|a>(x)|1b>", "expected a ket label, found '1'", 8),
            ("|a(x)|b>", "expected '>' closing the ket, found '('", 3),
            ("(|a> + |b>(x)|c>", "expected ')' closing the combination, found '('", 11),
            ("|a> |b>", "expected a tensor operator '(x)', found '|'", 5),
            ("1/sqrt(0)|a>(x)|b>", "division by zero in a scalar", 3),
            ("(|a> + |b>)(x)(|c> + |a>)",
             "label 'a' appears on both sides of the tensor product", 22),
            ("|a>(x)|b>)", "unexpected trailing input ')'", 10),
            ("|a>(x)|b> + (1+2i|c>(x)|d>", "expected '|' opening a ket, found '+'", 15),
            ("sq@rt(2)|a>(x)|b>", "unexpected character '@'", 3),
            ("1e999|a>(x)|b>", "scalar '1e999' overflows the float range", 1),
            ("1/1e999|a>(x)|b>", "scalar '1e999' overflows the float range", 3),
            ("|a>(x)|b> + 1/1e-320|c>(x)|d>", "scalar '1/1e-320' overflows the float range", 13),
            ("2/sqrt(1e400)|a>(x)|b>", "scalar '1e400' overflows the float range", 8),
            ("|a>(x)(|b> - (2-1e999i)|c>)", "scalar '(2-1e999i)' overflows the float range", 14),
        ],
    )
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(ParseError) as info:
            parse_state(text)
        assert str(info.value) == f"{message} (position {position})"
        assert info.value.position == position

    def test_unclosed_ket(self):
        with pytest.raises(ParseError) as info:
            parse_state("|a(x)|alpha>")
        assert info.value.position > 0

    def test_missing_tensor_operator(self):
        with pytest.raises(ParseError, match="tensor"):
            parse_state("|a> + |b>(x)|alpha>")

    def test_label_on_both_sides(self):
        with pytest.raises(ParseError, match="both sides"):
            parse_state("|a>(x)|b> + |b>(x)|a>")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_state("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_state("|a>(x)|b> |c>")

    def test_division_by_zero_is_a_parse_error(self):
        with pytest.raises(ParseError, match="division"):
            parse_state("1/0|a>(x)|b>")

    def test_zero_expression_is_rejected_as_a_state(self):
        with pytest.raises(ValidationError):
            parse_state("0|a>(x)|b>")

    def test_strict_norm_propagates(self):
        with pytest.raises(ValidationError):
            parse_state("2|a>(x)|b>", strict_norm=True)
        parse_state("|a>(x)|b>", strict_norm=True)


class TestFormat:
    def test_demo_expressions_format_canonically(self):
        for name in ("psi0", "psi1", "psi3"):
            state = parse_state(EXPRESSIONS[name])
            assert format_state(state) == EXPRESSIONS[name]

    def test_single_ket_state(self):
        state = BipartitePureState.from_amplitudes(("a",), ("alpha",), [[1.0]])
        assert format_state(state) == "|a>(x)|alpha>"

    def test_distributed_form_still_round_trips(self):
        state = parse_state(EXPRESSIONS["psi2"])
        again = parse_state(format_state(state))
        np.testing.assert_allclose(again.amplitudes, state.amplitudes, atol=1e-12)
        assert again.latin_labels == state.latin_labels
        assert again.greek_labels == state.greek_labels

    def test_zero_column_keeps_its_basis_ket(self):
        state = BipartitePureState.from_amplitudes(
            ("a", "b"), ("alpha", "beta"), [[1.0, 0.0], [1.0, 0.0]]
        )
        text = format_state(state)
        assert "|beta>" in text
        again = parse_state(text)
        assert again.greek_labels == ("alpha", "beta")
        np.testing.assert_allclose(again.amplitudes, state.amplitudes, atol=1e-12)

    def test_zero_entry_in_first_group_preserves_latin_order(self):
        state = BipartitePureState.from_amplitudes(
            ("b", "a"), ("alpha", "beta"), [[0.0, 1.0], [1.0, 1.0]]
        )
        again = parse_state(format_state(state))
        assert again.latin_labels == ("b", "a")
        np.testing.assert_allclose(again.amplitudes, state.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("coef,text", [
        (1, "(|a> + |c>)(x)|b>"),
        (-1, "(|a> - |c>)(x)|b>"),
        (1j, "(|a> + i|c>)(x)|b>"),
        (-1j, "(|a> - i|c>)(x)|b>"),
        (1 + 1j, "(|a> + (1+i)|c>)(x)|b>"),
        (1 - 1j, "(|a> + (1-i)|c>)(x)|b>"),
        (-1 + 1j, "(|a> - (1-i)|c>)(x)|b>"),
        (-1 - 1j, "(|a> - (1+i)|c>)(x)|b>"),
        (2 - 3j, "(|a> + (2-3i)|c>)(x)|b>"),
        (complex(-0.0, 2), "(|a> + 2i|c>)(x)|b>"),
        (complex(2, -0.0), "(|a> + 2|c>)(x)|b>"),
        (complex(-0.0, 0.0), "(|a> + 0|c>)(x)|b>"),
        (1e-7, "(|a> + 1e-07|c>)(x)|b>"),
        (3e5 + 1e20j, "(|a> + (300000+1e+20i)|c>)(x)|b>"),
        (123456789.123456789, "(|a> + 123456789.123457|c>)(x)|b>"),
        (-2.5e-300j, "(|a> - 2.5e-300i|c>)(x)|b>"),
    ])
    def test_coefficient_text(self, coef, text):
        # A bare 1 is omitted, the sign goes first, a zero part (either sign)
        # drops out, and other numbers keep 15 significant digits.
        state = BipartitePureState(("a", "c"), ("b",), np.array([[1], [coef]]))
        assert format_state(state) == text

    def test_zero_entry_in_later_group_is_skipped(self):
        state = BipartitePureState(("a", "c"), ("b", "d"), np.array([[1, 0], [2, -3j]]))
        assert format_state(state) == "(|a> + 2|c>)(x)|b> - 3i|c>(x)|d>"

    def test_random_states_round_trip(self):
        rng = np.random.default_rng(512)
        for trial in range(120):
            rows = rng.integers(1, 5)
            cols = rng.integers(1, 5)
            amps = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
            state = BipartitePureState.from_amplitudes(
                tuple(f"m{i}" for i in range(rows)),
                tuple(f"s{j}" for j in range(cols)),
                amps,
            )
            again = parse_state(format_state(state))
            assert again.latin_labels == state.latin_labels
            assert again.greek_labels == state.greek_labels
            assert np.max(np.abs(again.amplitudes - state.amplitudes)) < 1e-12


    @pytest.mark.parametrize("rows,cols", [(2, 2048), (4, 256), (24, 25), (300, 2)])
    def test_wide_states_round_trip_with_random_whitespace(self, rows, cols):
        rng = np.random.default_rng(rows * cols)
        amps = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        state = BipartitePureState.from_amplitudes(
            tuple(f"m{i}" for i in range(rows)), tuple(f"s{j}" for j in range(cols)), amps
        )
        text = format_state(state)
        # Split on ket-v1 token boundaries and rejoin with random whitespace.
        pieces = re.findall(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|[A-Za-z][A-Za-z0-9_]*|\S", text)
        gaps = rng.choice(["", " ", "  ", "\t", "\n"], size=len(pieces))
        spaced = "".join(piece + gap for piece, gap in zip(pieces, gaps))
        again = parse_state(spaced)
        assert again.latin_labels == state.latin_labels
        assert again.greek_labels == state.greek_labels
        assert np.max(np.abs(again.amplitudes - state.amplitudes)) < 1e-12
        assert np.array_equal(again.amplitudes, parse_state(text).amplitudes)


class TestExpressionTree:
    def test_terms_carry_tensor_structure(self):
        expr = parse_expression("2(|a> + 3|b>)(x)|alpha>")
        assert len(expr.terms) == 1
        term = expr.terms[0]
        assert term.coefficient == 2 + 0j
        assert term.latin == ((1 + 0j, "a"), (3 + 0j, "b"))
        assert term.greek == ((1 + 0j, "alpha"),)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_fuzzed_text_never_crashes(text):
    try:
        parse_state(text)
    except (ParseError, ValidationError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.+-*/()|><xi sqrtabe_⊗", max_size=40))
def test_fuzzed_grammar_charset_never_crashes(text):
    try:
        parse_state(text)
    except (ParseError, ValidationError):
        pass


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_spacing_never_changes_the_parse(seed):
    rng = np.random.default_rng(seed)
    tokens = ["(", "2", "|a>", "+", "|b>", ")", "(x)", "|alpha>",
              "+", "(", "|a>", "-", "2", "*", "|b>", ")", "(x)", "|beta>"]
    spaced = "".join(t + " " * rng.integers(0, 3) for t in tokens)
    state = parse_state(spaced)
    np.testing.assert_allclose(raw(state), [[2, 1], [1, -2]], atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["@", ".", "_", "é", "$", "\x00"]),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_stray_character_is_reported_where_it_was_inserted(rows, cols, seed, char, where):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(rows, cols)) + 1j * rng.integers(-2, 3, size=(rows, cols))
    state = BipartitePureState.from_amplitudes(
        tuple(f"a{i}" for i in range(rows)), tuple(f"b{j}" for j in range(cols)), amps
    )
    text = format_state(state)
    offset = round(where * len(text))
    before = text[offset - 1] if offset else " "
    # '.' continues a number and '_' a name; anywhere else they are stray.
    assume(not (char == "." and before.isdigit()))
    assume(not (char == "_" and (before.isalnum() or before == "_")))
    with pytest.raises(ParseError) as info:
        parse_state(text[:offset] + char + text[offset:])
    assert info.value.position == offset + 1
    assert f"unexpected character {char!r}" in str(info.value)
