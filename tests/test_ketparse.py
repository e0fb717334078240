import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ketparse_reference
from schmidt import ketparse
from schmidt.catalog import BELL_AMPLITUDES, EXPRESSIONS, bell_state
from schmidt.errors import ParseError, ValidationError
from schmidt.ketparse import KetExpression, KetTerm, format_state, parse_expression, parse_state
from schmidt.modes import BipartitePureState
from states import labelled_state


def raw(state):
    return np.asarray(state.amplitudes) * state.norm


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
        np.testing.assert_allclose(raw(state), np.eye(2), rtol=0, atol=1e-15)

    def test_whitespace_insensitivity(self):
        dense = parse_state("(2|a>+|b>)(x)|alpha>+(|a>+2|b>)(x)|beta>")
        spaced = parse_state(" ( 2 |a> + |b> ) ( x ) |alpha> + ( |a> + 2 |b> ) ( x ) |beta> ")
        np.testing.assert_allclose(dense.amplitudes, spaced.amplitudes, rtol=0, atol=1e-15)
        assert dense.latin_labels == spaced.latin_labels

    def test_minus_binds_like_arithmetic(self):
        state = parse_state("(|a> - |b>)(x)|alpha>")
        np.testing.assert_allclose(raw(state), [[1.0], [-1.0]], rtol=0, atol=1e-15)

    def test_leading_minus_on_state_and_combination(self):
        state = parse_state("-|a>(x)|alpha> + (-|a> + 2|b>)(x)|beta>")
        np.testing.assert_allclose(raw(state), [[-1.0, -1.0], [0.0, 2.0]], rtol=0, atol=1e-15)

    def test_term_level_scalar_scales_whole_product(self):
        state = parse_state("2(|a> + |b>)(x)(|alpha> + |beta>) + |a>(x)|gamma>")
        np.testing.assert_allclose(
            raw(state), [[2.0, 2.0, 1.0], [2.0, 2.0, 0.0]], rtol=0, atol=1e-15
        )

    def test_basis_order_is_first_appearance(self):
        state = parse_state("|b>(x)|beta> + |a>(x)|alpha>")
        assert state.latin_labels == ("b", "a")
        assert state.greek_labels == ("beta", "alpha")


class TestLabelOnBothSides:
    def test_shared_labels_build_the_state_their_kets_describe(self):
        state = parse_state("|a>(x)|a> + |b>(x)|b>")
        assert (state.latin_labels, state.greek_labels) == (("a", "b"), ("a", "b"))
        np.testing.assert_allclose(state.amplitudes, np.eye(2) / np.sqrt(2.0), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", sorted(BELL_AMPLITUDES))
    def test_bell_states_parse_back(self, kind):
        state = bell_state(kind)
        again = parse_state(format_state(state))
        assert (again.latin_labels, again.greek_labels) == (("H", "V"), ("H", "V"))
        assert np.max(np.abs(again.amplitudes - state.amplitudes)) <= 1e-12


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
            ("sqrt(2|a>(x)|b>", "expected ')' closing sqrt, found the ket '|a>'", 7),
            ("|a>(x)|1b>", "expected a ket label, found '1'", 8),
            ("|a(x)|b>", "expected '>' closing the ket, found the tensor '(x)'", 3),
            ("(|a> + |b>(x)|c>", "expected ')' closing the combination, found the tensor '(x)'", 11),
            ("|a> |b>", "expected a tensor operator '(x)', found the ket '|b>'", 5),
            ("1/sqrt(0)|a>(x)|b>", "division by zero in a scalar", 3),
            ("|a>(x)|b>)", "unexpected trailing input ')'", 10),
            ("|a>(x)|b> + (1+2i|c>(x)|d>", "expected '|' opening a ket, found '+'", 15),
            ("sq@rt(2)|a>(x)|b>", "unexpected character '@'", 3),
            # float() reads '٣' and '３' as 3, but ket-v1 digits are ASCII.
            ("٣|a>(x)|b>", "unexpected character '٣'", 1),
            ("３|a>(x)|b>", "unexpected character '３'", 1),
            ("(1+٣i)|a>(x)|b>", "unexpected character '٣'", 4),
            ("1e٣|a>(x)|b>", "unexpected character '٣'", 3),
            ("1e999|a>(x)|b>", "scalar '1e999' overflows the float range", 1),
            ("1/1e999|a>(x)|b>", "scalar '1e999' overflows the float range", 3),
            ("|a>(x)|b> + 1/1e-320|c>(x)|d>", "scalar '1/1e-320' overflows the float range", 13),
            ("2/sqrt(1e400)|a>(x)|b>", "scalar '1e400' overflows the float range", 8),
            ("|a>(x)(|b> - (2-1e999i)|c>)", "scalar '(2-1e999i)' overflows the float range", 14),
            # A ket, a bracketed scalar or '(x)' where the grammar cannot read
            # it is named whole, by its kind, at its first character.
            ("(x)|a>(x)|b>", "expected a ket or '(', found the tensor '(x)'", 1),
            ("sqrt(1+2i)|a>(x)|b>", "expected '(' after sqrt, found the scalar '(1+2i)'", 5),
            ("1/(1+2i)|a>(x)|b>", "expected a number or sqrt(...) after '/'", 3),
            ("|a>(x)|b> |c>", "unexpected trailing ket '|c>'", 11),
            ("(1e999+2i)|a>(x)|b>", "scalar '(1e999+2i)' overflows the float range", 1),
            ("|a>(x)(1+2i)", "expected a ket or '(', found the scalar '(1+2i)'", 7),
            ("|a>(1+2i)|b>", "expected a tensor operator '(x)', found the scalar '(1+2i)'", 4),
            ("|a>(x)(x)|b>", "expected a ket or '(', found the tensor '(x)'", 7),
            ("(1+2i)(x)|b>", "expected a ket or '(', found the tensor '(x)'", 7),
            ("2(1+2i)|a>(x)|b>", "expected a ket or '(', found the scalar '(1+2i)'", 2),
            ("sqrt(x)|a>(x)|b>", "expected '(' after sqrt, found the tensor '(x)'", 5),
            ("sqrt( a )|a>(x)|b>", "expected a number, found 'a'", 7),
            ("| a >( x )", "expected a ket or '(', found end of input", 11),
            ("|a>(x)|b>(x)|c>", "unexpected trailing tensor '(x)'", 10),
            ("|a>(x)(|b> + ( x )|c>)", "expected '|' opening a ket, found the tensor '(x)'", 14),
            ("( 1 + 2i )|a>(x)( 1e999 - i )|b>", "expected a ket or '(', found the scalar '(1e999-i)'", 17),
            ("|a>(x)|a> +", "expected a ket or '(', found end of input", 12),
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
        np.testing.assert_allclose(again.amplitudes, state.amplitudes, rtol=0, atol=1e-12)
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
        np.testing.assert_allclose(again.amplitudes, state.amplitudes, rtol=0, atol=1e-12)

    def test_zero_entry_in_first_group_preserves_latin_order(self):
        state = BipartitePureState.from_amplitudes(
            ("b", "a"), ("alpha", "beta"), [[0.0, 1.0], [1.0, 1.0]]
        )
        again = parse_state(format_state(state))
        assert again.latin_labels == ("b", "a")
        np.testing.assert_allclose(again.amplitudes, state.amplitudes, rtol=0, atol=1e-12)

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
        np.testing.assert_allclose(parse_state(text).amplitudes, state.amplitudes, rtol=0,
                                   atol=1e-15)

    # Every case in one 3 x 8 block: +-0.0 parts, +-1, +-i, (x+-i), three-digit
    # exponents, groups that start negative, a later all-zero column (t), and
    # lone terms in later groups, one negative (d) and one complex (v).
    MIXED = np.array([
        [1, -1, 1j, 1 - 1j, 0, 0, complex(-0.0, 1), 0],
        [complex(-0.0, 0.0), 1 + 1j, -1 + 1j, -1 - 1j, complex(-0.0, 0.0), -0.0,
         -(3e5 + 2e5j), 0.5 - 1j],
        [-1j, complex(2, -0.0), 1e-300, complex(-0.0, -2.5e-300), -3j, complex(-0.0, -0.0),
         1234.56789, 0],
    ])

    def test_block_mixing_every_case(self):
        state = BipartitePureState(("a", "b", "c"), ("p", "q", "r", "s", "d", "t", "u", "v"),
                                   self.MIXED)
        text = format_state(state)
        assert text == (
            "(|a> + 0|b> - i|c>)(x)|p> + (-|a> + (1+i)|b> + 2|c>)(x)|q>"
            " + (i|a> - (1-i)|b> + 1e-300|c>)(x)|r> + ((1-i)|a> - (1+i)|b> - 2.5e-300i|c>)(x)|s>"
            " - 3i|c>(x)|d> + 0|a>(x)|t> + (i|a> - (300000+200000i)|b> + 1234.56789|c>)(x)|u>"
            " + (0.5-i)|b>(x)|v>"
        )
        np.testing.assert_allclose(raw(parse_state(text)), self.MIXED, rtol=1e-14, atol=0)

    def test_labels_outside_the_label_rule_are_rejected(self):
        # Text holding such a label would not parse back, so no state holds one.
        rule = re.escape("is not a ket-v1 label (a letter, then letters, digits or '_'): ")
        for label in ("1 a", "", "x>", "50%", "%(k)s", "_a", "a-b", "é", "a\n", 1, None, b"a"):
            tail = f" {rule}{re.escape(repr(label))}$"
            with pytest.raises(ValidationError, match="^Latin label 0" + tail):
                BipartitePureState((label, "b"), ("x", "y"), np.eye(2))
            with pytest.raises(ValidationError, match="^Greek label 1" + tail):
                BipartitePureState(("a", "b"), ("x", label), np.eye(2))
            expression = KetExpression((KetTerm(1, ((1, "a"),), ((1, "x"),)),
                                        KetTerm(1, ((1, label),), ((1, "y"),))))
            with pytest.raises(ValidationError, match="^Latin label 1" + tail):
                expression.to_state()

    MAX = sys.float_info.max
    HALF = "8.9884656743115785e+307"

    @pytest.mark.parametrize("value,count,text", [
        (MAX, 1, "1.7976931348623157e+308|a>(x)|b> + |a>(x)|c>"),
        (-MAX, 1, "-1.7976931348623157e+308|a>(x)|b> + |a>(x)|c>"),
        (1j * MAX, 1, "1.7976931348623157e+308i|a>(x)|b> + |a>(x)|c>"),
        (np.nextafter(1.79769313486231e308, math.inf), 1,
         "1.7976931348623101e+308|a>(x)|b> + |a>(x)|c>"),
        # Norm MAX: each rounded to 15 digits would be 2**1023, and four of
        # those put the norm past the float range.
        (MAX / 2, 4, f"{HALF}|a>(x)|b> + {HALF}|a>(x)|c> + {HALF}|a>(x)|d>"
                     f" + {HALF}|a>(x)|e> + |a>(x)|f>"),
    ])
    def test_coefficients_near_the_float_maximum_parse_back(self, value, count, text):
        # A norm within 1e-12 of the float maximum prints with 17 digits,
        # which parse back bit for bit.
        state = BipartitePureState(("a",), tuple("bcdef"[:count + 1]), [[value] * count + [1]])
        assert format_state(state) == text
        again = parse_state(text)
        assert again.coefficients.tobytes() == state.coefficients.tobytes()
        assert again.norm == state.norm

    @pytest.mark.parametrize("value", [5e-324, 1e-320, 2.5e-310, 1.23456789e-315])
    def test_subnormal_coefficients_parse_back(self, value):
        # A subnormal carries fewer than 15 significant digits, so its 15-digit
        # text need not be the one typed, but it names the same float.
        state = BipartitePureState(("a",), ("b", "c"), [[value, 1]])
        again = parse_state(format_state(state))
        assert again.coefficients.tobytes() == state.coefficients.tobytes()
        assert again.norm == state.norm

    @pytest.mark.parametrize("typed,printed", [("1e-2", "0.01"), ("1.50", "1.5"), ("2e1", "20")])
    def test_coefficients_print_as_the_same_float_not_as_typed(self, typed, printed):
        # 15 significant digits in %.15g form: the value is kept, the spelling is not.
        assert format_state(parse_state(f"{typed}|a>(x)|b>")) == f"{printed}|a>(x)|b>"

    def test_unit_coefficients_are_written_as_given(self):
        # Rescaled to unit norm and back, the |b> and -i|c> coefficients come
        # out 1 ulp away from 1; the state keeps the ones it was given.
        state = parse_state("3|a>(x)|x> + 2|b>(x)|y> + (|b> - i|c>)(x)|z>")
        assert format_state(state) == "(3|a> + 0|b> + 0|c>)(x)|x> + 2|b>(x)|y> + (|b> - i|c>)(x)|z>"

    def test_zero_entry_in_later_group_is_skipped(self):
        state = BipartitePureState(("a", "c"), ("b", "d"), np.array([[1, 0], [2, -3j]]))
        assert format_state(state) == "(|a> + 2|c>)(x)|b> - 3i|c>(x)|d>"

    @pytest.mark.parametrize("rows,cols", [(2, 2048), (4, 256), (24, 25), (300, 2)])
    def test_wide_states_round_trip_with_random_whitespace(self, rows, cols):
        rng = np.random.default_rng(rows * cols)
        amps = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        state = labelled_state(amps)
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

    def test_records_equal_only_records_of_their_class(self):
        term = KetTerm(2 + 0j, ((1 + 0j, "a"),), ((1 + 0j, "b"),))
        expr, same = KetExpression((term,)), KetExpression((KetTerm(2 + 0j, ((1 + 0j, "a"),),
                                                                    ((1 + 0j, "b"),)),))
        assert expr == same and not expr != same and hash(expr) == hash(same)
        # A record is not equal to a plain tuple of its fields.
        for record, fields in ((term, (term.coefficient, term.latin, term.greek)),
                               (expr, (expr.terms,))):
            assert record != fields and not record == fields and not fields == record
        assert repr(expr) == ("KetExpression(terms=(KetTerm(coefficient=(2+0j), "
                              "latin=(((1+0j), 'a'),), greek=(((1+0j), 'b'),)),))")

    def test_hand_built_label_on_both_sides_builds_its_state(self):
        expr = KetExpression((KetTerm(2 + 0j, ((1 + 0j, "a"),), ((1 + 0j, "a"),)),))
        state = expr.to_state()
        assert (state.latin_labels, state.greek_labels) == (("a",), ("a",))
        assert state.amplitudes.tolist() == [[1 + 0j]]
        assert state.norm == 2.0

    def test_parse_expression_does_not_check_sides(self):
        expr = parse_expression("|a>(x)|a> + 2|b>(x)|a>")
        assert expr == KetExpression((KetTerm(1 + 0j, ((1 + 0j, "a"),), ((1 + 0j, "a"),)),
                                      KetTerm(2 + 0j, ((1 + 0j, "b"),), ((1 + 0j, "a"),))))
        state = expr.to_state()
        assert (state.latin_labels, state.greek_labels) == (("a", "b"), ("a",))
        np.testing.assert_allclose(state.amplitudes, np.array([[1], [2]]) / np.sqrt(5.0), rtol=0,
                                   atol=1e-15)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_fuzzed_text_never_crashes(text):
    try:
        parse_state(text)
    except (ParseError, ValidationError):
        pass


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.+-*/()|><xi sqrtabe_⊗@#", max_size=40))
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
    np.testing.assert_allclose(raw(state), [[2, 1], [1, -2]], rtol=0, atol=1e-12)


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
    text = format_state(labelled_state(amps))
    offset = round(where * len(text))
    before = text[offset - 1] if offset else " "
    # '.' continues a number and '_' a name; anywhere else they are stray.
    assume(not (char == "." and before.isdigit()))
    assume(not (char == "_" and (before.isalnum() or before == "_")))
    with pytest.raises(ParseError) as info:
        parse_state(text[:offset] + char + text[offset:])
    assert info.value.position == offset + 1
    assert f"unexpected character {char!r}" in str(info.value)


# --- generated text -----------------------------------------------------------
# parse_expression reads a ket, a '(re±im i)' scalar and '(x)' as one token
# each, whitespace inside included.

_GAPS = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", "\u00a0"])
_NUMBERS = st.sampled_from(
    ["0", "1", "2", "2.5", "10.", "0.125", "1.5e-3", "3E+2", "1e999", "1e-320", "٣"]
)
# One pool per side; "a" is in both, as a label may stand on both sides.
_LATIN = st.sampled_from(["a", "b", "x", "sqrt"])
_GREEK = st.sampled_from(["alpha", "b_1", "i", "a"])


@st.composite
def _scalar(draw):
    num, sign = draw(_NUMBERS), draw(st.sampled_from(["+", "-"]))
    forms = [
        [], [num], [num, "i"], ["i"], [num, "/", draw(_NUMBERS)],
        [num, "/", "sqrt", "(", draw(_NUMBERS), ")"], ["sqrt", "(", num, ")"],
        ["(", num, sign, draw(_NUMBERS), "i", ")"], ["(", num, sign, "i", ")"],
    ]
    form = draw(st.sampled_from(forms))
    return form + ["*"] if form and draw(st.booleans()) else form


@st.composite
def _factor(draw, labels):
    if draw(st.booleans()):
        return ["|", draw(labels), ">"]
    tokens = ["("] + (["-"] if draw(st.booleans()) else [])
    for index in range(draw(st.integers(1, 3))):
        if index:
            tokens.append(draw(st.sampled_from(["+", "-"])))
        tokens += draw(_scalar()) + ["|", draw(labels), ">"]
    return tokens + [")"]


_TENSORS = st.sampled_from([["(", "x", ")"], ["x"], ["⊗"]])
_COMPOUNDS = st.sampled_from([["|", "a", ">"], ["(", "1", "+", "2", "i", ")"], ["(", "x", ")"]])


@st.composite
def _written(draw, misplace=False):
    """Hand-written ket-v1 with every scalar form: its plain tokens, and the
    text with whitespace anywhere between them, so inside kets, scalars and
    '( x )' too. With ``misplace`` one of its pieces is replaced, so that a
    ket, a scalar or '(x)' may stand where the grammar does not read it whole."""
    pieces = [["-"]] if draw(st.booleans()) else []
    for index in range(draw(st.integers(1, 3))):
        if index:
            pieces.append([draw(st.sampled_from(["+", "-"]))])
        pieces += [draw(_scalar()), draw(_factor(_LATIN)), draw(_TENSORS),
                   draw(_factor(_GREEK))]
    if misplace:
        pieces[draw(st.sampled_from(range(len(pieces))))] = draw(_COMPOUNDS)
    tokens = [token for piece in pieces for token in piece]
    return tokens, "".join(token + draw(_GAPS) for token in tokens)


def _written_text(misplace=False):
    return _written(misplace).map(lambda written: written[1])


@st.composite
def _canonical_text(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 1e-7, 3e20]),
                      st.floats(-1e3, 1e3, allow_nan=False))
    amps = np.array(draw(st.lists(st.builds(complex, parts, parts),
                                  min_size=rows * cols, max_size=rows * cols)))
    assume(np.any(amps != 0))
    return format_state(labelled_state(amps.reshape(rows, cols)))


@st.composite
def _mutated(draw, texts):
    text = draw(texts)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "repeat"]))
        if kind == "insert":
            text = text[:at] + draw(st.sampled_from("0123456789.+-*/()|><xie_ ⊗@")) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        else:
            end = draw(st.integers(at, min(at + 8, len(text))))
            text = text[:end] + text[at:end] + text[end:]
    return text


def _outcome(text):
    # repr tells -0.0 from 0.0, so equal outcomes mean bit-equal coefficients
    try:
        return repr(parse_expression(text))
    except ParseError as exc:
        return str(exc).rpartition(" (position ")[0]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_written(), _written(misplace=True)))
def test_whitespace_between_tokens_never_matters(written):
    tokens, spaced = written
    assert _outcome(spaced) == _outcome("".join(tokens))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_written_text(), _written_text(misplace=True), _canonical_text(),
                 _mutated(st.one_of(_written_text(), _canonical_text()))))
def test_every_error_points_at_a_token(text):
    assume(text.strip())
    try:
        parse_expression(text)
    except ParseError as exc:
        starts = [match.start() + 1 for match in re.finditer(ketparse._COMPOUND_TOKEN, text)]
        assert exc.position in starts + [len(text) + 1]


def _outcome_at(parse, text):
    """The repr of the tree, or the ParseError's message with its position."""
    try:
        return repr(parse(text))
    except ParseError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_written_text(), _written_text(misplace=True), _canonical_text(),
                 _mutated(st.one_of(_written_text(), _canonical_text())),
                 st.text(alphabet="0123456789.+-*/()|><xi sqrtabe_⊗", max_size=40)))
@example("٣|a>(x)|b>")  # another script's digit is a character outside the grammar
@example("３|a>(x)|b>")
@example("(1+٣i)|a>(x)|b>")
@example("1e٣|a>(x)|b>")
@example("( 1 + 2i )|a>(x)(( 1 - i )|b> + |c>)")  # whitespace inside scalars
@example("(|a> + (1e999+2i)|b> |c>)(x)|d>")  # the overflow comes first
@example("(|a> - 1e999i|b>)(x)|d> +")
@example("-(-|a> + 2*|b> - (1+i)*|c>)⊗(i|x> + sqrt(2)|y>) - 3/sqrt(4)*|a> x |b>")
@example("|a>(x)(| b> + 2 |")
@example("")
def test_parser_matches_the_reference_recursive_descent(text):
    # The reference is the recursive-descent parser the one-loop parser
    # replaced: the same tree, or the same error at the same position.
    assert _outcome_at(parse_expression, text) == _outcome_at(
        ketparse_reference.parse_expression, text)


def _reference_term(z: complex, digits: int, ket_v1: bool) -> tuple[bool, str]:
    """One term of a signed sum, written one coefficient at a time as before
    the one-template rendering: (negative?, number text)."""
    negative = z.real < 0.0 or (z.real == 0.0 and z.imag < 0.0)
    if negative:
        z = -z
    re_part, im_part = z.real, z.imag
    if im_part == 0.0:
        return negative, "" if ket_v1 and re_part == 1.0 else f"{re_part + 0.0:.{digits}g}"
    if re_part == 0.0:
        return negative, "i" if ket_v1 and im_part == 1.0 else f"{im_part:.{digits}g}i"
    if ket_v1 and abs(im_part) == 1.0:
        return negative, f"({re_part:.{digits}g}{'+' if im_part > 0.0 else '-'}i)"
    return negative, f"({re_part:.{digits}g}{im_part:+.{digits}g}i)"


_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -1e300, 5e-324, 123456789.123456789]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(complex, _PARTS, _PARTS), min_size=1, max_size=8), st.booleans())
def test_signed_sum_matches_the_coefficient_loop(values, ket_v1):
    # The ket-v1 numbers (15 digits, a factor of 1 elided) and the table's
    # (6 digits), each against the per-coefficient loop they replaced.
    digits = 15 if ket_v1 else 6
    kets = [f"|k{index}>" for index in range(len(values))]
    expected = ""
    for index, z in enumerate(values):
        negative, text = _reference_term(z, digits, ket_v1)
        sign = ("-" if negative else "") if index == 0 else (" - " if negative else " + ")
        expected += sign + text + kets[index]
    starts = np.arange(len(values)) == 0
    assert ketparse._signed_sum(np.array(values, dtype=complex), starts, False, digits, ket_v1,
                                kets, [""] * len(values)) == expected
