"""Parser and formatter for the plain-text ket expression language (ket-v1).

Grammar:

    state   := ['-'] term (('+' | '-') term)*
    term    := [scalar ['*']] factor TENSOR factor
    factor  := ket | '(' linear ')'
    linear  := ['-'] sterm (('+' | '-') sterm)*
    sterm   := [scalar ['*']] ket
    ket     := '|' LABEL '>'            LABEL = letter (letter | digit | '_')*
    scalar  := real | real? 'i' | real '/' real | real '/sqrt(' real ')'
             | 'sqrt(' real ')' | '(' real ('+' | '-') real? 'i' ')'
    TENSOR  := '(x)' | 'x' | '⊗'

Kets left of the tensor operator belong to subsystem A (the Latin side), kets
to the right to subsystem B (the Greek side). The side of a ket is where it
stands, so one label may name a ket on each side: ``|H>(x)|H>``. Basis order
is first appearance in the text, per side. Whitespace between tokens never
matters. Reals may carry an exponent (``1.5e-3``), and a leading '-' on a
state or parenthesized combination works as in ordinary arithmetic.

``parse_state`` reports the first error in this order: a character outside
the grammar, wherever it stands; a syntax error or a scalar that overflows the
float range; a coefficient product or sum that overflows. ``parse_expression``
checks the first two, ``KetExpression.to_state`` the last.

``format_state`` emits canonical text in this grammar: one parenthesized
Latin combination per Greek basis ket, Greek kets in basis order, integer
coefficients printed as integers and all others with 15 significant digits.
Labels match LABEL, as ``BipartitePureState`` checks, so the text parses back.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .modes import LABEL, BipartitePureState

FORMAT_VERSION = "ket-v1"

# The patterns below stay strings: re compiles and caches each on first use,
# so importing the package compiles none of them, and a process that parses
# only valid text compiles only _COMPOUND_TOKEN.
#
# One alternative per token kind, tried in this order; whitespace matches none
# and is skipped. The last alternative catches any other character so that a
# lexical error keeps its place in the token list.
_SYMBOLS = r"|><()+\-*/⊗"
_NUMBER = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"
_TOKEN = rf"[{_SYMBOLS}]|{_NUMBER}|{LABEL}|\S"
# The same alternatives after three compound ones, each standing for the run of
# tokens above that the parser reads in one place only: a whole ket, a
# bracketed complex scalar '(re±im i)' and the tensor '(x)', whitespace inside
# included. Canonical text has about a third as many of these tokens.
_COMPOUND_TOKEN = (
    rf"\|\s*{LABEL}\s*>"
    rf"|\(\s*{_NUMBER}\s*[+-]\s*(?:{_NUMBER}\s*)?i\s*\)"
    r"|\(\s*x\s*\)|" + _TOKEN
)
# Characters that start a token; a token starting with anything else is a
# lexical error.
_TOKEN_START = rf"[{_SYMBOLS}\dA-Za-z]"
_END = ""  # sentinel after the last token; never equal to a real token


def _tokenize(text: str) -> list[str]:
    """Compound token strings in text order, followed by the end sentinel.

    A decimal digit starts a number, an ASCII letter a name, and a symbol
    stands for itself; a token that starts with '|' or '(' and has more than
    one character is a compound: a ket, or a bracketed scalar unless it holds
    an 'x', the tensor.
    """
    tokens = re.findall(_COMPOUND_TOKEN, text)
    tokens.append(_END)
    return tokens


class _SyntaxError(Exception):
    """A rejected token, by index; parse_expression turns it into a ParseError."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


@dataclass(frozen=True)
class KetTerm:
    """One term, coefficient * (Latin combo) (x) (Greek combo), each combo a
    tuple of (coefficient, label) pairs."""

    coefficient: complex
    latin: tuple[tuple[complex, str], ...]
    greek: tuple[tuple[complex, str], ...]


@dataclass(frozen=True)
class KetExpression:
    """Parsed ket expression: a sum of tensor-product terms."""

    terms: tuple[KetTerm, ...]

    def to_state(self) -> BipartitePureState:
        """Distribute the tensor products into an amplitude matrix."""
        latin: dict[str, int] = {}
        greek: dict[str, int] = {}
        for term in self.terms:
            for _, label in term.latin:
                latin.setdefault(label, len(latin))
            for _, label in term.greek:
                greek.setdefault(label, len(greek))
        cols = len(greek)
        # Summed as Python complex numbers in a row-major list: indexing a
        # numpy matrix once per product would cost more than the product.
        flat = [0j] * (len(latin) * cols)
        for term in self.terms:
            for lcoef, llabel in term.latin:
                scaled = term.coefficient * lcoef
                row = latin[llabel] * cols
                for gcoef, glabel in term.greek:
                    flat[row + greek[glabel]] += scaled * gcoef
        amps = np.array(flat, dtype=complex).reshape(len(latin), cols)
        if not np.isfinite(amps).all():
            self._check_products(amps, tuple(latin), tuple(greek))
        return BipartitePureState.from_amplitudes(tuple(latin), tuple(greek), amps)

    def _check_products(self, amps: np.ndarray, latin: tuple[str, ...],
                        greek: tuple[str, ...]) -> None:
        """Raise for the first term whose product of finite scalars overflows,
        or else for the first entry of ``amps`` whose finite products sum
        beyond the float range.

        The amplitude alone would show inf+nanj or inf, values the text never
        held.
        """
        for number, term in enumerate(self.terms, start=1):
            for lcoef, llabel in term.latin:
                for gcoef, glabel in term.greek:
                    if not cmath.isfinite(term.coefficient * lcoef * gcoef):
                        raise ValidationError(
                            f"the coefficient product of term {number} at "
                            f"|{llabel}>(x)|{glabel}> overflows the float range"
                        )
        row, col = np.argwhere(~np.isfinite(amps))[0]
        raise ValidationError(
            f"the coefficients of |{latin[row]}>(x)|{greek[col]}> sum beyond the float range"
        )


def _found(token: str) -> str:
    return repr(token) if token else "end of input"


def _overflow(text: str, index: int) -> _SyntaxError:
    return _SyntaxError(f"scalar {text!r} overflows the float range", index)


class _Parser:
    """Recursive descent over the token list.

    Each method takes the index of its first token and returns its result
    with the index just past what it consumed.
    """

    def __init__(self, tokens: list[str]):
        self.tokens = tokens

    def expect(self, i: int, token: str, what: str) -> int:
        if self.tokens[i] != token:
            raise _SyntaxError(f"expected {what}, found {_found(self.tokens[i])}", i)
        return i + 1

    def number(self, i: int) -> float:
        token = self.tokens[i]
        if not token[:1].isdecimal():
            raise _SyntaxError(f"expected a number, found {_found(token)}", i)
        value = float(token)
        if value == math.inf:  # number tokens are unsigned
            raise _overflow(token, i)
        return value

    # --- scalars ---------------------------------------------------------

    def sqrt_call(self, i: int) -> tuple[float, int]:
        # i is just past 'sqrt'
        i = self.expect(i, "(", "'(' after sqrt")
        value = self.number(i)
        i = self.expect(i + 1, ")", "')' closing sqrt")
        return math.sqrt(value), i

    def coefficient(self, i: int) -> tuple[complex, int]:
        """An optional scalar and the '*' after it; 1 when there is none."""
        tokens = self.tokens
        token = tokens[i]
        real = None
        if token[:1].isdecimal():
            real = self.number(i)
            start, i = i, i + 1
            if tokens[i] == "/":
                i += 1
                divisor_at = i
                if tokens[i][:1].isdecimal():
                    divisor = self.number(i)
                    i += 1
                elif tokens[i] == "sqrt":
                    divisor, i = self.sqrt_call(i + 1)
                else:
                    raise _SyntaxError("expected a number or sqrt(...) after '/'", i)
                if divisor == 0.0:
                    raise _SyntaxError("division by zero in a scalar", divisor_at)
                real /= divisor
                if real == math.inf:
                    raise _overflow("".join(tokens[start:i]), start)
        elif token == "sqrt":
            real, i = self.sqrt_call(i + 1)
        if real is not None:
            if tokens[i] == "i":
                value, i = real * 1j, i + 1
            else:
                value = complex(real)
        elif token == "i":
            value, i = 1j, i + 1
        elif token == "(":
            value, i = self.maybe_paren_complex(i)
        elif token[:1] == "(" and "x" not in token:  # a compound '(re±im i)'
            value, i = self.compound_complex(i), i + 1
        else:
            value = None
        if value is None:
            return 1 + 0j, i
        if tokens[i] == "*":
            i += 1
        return value, i

    def maybe_paren_complex(self, i: int) -> tuple[complex | None, int]:
        # '(' real ('+'|'-') real? 'i' ')'  -- (None, i) if it is not one.
        tokens = self.tokens
        j = i + 1
        if not tokens[j][:1].isdecimal():
            return None, i
        real_part = float(tokens[j])
        sign = tokens[j + 1]
        if sign != "+" and sign != "-":
            return None, i
        j += 2
        imag_part = 1.0
        if tokens[j][:1].isdecimal():
            imag_part = float(tokens[j])
            j += 1
        if tokens[j] != "i" or tokens[j + 1] != ")":
            return None, i
        if math.inf in (real_part, imag_part):
            raise _overflow("".join(tokens[i:j + 2]), i)
        return complex(real_part, imag_part if sign == "+" else -imag_part), j + 2

    def compound_complex(self, i: int) -> complex:
        # A '(re±im i)' token; complex() reads each part as float() does.
        token = self.tokens[i]
        text = token.replace("i", "j")
        try:
            value = complex(text)
        except ValueError:  # complex() allows no whitespace around the sign
            value = complex("".join(text.split()))
        if not cmath.isfinite(value):
            raise _overflow(token, i)
        return value

    # --- kets and factors ------------------------------------------------

    def ket(self, i: int) -> tuple[str, int]:
        tokens = self.tokens
        token = tokens[i]
        if token[:1] == "|" and len(token) > 1:  # a compound ket
            return token[1:-1].strip(), i + 1
        if token != "|":
            raise _SyntaxError(f"expected '|' opening a ket, found {_found(tokens[i])}", i)
        label = tokens[i + 1]
        if not (label[:1].isascii() and label[:1].isalpha()):  # the end sentinel too
            raise _SyntaxError(f"expected a ket label, found {_found(label)}", i + 1)
        if tokens[i + 2] != ">":
            raise _SyntaxError(
                f"expected '>' closing the ket, found {_found(tokens[i + 2])}", i + 2
            )
        return label, i + 3

    def factor(self, i: int) -> tuple[list[tuple[complex, str]], int]:
        """Items (coefficient, label) of a ket or a parenthesized combination,
        and the index after the factor."""
        tokens = self.tokens
        if tokens[i][:1] == "|":
            label, end = self.ket(i)
            return [(1 + 0j, label)], end
        if tokens[i] != "(":
            raise _SyntaxError(f"expected a ket or '(', found {_found(tokens[i])}", i)
        negate = tokens[i + 1] == "-"
        i += 2 if negate else 1
        items = []
        while True:
            coef, i = self.coefficient(i)
            label, i = self.ket(i)
            items.append((-coef if negate else coef, label))
            sign = tokens[i]
            if sign != "+" and sign != "-":
                break
            negate = sign == "-"
            i += 1
        return items, self.expect(i, ")", "')' closing the combination")

    # --- the whole state ----------------------------------------------------

    def state(self) -> KetExpression:
        """The sum of terms, each a coefficient, a factor, a tensor operator
        and a factor."""
        tokens = self.tokens
        negate = tokens[0] == "-"
        i = 1 if negate else 0
        terms = []
        while True:
            coef, i = self.coefficient(i)
            latin, i = self.factor(i)
            token = tokens[i]
            if token == "⊗" or token == "x" or (token[:1] == "(" and "x" in token):
                i += 1  # '⊗', 'x' or a compound '(x)' token
            elif token == "(" and tokens[i + 1] == "x" and tokens[i + 2] == ")":
                i += 3
            else:
                raise _SyntaxError(f"expected a tensor operator '(x)', found {_found(token)}", i)
            greek, i = self.factor(i)
            terms.append(KetTerm(-coef if negate else coef, tuple(latin), tuple(greek)))
            sign = tokens[i]
            if sign != "+" and sign != "-":
                break
            negate = sign == "-"
            i += 1
        if tokens[i] != _END:
            raise _SyntaxError(f"unexpected trailing input {tokens[i]!r}", i)
        return KetExpression(tuple(terms))


def parse_expression(text: str) -> KetExpression:
    """Parse ket-v1 text into its syntax tree without building the state.

    Cost is linear in the length of the text. A character outside the
    grammar is reported ahead of any syntax error, wherever it appears. A
    label may stand on both sides of the tensor product.
    """
    if not text.strip():
        raise ParseError("empty expression", 1)
    try:
        return _Parser(_tokenize(text)).state()
    except _SyntaxError:
        return _parse_plain(text)


def _parse_plain(text: str) -> KetExpression:
    """parse_expression from the plain tokens alone, the pass that words and
    places every ParseError.

    Text parses from the compound tokens exactly when it parses from these,
    to the same expression, so valid text is tokenized and parsed once.
    """
    matches = list(re.finditer(_TOKEN, text))
    tokens = [match.group() for match in matches] + [_END]
    try:
        return _Parser(tokens).state()
    except _SyntaxError as exc:
        # A stray character can never be consumed, so any lexical error
        # surfaces here as some syntax error; report the first one instead.
        message, failed_at = exc.message, exc.index
        token_start = re.compile(_TOKEN_START)
        for index, token in enumerate(tokens[:-1]):
            if not token_start.match(token):
                message, failed_at = f"unexpected character {token!r}", index
                break
        # 1-based character offset of each token; the end sentinel's is len + 1
        starts = [match.start() + 1 for match in matches] + [len(text) + 1]
        raise ParseError(message, starts[failed_at]) from None


def parse_state(text: str) -> BipartitePureState:
    """Parse ket-v1 text into a BipartitePureState.

    The amplitude matrix is assembled by distributing every tensor product;
    bases are ordered by first appearance. The overall scale of the
    expression is recorded as the state's ``norm``, not discarded.
    """
    return parse_expression(text).to_state()


# --- formatting -----------------------------------------------------------

# A term of a signed sum is a separator, a number and a ket. Separators by
# code: first in its sum or later, each positive, then negative; then the same
# four behind the '(' that opens a ket-v1 combination.
_SEPARATORS = ("", "-", " + ", " - ", "(", "(-", " + (", " + (-")
# Numbers by case: real, imaginary, complex; then ket-v1's elided forms of a
# real 1, an imaginary 1 and a complex number with imaginary part +1 or -1.
_CASES = ("%g", "%gi", "(%g%+gi)", "", "i", "(%g+i)", "(%g-i)")
_TOP_15 = 1.79769313486231e308  # the largest 15-digit decimal below the float maximum


def _signed_sum(values: np.ndarray, starts: np.ndarray, opens: np.ndarray | bool, digits: int,
                elide_ones: bool, kets, ends) -> str:
    """Render a signed sum of complex ``values``, one ``%`` for all numbers.

    ``starts`` marks each term that starts a sum, and ``opens`` each that
    opens a ket-v1 combination with '('. A term is negative when its first
    nonzero part is, and is then written negated behind a '-'. A part that
    is zero, of either sign, is left out, numbers get ``digits`` significant
    digits, and with ``elide_ones`` a factor of 1 is left out: 1 -> "",
    -1j -> "-i", 2-1j -> "(2-i)". ``kets`` and ``ends`` hold a text per term,
    written after the number, with no '%': its ket, and whatever closes the term.
    """
    re_part, im_part = values.real, values.imag
    negative = (re_part < 0.0) | ((re_part == 0.0) & (im_part < 0.0))
    kind = np.where(im_part == 0.0, 0, np.where(re_part == 0.0, 1, 2))  # real, imaginary, complex
    first = np.where(kind == 1, np.abs(im_part), np.abs(re_part))
    second = np.where(negative, -im_part, im_part)
    one = (np.where(kind == 2, np.abs(second), first) == 1.0) & elide_ones
    separators = 4 * opens + 2 * ~starts + negative
    codes = separators * len(_CASES) + kind + 3 * one + (one & (second == -1.0))
    taken = np.stack((~one | (kind == 2), ~one & (kind == 2)), axis=-1)
    numbers = tuple(np.stack((first, second), axis=-1)[taken].tolist())
    pieces = [sep + case.replace("g", f".{digits}g") for sep in _SEPARATORS for case in _CASES]
    parts = [""] * (3 * values.size)
    parts[0::3] = map(pieces.__getitem__, codes.tolist())
    parts[1::3] = kets
    parts[2::3] = ends
    return "".join(parts) % numbers


def format_state(state: BipartitePureState) -> str:
    """Render a state as canonical ket-v1 text.

    The state's ``coefficients`` are printed as given, with 15 significant
    digits: every decimal of at most 15 digits prints as it was typed, and
    format -> parse drift stays below 1e-12. The first Greek group lists every
    Latin ket, zeros included, so that parsing the result restores the exact
    basis order; later groups skip zero entries, and a group of one term
    has no parentheses. The 29 floats above ``_TOP_15`` in magnitude print as
    ``_TOP_15``: with 15 digits they would print as it or as an overflow.
    """
    coefs = state.coefficients.T  # a row per Greek ket
    keep = coefs != 0
    keep[0] = True
    keep[~keep.any(axis=1), 0] = True  # an all-zero column still names its Greek ket: 0|a>
    group, row = np.nonzero(keep)
    first = np.ones(group.size, dtype=bool)
    first[1:] = group[1:] != group[:-1]
    last = np.append(first[1:], True)
    alone = first & last
    kets = [f"|{label}>" for label in state.latin_labels]
    greek = [f"(x)|{label}>" for label in state.greek_labels]
    # after a term: nothing, the end of a combination, or the end of a lone term
    ends = ["", *[")" + ket for ket in greek], *greek]
    end_codes = np.where(last, 1 + group + len(greek) * alone, 0).tolist()
    values = np.clip(coefs[keep].view(float), -_TOP_15, _TOP_15).view(complex)
    return _signed_sum(values, first & (group == 0), first & ~last, 15, True,
                       map(kets.__getitem__, row.tolist()), map(ends.__getitem__, end_codes))
