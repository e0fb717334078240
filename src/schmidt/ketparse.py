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
    real    := digit+ ['.' digit*] [('e' | 'E') ['+' | '-'] digit+]
    TENSOR  := '(x)' | 'x' | '⊗'        digit = '0'..'9', letter = 'A'..'Z' | 'a'..'z'

Kets left of the tensor operator belong to subsystem A (the Latin side), kets
to the right to subsystem B (the Greek side). The side of a ket is where it
stands, so one label may name a ket on each side: ``|H>(x)|H>``. Basis order
is first appearance in the text, per side. Whitespace between tokens never
matters. Reals may carry an exponent (``1.5e-3``), and a leading '-' on a
state or parenthesized combination works as in ordinary arithmetic. Another
script's digit, such as '٣' or '３', is a character outside the grammar.

``parse_state`` reports the first error in this order: a character outside
the grammar, wherever it stands; a syntax error or a scalar that overflows the
float range; a coefficient product that overflows, in any term; a sum of
finite products that overflows. ``parse_expression`` checks the first two,
``KetExpression.to_state`` the last two.

Text is tokenized once and parsed in one loop over the tokens. A ket, a
bracketed scalar ``(re±im i)`` and the tensor ``(x)`` are each one token,
whitespace inside included, read in place; where the grammar cannot read such
a token the error names it whole, by its kind and at its first character:
``expected '(' after sqrt, found the scalar '(1+2i)'``.

``format_state`` emits canonical text in this grammar: one parenthesized
Latin combination per Greek basis ket, Greek kets in basis order, integer
coefficients printed as integers and all others with 15 significant digits
(17 when the norm is within 1e-12 of the float maximum, so the text parses
back).
Labels match LABEL, as ``BipartitePureState`` checks, so the text parses back.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ValidationError
from .modes import LABEL, BipartitePureState

FORMAT_VERSION = "ket-v1"

# The patterns below stay strings: re compiles and caches each on first use,
# so importing the package compiles none of them, and a process that parses
# only valid text compiles only _COMPOUND_TOKEN.
_SYMBOLS = r"|><()+\-*/⊗"
_DIGITS = "0123456789"  # ket-v1 digits, for the number patterns and the scalar readers
_NUMBER = rf"[{_DIGITS}]+(?:\.[{_DIGITS}]*)?(?:[eE][+-]?[{_DIGITS}]+)?"
# One alternative per token kind, tried in this order; whitespace matches none
# and is skipped. First three compound tokens, each a run of plain tokens that
# the grammar reads in one place only: a whole ket, a bracketed complex scalar
# '(re±im i)' and the tensor '(x)', whitespace inside included. Then the plain
# tokens: a symbol, a number and a name.
_TOKEN = (
    rf"\|\s*{LABEL}\s*>"
    rf"|\(\s*{_NUMBER}\s*[+-]\s*(?:{_NUMBER}\s*)?i\s*\)"
    rf"|\(\s*x\s*\)|[{_SYMBOLS}]|{_NUMBER}|{LABEL}"
)
_COMPOUND_TOKEN = _TOKEN + r"|\S"  # any other character alone: a lexical error keeps its place
_END = " "  # sentinel after the last token: whitespace, so never a token


class _SyntaxError(Exception):
    """A rejected token: args are its message and index, for parse_expression to report."""


def _same(record: tuple, other: object) -> bool:
    """== of the records below, by value: never equal to a plain tuple."""
    return type(other) is type(record) and tuple.__eq__(record, other)


def _differ(record: tuple, other: object) -> bool:
    return not _same(record, other)


class KetTerm(NamedTuple):
    """One term, coefficient * (Latin combo) (x) (Greek combo), each combo a
    tuple of (coefficient, label) pairs."""

    coefficient: complex
    latin: tuple[tuple[complex, str], ...]
    greek: tuple[tuple[complex, str], ...]
    __eq__, __ne__ = _same, _differ  # the hash stays the tuple's


class KetExpression(NamedTuple):
    """Parsed ket expression: a sum of tensor-product terms."""

    terms: tuple[KetTerm, ...]
    __eq__, __ne__ = _same, _differ

    def to_state(self) -> BipartitePureState:
        """Distribute the tensor products into an amplitude matrix.

        Raises ValidationError for the first product, in term order, that
        overflows the float range, naming the term and its kets; only when
        every product is finite, for the first entry whose products sum
        beyond it, naming its kets. The amplitude alone would show inf+nanj
        or inf, values the text never held.
        """
        terms, isfinite = self.terms, cmath.isfinite
        greek = {label: None for _, _, items in terms for _, label in items}
        greek = dict(zip(greek, range(len(greek))))
        zeros = [0j] * len(greek)
        # Summed as Python complex numbers in a row-major list: indexing a
        # numpy matrix once per product would cost more than the product. A
        # Latin ket's row is appended where the ket first appears.
        latin: dict[str, int] = {}
        flat: list[complex] = []
        for number, (coefficient, latin_items, greek_items) in enumerate(terms, start=1):
            for lcoef, llabel in latin_items:
                scaled = coefficient * lcoef
                try:
                    row = latin[llabel]
                except KeyError:
                    row = latin[llabel] = len(flat)
                    flat += zeros
                for gcoef, glabel in greek_items:
                    product = scaled * gcoef
                    if not isfinite(product):
                        raise ValidationError(f"the coefficient product of term {number} at "
                                              f"|{llabel}>(x)|{glabel}> overflows the float range")
                    flat[row + greek[glabel]] += product
        amps = np.array(flat, dtype=complex).reshape(len(latin), len(greek))
        if not np.isfinite(amps).all():
            row, col = np.argwhere(~np.isfinite(amps))[0]
            raise ValidationError(f"the coefficients of |{tuple(latin)[row]}>(x)|"
                                  f"{tuple(greek)[col]}> sum beyond the float range")
        return BipartitePureState.from_amplitudes(tuple(latin), tuple(greek), amps)


def _kind(token: str) -> str:
    """'ket', 'tensor' or 'scalar' for a compound token, '' for any other."""
    if len(token) < 2 or token[0] not in "|(":
        return ""
    return "ket" if token[0] == "|" else "tensor" if "x" in token else "scalar"


def _found(token: str) -> str:
    """A token as an error message names it: a compound one by its kind and
    without its whitespace, so '( 1 + 2i )' is "the scalar '(1+2i)'"."""
    if token == _END:
        return "end of input"
    kind = _kind(token)
    return f"the {kind} {''.join(token.split())!r}" if kind else repr(token)


def _overflow(text: str, index: int) -> _SyntaxError:
    return _SyntaxError(f"scalar {text!r} overflows the float range", index)


def _number(tokens: list[str], i: int) -> float:
    token = tokens[i]
    if token[0] not in _DIGITS:
        raise _SyntaxError(f"expected a number, found {_found(token)}", i)
    value = float(token)
    if value == math.inf:  # number tokens are unsigned
        raise _overflow(token, i)
    return value


def _sqrt_call(tokens: list[str], i: int) -> tuple[float, int]:
    """'(' number ')' from just past 'sqrt': its square root and the index after it."""
    if tokens[i] != "(":
        raise _SyntaxError(f"expected '(' after sqrt, found {_found(tokens[i])}", i)
    value = _number(tokens, i + 1)
    if tokens[i + 2] != ")":
        raise _SyntaxError(f"expected ')' closing sqrt, found {_found(tokens[i + 2])}", i + 2)
    return math.sqrt(value), i + 3


def _scalar(tokens: list[str], i: int) -> tuple[complex, int]:
    """An optional scalar and the '*' after it, and the index after them; 1
    when there is none."""
    token = tokens[i]
    real = None
    if token[0] in _DIGITS:
        real = _number(tokens, i)
        start, i = i, i + 1
        if tokens[i] == "/":
            i += 1
            divisor_at = i
            if tokens[i][0] in _DIGITS:
                divisor = _number(tokens, i)
                i += 1
            elif tokens[i] == "sqrt":
                divisor, i = _sqrt_call(tokens, i + 1)
            else:
                raise _SyntaxError("expected a number or sqrt(...) after '/'", i)
            if divisor == 0.0:
                raise _SyntaxError("division by zero in a scalar", divisor_at)
            real /= divisor
            if real == math.inf:
                raise _overflow("".join(tokens[start:i]), start)
    elif token == "sqrt":
        real, i = _sqrt_call(tokens, i + 1)
    if real is not None:
        value, i = (real * 1j, i + 1) if tokens[i] == "i" else (complex(real), i)
    elif token == "i":
        value, i = 1j, i + 1
    elif token[:1] == "(" and "i" in token:  # a compound '(re±im i)'
        value, i = _complex(token, i), i + 1
    else:
        return 1 + 0j, i
    if tokens[i] == "*":
        i += 1
    return value, i


def _complex(token: str, i: int) -> complex:
    """The value of a '(re±im i)' token; complex() reads each part as float()
    does, but allows no whitespace around the sign."""
    try:
        value = complex(token.replace("i", "j"))
    except ValueError:  # whitespace inside the brackets
        value = complex("".join(token.replace("i", "j").split()))
    if not cmath.isfinite(value):
        raise _overflow("".join(token.split()), i)
    return value


def _ket_error(tokens: list[str], i: int) -> _SyntaxError:
    """The error for a token that stands where a ket must, but is none."""
    if tokens[i] != "|":
        return _SyntaxError(f"expected '|' opening a ket, found {_found(tokens[i])}", i)
    label = tokens[i + 1]
    if not re.match(LABEL, label):  # the end sentinel too
        return _SyntaxError(f"expected a ket label, found {_found(label)}", i + 1)
    # '|' LABEL '>' is always read as one compound token
    return _SyntaxError(f"expected '>' closing the ket, found {_found(tokens[i + 2])}", i + 2)


def _read(tokens: list[str]) -> KetExpression:
    """The sum of terms the tokens spell: a pass of the outer loop reads a
    factor, one of the inner loop a combination's scalar and ket. The helpers
    above read the rarer scalar forms and word the errors."""
    one, new_term = 1 + 0j, tuple.__new__
    terms = []
    latin = None  # the Latin factor's items while the Greek factor is read
    negate = tokens[0] == "-"
    i = 1 if negate else 0
    while True:
        if latin is None:  # a term starts
            coef, i = (one, i) if tokens[i] == "(" else _scalar(tokens, i)
        token = tokens[i]
        if token[0] == "|" and len(token) > 1:  # a compound ket
            items = ((one, token[1:-1].strip()),)
            i += 1
        elif token == "(":
            minus = tokens[i + 1] == "-"
            i += 2 if minus else 1
            items = []
            while True:
                token = tokens[i]
                if token[0] == "(" and "i" in token:  # only a compound '(re±im i)' is both
                    value = _complex(token, i)
                    i += 1
                    token = tokens[i]
                    if token == "*":
                        i += 1
                        token = tokens[i]
                elif token[0] == "|":
                    value = one
                else:
                    value, i = _scalar(tokens, i)
                    token = tokens[i]
                if token[0] != "|" or len(token) < 2:
                    raise _ket_error(tokens, i)
                items.append((-value if minus else value, token[1:-1].strip()))
                i += 1
                token = tokens[i]
                if token == "+":
                    minus = False
                elif token == "-":
                    minus = True
                else:
                    break
                i += 1
            if token != ")":
                raise _SyntaxError(f"expected ')' closing the combination, found {_found(token)}", i)
            i += 1
            items = tuple(items)
        elif token[0] == "|":
            raise _ket_error(tokens, i)
        else:
            raise _SyntaxError(f"expected a ket or '(', found {_found(token)}", i)
        token = tokens[i]
        if latin is None:  # the tensor: a compound '(x)', '⊗' or 'x'
            if not ((token[0] == "(" and "x" in token) or token == "⊗" or token == "x"):
                raise _SyntaxError(f"expected a tensor operator '(x)', found {_found(token)}", i)
            latin = items
            i += 1
            continue
        # KetTerm(...) without the Python-level call of its __new__
        terms.append(new_term(KetTerm, (-coef if negate else coef, latin, items)))
        latin = None
        if token == "+":
            negate = False
        elif token == "-":
            negate = True
        else:
            break
        i += 1
    if token != _END:
        kind = _kind(token) or "input"
        raise _SyntaxError(f"unexpected trailing {kind} {''.join(token.split())!r}", i)
    return KetExpression(tuple(terms))


def parse_expression(text: str) -> KetExpression:
    """Parse ket-v1 text into its syntax tree without building the state.

    Cost is linear in the length of the text. A character outside the
    grammar is reported ahead of any syntax error, wherever it appears. A
    label may stand on both sides of the tensor product.
    """
    if not isinstance(text, str):
        raise ValidationError(f"ket-v1 text must be a str, got {text!r}")
    if not text.strip():
        raise ParseError("empty expression", 1)
    tokens = re.findall(_COMPOUND_TOKEN, text)
    tokens.append(_END)
    try:
        return _read(tokens)
    except _SyntaxError as exc:
        # A stray character (a one-character token that _TOKEN does not read) is never
        # consumed, so it surfaces as some syntax error; report the first one instead.
        message, failed_at = exc.args
        fullmatch = re.compile(_TOKEN).fullmatch
        for index, token in enumerate(tokens[:-1]):
            if len(token) == 1 and not fullmatch(token):
                message, failed_at = f"unexpected character {token!r}", index
                break
        # 1-based character offset of each token; the end sentinel's is len + 1
        starts = [match.start() + 1 for match in re.finditer(_COMPOUND_TOKEN, text)]
        starts.append(len(text) + 1)
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

    The state's ``coefficients`` are printed in ``%.15g`` form: a normal float
    typed with at most 15 digits prints as the same float (1e-2 as 0.01, 1.50
    as 1.5), and format -> parse drift stays below 1e-12. A subnormal float
    carries fewer significant digits than that, so 1e-320 prints as
    9.99988867182683e-321, which parses back to the same float. A state whose
    norm is within 1e-12 of the float maximum prints with 17 digits instead,
    which parse back bit for bit: rounded to 15, its norm could round past the
    float range. The first Greek group lists every Latin ket, zeros included,
    so that parsing the result restores the exact basis order; later groups
    skip zero entries, and a group of one term has no parentheses. Every label
    matches ``LABEL``, which the state's constructor checks, so the text parses
    back: a label outside that rule is refused before any report is written.
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
    digits = 17 if state.norm > sys.float_info.max * (1 - 1e-12) else 15
    return _signed_sum(coefs[keep], first & (group == 0), first & ~last, digits, True,
                       map(kets.__getitem__, row.tolist()), map(ends.__getitem__, end_codes))
