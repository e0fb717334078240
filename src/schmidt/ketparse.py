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
to the right to subsystem B (the Greek side); the two label sets must be
disjoint. Basis order is first appearance in the text. Whitespace between
tokens never matters. Reals may carry an exponent (``1.5e-3``), and a leading
'-' on a state or parenthesized combination works as in ordinary arithmetic.

``format_state`` emits canonical text in this grammar: one parenthesized
Latin combination per Greek basis ket, Greek kets in basis order, integer
coefficients printed as integers and all others with 15 significant digits.
Only labels that match the LABEL rule survive a round trip.
"""

from __future__ import annotations

import cmath
import math
import re
import string
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .modes import BipartitePureState

FORMAT_VERSION = "ket-v1"

# One alternative per token kind, tried in this order; whitespace matches none
# and is skipped by findall. The last alternative catches any other character
# so that a lexical error keeps its place in the token list.
_SYMBOLS = r"|><()+\-*/⊗"
_TOKEN_RE = re.compile(
    rf"[{_SYMBOLS}]"
    r"|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"
    r"|[A-Za-z][A-Za-z0-9_]*"
    r"|\S"
)
# Characters that start a token; a token starting with anything else is a
# lexical error.
_TOKEN_START_RE = re.compile(rf"[{_SYMBOLS}\dA-Za-z]")
_LETTERS = frozenset(string.ascii_letters)
_END = ""  # sentinel after the last token; never equal to a real token


def _tokenize(text: str) -> list[str]:
    """Token strings in text order, followed by the end sentinel.

    A token's kind follows from its first character: a decimal digit starts
    a number, an ASCII letter a name, and a symbol stands for itself.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append(_END)
    return tokens


def _token_position(text: str, index: int) -> int:
    """1-based character offset of token ``index``; past the last, len + 1."""
    for count, match in enumerate(_TOKEN_RE.finditer(text)):
        if count == index:
            return match.start() + 1
    return len(text) + 1


class _SyntaxError(Exception):
    """A rejected token, by index; parse_expression turns it into a ParseError."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index


@dataclass(frozen=True)
class KetTerm:
    """One tensor-product term: coefficient * (Latin combo) (x) (Greek combo).

    Each side is a tuple of (coefficient, label) pairs.
    """

    coefficient: complex
    latin: tuple[tuple[complex, str], ...]
    greek: tuple[tuple[complex, str], ...]


@dataclass(frozen=True)
class KetExpression:
    """Parsed ket expression: a sum of tensor-product terms."""

    terms: tuple[KetTerm, ...]

    def to_state(self, strict_norm: bool = False) -> BipartitePureState:
        """Distribute the tensor products into an amplitude matrix."""
        latin: dict[str, int] = {}
        greek: dict[str, int] = {}
        for term in self.terms:
            for _, label in term.latin:
                latin.setdefault(label, len(latin))
            for _, label in term.greek:
                greek.setdefault(label, len(greek))
        overlap = latin.keys() & greek.keys()
        if overlap:
            raise ParseError(
                f"label {sorted(overlap)[0]!r} appears on both sides of a tensor product", 1
            )
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
            self._check_products()
        return BipartitePureState.from_amplitudes(tuple(latin), tuple(greek), amps, strict_norm)

    def _check_products(self) -> None:
        """Raise for the first term whose product of finite scalars overflows.

        A complex product turns the overflow into inf+nanj, a value the text
        never held; an overflowing sum of finite products is reported by
        ``from_amplitudes``.
        """
        for number, term in enumerate(self.terms, start=1):
            for lcoef, llabel in term.latin:
                for gcoef, glabel in term.greek:
                    if not cmath.isfinite(term.coefficient * lcoef * gcoef):
                        raise ValidationError(
                            f"the coefficient product of term {number} at "
                            f"|{llabel}>(x)|{glabel}> overflows the float range"
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
        self.latin_seen: set[str] = set()
        self.greek_seen: set[str] = set()

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

    # --- kets and factors ------------------------------------------------

    def ket(self, i: int) -> tuple[str, int]:
        tokens = self.tokens
        if tokens[i] != "|":
            raise _SyntaxError(f"expected '|' opening a ket, found {_found(tokens[i])}", i)
        label = tokens[i + 1]
        if label[:1] not in _LETTERS:
            raise _SyntaxError(f"expected a ket label, found {_found(label)}", i + 1)
        if tokens[i + 2] != ">":
            raise _SyntaxError(
                f"expected '>' closing the ket, found {_found(tokens[i + 2])}", i + 2
            )
        return label, i + 3

    def factor(self, i: int) -> tuple[list[tuple[complex, str]], list[int], int]:
        """Items (coefficient, label) of a ket or a parenthesized combination,
        the token index of each item's ket, and the index after the factor."""
        tokens = self.tokens
        if tokens[i] == "|":
            label, end = self.ket(i)
            return [(1 + 0j, label)], [i], end
        if tokens[i] != "(":
            raise _SyntaxError(f"expected a ket or '(', found {_found(tokens[i])}", i)
        i += 1
        negate = tokens[i] == "-"
        if negate:
            i += 1
        items, starts = [], []
        while True:
            coef, i = self.coefficient(i)
            starts.append(i)
            label, i = self.ket(i)
            items.append((-coef if negate else coef, label))
            sign = tokens[i]
            if sign != "+" and sign != "-":
                break
            negate = sign == "-"
            i += 1
        return items, starts, self.expect(i, ")", "')' closing the combination")

    def accept_tensor(self, i: int) -> int:
        """Index after a tensor operator at ``i``, or -1 if there is none."""
        tokens = self.tokens
        token = tokens[i]
        if token == "⊗" or token == "x":
            return i + 1
        if token == "(" and tokens[i + 1] == "x" and tokens[i + 2] == ")":
            return i + 3
        return -1

    # --- terms and the whole state ----------------------------------------

    def check_sides(self, labels, starts, other_seen: set[str], seen: set[str]) -> None:
        if not other_seen.isdisjoint(labels):
            for label, start in zip(labels, starts):
                if label in other_seen:
                    raise _SyntaxError(
                        f"label {label!r} appears on both sides of the tensor product",
                        start,
                    )
        seen.update(labels)

    def term(self, i: int, negate: bool) -> tuple[KetTerm, int]:
        coef, i = self.coefficient(i)
        latin, latin_starts, i = self.factor(i)
        after = self.accept_tensor(i)
        if after < 0:
            raise _SyntaxError(
                f"expected a tensor operator '(x)', found {_found(self.tokens[i])}", i
            )
        greek, greek_starts, i = self.factor(after)
        self.check_sides([l for _, l in latin], latin_starts, self.greek_seen, self.latin_seen)
        self.check_sides([l for _, l in greek], greek_starts, self.latin_seen, self.greek_seen)
        term = KetTerm(-coef if negate else coef, tuple(latin), tuple(greek))
        return term, i

    def state(self) -> KetExpression:
        tokens = self.tokens
        i = 0
        negate = tokens[0] == "-"
        if negate:
            i = 1
        terms = []
        while True:
            term, i = self.term(i, negate)
            terms.append(term)
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
    grammar is reported ahead of any syntax error, wherever it appears.
    """
    if not text.strip():
        raise ParseError("empty expression", 1)
    tokens = _tokenize(text)
    try:
        return _Parser(tokens).state()
    except _SyntaxError as exc:
        # A stray character can never be consumed, so any lexical error
        # surfaces here as some syntax error; report the first one instead.
        for index, token in enumerate(tokens[:-1]):
            if not _TOKEN_START_RE.match(token):
                message, failed_at = f"unexpected character {token!r}", index
                break
        else:
            message, failed_at = exc.message, exc.index
        raise ParseError(message, _token_position(text, failed_at)) from None


def parse_state(text: str, strict_norm: bool = False) -> BipartitePureState:
    """Parse ket-v1 text into a BipartitePureState.

    The amplitude matrix is assembled by distributing every tensor product;
    bases are ordered by first appearance. The overall scale of the
    expression is recorded as the state's ``norm``, not discarded.
    """
    return parse_expression(text).to_state(strict_norm)


# --- formatting -----------------------------------------------------------


def _coefficient_text(coef: complex) -> tuple[bool, str]:
    """Split a coefficient into (negative?, printable magnitude part).

    The text omits a bare factor of 1, so callers can glue it straight onto
    a ket: "" -> |a>, "2" -> 2|a>, "i" -> i|a>, "(2+3i)" -> (2+3i)|a>.
    """
    # 15 significant digits: coarse enough to collapse 1-ulp noise back to
    # clean integers, fine enough to keep format -> parse drift below 1e-12.
    re_part, im_part = coef.real, coef.imag
    if im_part == 0.0:
        magnitude = abs(re_part)
        return re_part < 0.0, "" if magnitude == 1.0 else f"{magnitude:.15g}"
    if re_part == 0.0:
        magnitude = abs(im_part)
        return im_part < 0.0, "i" if magnitude == 1.0 else f"{magnitude:.15g}i"
    negative = re_part < 0.0
    if negative:
        re_part, im_part = -re_part, -im_part
    if abs(im_part) == 1.0:
        return negative, f"({re_part:.15g}{'+' if im_part > 0.0 else '-'}i)"
    return negative, f"({re_part:.15g}{im_part:+.15g}i)"


def join_signed(pieces: list[tuple[bool, str]]) -> str:
    """Join (negative, text) terms into a sum like "-a + b - c"."""
    out = []
    for index, (negative, text) in enumerate(pieces):
        if index == 0:
            out.append(("-" if negative else "") + text)
        else:
            out.append((" - " if negative else " + ") + text)
    return "".join(out)


def format_state(state: BipartitePureState) -> str:
    """Render a state as canonical ket-v1 text.

    Coefficients are printed at the state's original scale
    (``amplitudes * norm``). The first Greek group lists every Latin ket,
    zeros included, so that parsing the result restores the exact basis
    order; later groups skip zero entries.
    """
    columns = (np.asarray(state.amplitudes, dtype=complex) * state.norm).T.tolist()
    kets = [f"|{label}>" for label in state.latin_labels]
    groups: list[tuple[bool, str]] = []
    for j, (greek_label, column) in enumerate(zip(state.greek_labels, columns)):
        pieces: list[tuple[bool, str]] = []
        for ket, coef in zip(kets, column):
            if j > 0 and coef == 0:
                continue
            negative, text = _coefficient_text(coef)
            pieces.append((negative, text + ket))
        if not pieces:  # an all-zero column still has to name its Greek ket
            pieces = [(False, f"0|{state.latin_labels[0]}>")]
        if len(pieces) == 1:
            negative, text = pieces[0]
            groups.append((negative, f"{text}(x)|{greek_label}>"))
        else:
            groups.append((False, f"({join_signed(pieces)})(x)|{greek_label}>"))
    return join_signed(groups)
