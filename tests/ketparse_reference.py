"""The ket-v1 parser as it was before the one-loop rewrite of
``schmidt.ketparse``: a recursive descent with one method per grammar rule.

Kept as the reference that ``test_ketparse.py`` compares the package's
parser against: for any text both must give the same expression tree, or the
same ``ParseError`` message at the same position. Its one change since is
ket-v1's digit rule, spelt here on its own: a digit is ASCII '0'..'9'.
"""

from __future__ import annotations

import cmath
import math
import re

from schmidt.errors import ParseError
from schmidt.ketparse import KetExpression, KetTerm
from schmidt.modes import LABEL

_SYMBOLS = r"|><()+\-*/⊗"
_NUMBER = r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?"
# One alternative per token kind, tried in this order; whitespace matches none
# and is skipped. First three compound tokens, each a run of plain tokens that
# the grammar reads in one place only: a whole ket, a bracketed complex scalar
# '(re±im i)' and the tensor '(x)', whitespace inside included. Then the plain
# tokens: a symbol, a number (it starts with an ASCII digit) and a name (an
# ASCII letter). The last alternative catches any other character so that a
# lexical error keeps its place in the token list.
_COMPOUND_TOKEN = (
    rf"\|\s*{LABEL}\s*>"
    rf"|\(\s*{_NUMBER}\s*[+-]\s*(?:{_NUMBER}\s*)?i\s*\)"
    rf"|\(\s*x\s*\)|[{_SYMBOLS}]|{_NUMBER}|{LABEL}|\S"
)
# Characters that start a token; a token starting with anything else is a
# lexical error.
_TOKEN_START = rf"[{_SYMBOLS}0-9A-Za-z]"
_END = ""  # sentinel after the last token; never equal to a real token


class _SyntaxError(Exception):
    """A rejected token, by index; parse_expression turns it into a ParseError."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.message = message
        self.index = index



def _kind(token: str) -> str:
    """'ket', 'tensor' or 'scalar' for a compound token, '' for any other."""
    if len(token) < 2 or token[0] not in "|(":
        return ""
    return "ket" if token[0] == "|" else "tensor" if "x" in token else "scalar"


def _found(token: str) -> str:
    """A token as an error message names it: a compound one by its kind and
    without its whitespace, so '( 1 + 2i )' is "the scalar '(1+2i)'"."""
    if not token:
        return "end of input"
    kind = _kind(token)
    return f"the {kind} {''.join(token.split())!r}" if kind else repr(token)


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
        if not "0" <= token[:1] <= "9":  # the end sentinel "" too
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
        if "0" <= token[:1] <= "9":
            real = self.number(i)
            start, i = i, i + 1
            if tokens[i] == "/":
                i += 1
                divisor_at = i
                if "0" <= tokens[i][:1] <= "9":
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
        elif token[:1] == "(" and len(token) > 1 and "x" not in token:  # a compound '(re±im i)'
            value, i = self.compound_complex(i), i + 1
        else:
            value = None
        if value is None:
            return 1 + 0j, i
        if tokens[i] == "*":
            i += 1
        return value, i

    def compound_complex(self, i: int) -> complex:
        # A '(re±im i)' token; complex() reads each part as float() does.
        token = self.tokens[i]
        text = token.replace("i", "j")
        try:
            value = complex(text)
        except ValueError:  # complex() allows no whitespace around the sign
            value = complex("".join(text.split()))
        if not cmath.isfinite(value):
            raise _overflow("".join(token.split()), i)
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
        # '|' LABEL '>' is always read as one compound token
        raise _SyntaxError(f"expected '>' closing the ket, found {_found(tokens[i + 2])}", i + 2)

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
            token = tokens[i]  # '⊗', 'x' or a compound '(x)' token
            if not (token == "⊗" or token == "x" or (token[:1] == "(" and "x" in token)):
                raise _SyntaxError(f"expected a tensor operator '(x)', found {_found(token)}", i)
            greek, i = self.factor(i + 1)
            terms.append(KetTerm(-coef if negate else coef, tuple(latin), tuple(greek)))
            sign = tokens[i]
            if sign != "+" and sign != "-":
                break
            negate = sign == "-"
            i += 1
        if tokens[i] != _END:
            kind = _kind(tokens[i]) or "input"
            raise _SyntaxError(f"unexpected trailing {kind} {''.join(tokens[i].split())!r}", i)
        return KetExpression(tuple(terms))


def parse_expression(text: str) -> KetExpression:
    """Parse ket-v1 text into its syntax tree without building the state.

    Cost is linear in the length of the text. A character outside the
    grammar is reported ahead of any syntax error, wherever it appears. A
    label may stand on both sides of the tensor product.
    """
    if not text.strip():
        raise ParseError("empty expression", 1)
    tokens = re.findall(_COMPOUND_TOKEN, text)
    tokens.append(_END)
    try:
        return _Parser(tokens).state()
    except _SyntaxError as exc:
        # A stray character can never be consumed, so any lexical error
        # surfaces as some syntax error; report the first one instead.
        message, failed_at = exc.message, exc.index
        token_start = re.compile(_TOKEN_START)
        for index, token in enumerate(tokens[:-1]):
            if not token_start.match(token):
                message, failed_at = f"unexpected character {token!r}", index
                break
        # 1-based character offset of each token; the end sentinel's is len + 1
        starts = [match.start() + 1 for match in re.finditer(_COMPOUND_TOKEN, text)]
        starts.append(len(text) + 1)
        raise ParseError(message, starts[failed_at]) from None
