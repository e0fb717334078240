"""Built-in example states used by the CLI and the test suite."""

from __future__ import annotations

import math

from .density import DensityMatrix, classical_mixture
from .ketparse import parse_state
from .modes import BipartitePureState

# A family of small atom-photon style states over two Latin and three or four
# Greek basis kets. psi0 is barely entangled; psi1 flips one sign and gains a
# lot; psi2 adds a fourth Greek ket; psi3 mixes in complex coefficients.
EXPRESSIONS = {
    "psi0": "(2|a> + |b>)(x)|alpha> + (|a> + 2|b>)(x)|beta> + (|a> + |b>)(x)|gamma>",
    "psi1": "(2|a> + |b>)(x)|alpha> + (|a> + 2|b>)(x)|beta> + (|a> - |b>)(x)|gamma>",
    "psi2": "(2|a> + |b>)(x)|alpha> + (|a> + 2|b>)(x)|beta> + (|a> - |b>)(x)(|gamma> - |delta>)",
    "psi3": "(2|a> + i|b>)(x)|alpha> + (i|a> + 2|b>)(x)|beta> + (|a> + |b>)(x)|gamma>",
}

BELL_AMPLITUDES = {
    "phi_plus": ((1, 0), (0, 1)),
    "phi_minus": ((1, 0), (0, -1)),
    "psi_plus": ((0, 1), (1, 0)),
    "psi_minus": ((0, 1), (-1, 0)),
}


def _lookup(table: dict, what: str, name: str):
    """``table[name]``, or a KeyError that names the unknown ``what`` and lists the choices."""
    if name not in table:
        raise KeyError(f"unknown {what} {name!r}; choose from {sorted(table)}")
    return table[name]


def example_state(name: str) -> BipartitePureState:
    """One of the ket-expression examples, parsed: psi0, psi1, psi2 or psi3."""
    return parse_state(_lookup(EXPRESSIONS, "example", name))


def bell_state(kind: str = "psi_plus") -> BipartitePureState:
    """A two-qubit Bell state in the H/V polarization basis."""
    amps = _lookup(BELL_AMPLITUDES, "Bell state", kind)
    scaled = [[entry / math.sqrt(2.0) for entry in row] for row in amps]
    return BipartitePureState.from_amplitudes(("H", "V"), ("H", "V"), scaled)


def opposite_polarization_mixture() -> DensityMatrix:
    """Fifty-fifty classical mixture of |HV> and |VH>: correlated, not entangled."""
    return classical_mixture([(0.5, "H", "V"), (0.5, "V", "H")])
