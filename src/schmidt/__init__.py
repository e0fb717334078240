"""Schmidt-mode analysis of two-party pure quantum states.

Build a state from a ket expression or an amplitude matrix, decompose it
into paired Schmidt modes, and quantify its entanglement:

    >>> import schmidt
    >>> state = schmidt.parse_state("|a>(x)|alpha> + |b>(x)|beta>")
    >>> d = schmidt.schmidt_decompose(state)
    >>> round(schmidt.schmidt_number(d), 6)
    2.0
"""

from .density import (
    DensityMatrix,
    classical_mixture,
    conditional_state,
    partial_trace,
    product_labels,
    pure_density,
    purity,
)
from .errors import (
    ConvergenceError,
    ImpossibleOutcomeError,
    ParseError,
    SchmidtError,
    ShapeError,
    ValidationError,
)
from .ketparse import KetExpression, KetTerm, format_state, parse_expression, parse_state
from .modes import (
    BipartitePureState,
    SchmidtDecomposition,
    entanglement_entropy,
    gram_greek,
    gram_latin,
    is_entangled,
    reconstruct,
    schmidt_decompose,
    schmidt_number,
)

__version__ = "0.1.0"

__all__ = [
    "BipartitePureState",
    "ConvergenceError",
    "DensityMatrix",
    "ImpossibleOutcomeError",
    "KetExpression",
    "KetTerm",
    "ParseError",
    "SchmidtDecomposition",
    "SchmidtError",
    "ShapeError",
    "ValidationError",
    "classical_mixture",
    "conditional_state",
    "entanglement_entropy",
    "format_state",
    "gram_greek",
    "gram_latin",
    "is_entangled",
    "parse_expression",
    "parse_state",
    "partial_trace",
    "product_labels",
    "pure_density",
    "purity",
    "reconstruct",
    "schmidt_decompose",
    "schmidt_number",
]
