"""Schmidt-mode analysis of two-party pure quantum states.

Build a state from a ket expression or an amplitude matrix, decompose it
into paired Schmidt modes, and quantify its entanglement:

    >>> import schmidt
    >>> state = schmidt.parse_state("|a>(x)|alpha> + |b>(x)|beta>")
    >>> d = schmidt.schmidt_decompose(state)
    >>> round(schmidt.schmidt_number(d), 6)
    2.0

Names resolve on first use: ``import schmidt`` loads neither numpy nor a
submodule, and the first read of ``schmidt.X`` imports the module of ``X``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "density": ("DensityMatrix", "classical_mixture", "conditional_state", "gram_greek",
                "gram_latin", "partial_trace", "product_labels", "pure_density", "purity"),
    "errors": ("ConvergenceError", "ImpossibleOutcomeError", "ParseError", "SchmidtError",
               "ShapeError", "ValidationError"),
    "ketparse": ("KetExpression", "KetTerm", "format_state", "parse_expression", "parse_state"),
    "modes": ("BipartitePureState", "SchmidtDecomposition", "entanglement_entropy",
              "is_entangled", "reconstruct", "schmidt_decompose", "schmidt_number"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule the package used to import eagerly
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
