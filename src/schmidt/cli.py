"""Command-line front end.

``schmidt analyze`` reads a state from a ket expression or a JSON file, runs
the Schmidt decomposition and prints a report; ``schmidt examples`` does the
same for the built-in states, or prints the classical-versus-entangled
density-matrix comparison for the polarization pair.

Exit codes: 0 success, 2 bad input (parse or validation failure), 3 numerical
failure (LAPACK non-convergence, or a reconstruction residual above 1e-9).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import catalog
from .density import conditional_state, partial_trace, pure_density
from .errors import ConvergenceError, ParseError, SchmidtError, ValidationError
from .ketparse import FORMAT_VERSION, format_state, parse_state
from .modes import (
    BipartitePureState,
    entanglement_entropy,
    is_entangled,
    reconstruct,
    schmidt_decompose,
    schmidt_number,
)

STATE_FORMAT = "schmidt-state-v1"
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3
# Reports are only emitted when the decomposition reproduces the state this well.
RESIDUAL_LIMIT = 1e-9


def state_to_doc(state: BipartitePureState) -> dict:
    """Serialize a state to the schmidt-state-v1 schema.

    Amplitudes are stored at the original scale (``amplitudes * norm``) as
    [re, im] pairs, row-major over the Latin labels.
    """
    scaled = np.asarray(state.amplitudes, dtype=complex) * state.norm
    return {
        "format": STATE_FORMAT,
        "latin_labels": list(state.latin_labels),
        "greek_labels": list(state.greek_labels),
        "amplitudes": [[[z.real, z.imag] for z in row] for row in scaled],
    }


def state_from_doc(doc, strict_norm: bool = False) -> BipartitePureState:
    """Rebuild a state from a schmidt-state-v1 document (or a report holding one)."""
    if isinstance(doc, dict) and doc.get("format") != STATE_FORMAT:
        nested = doc.get("state")
        if isinstance(nested, dict):
            doc = nested
    if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT:
        raise ValidationError(f"not a {STATE_FORMAT} document")
    try:
        latin = [str(l) for l in doc["latin_labels"]]
        greek = [str(g) for g in doc["greek_labels"]]
        rows = doc["amplitudes"]
        amps = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=complex,
        )
        if amps.ndim != 2:
            raise ValueError("amplitudes must be a rectangular matrix")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"malformed {STATE_FORMAT} document: {exc}") from exc
    return BipartitePureState.from_amplitudes(latin, greek, amps, strict_norm)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the CLI prints about one state."""

    expression: str
    normalization: float
    lambdas: tuple[float, ...]
    schmidt_number: float
    entropy: float
    rank: int
    entangled: bool
    latin_modes: tuple[tuple[float, dict[str, complex]], ...]
    greek_modes: tuple[tuple[float, dict[str, complex]], ...]
    reconstruction_residual: float
    state: BipartitePureState

    def to_dict(self, include_modes: bool = True) -> dict:
        doc = {
            "input": {"format": FORMAT_VERSION, "expression": self.expression},
            "normalization": self.normalization,
            "lambdas": list(self.lambdas),
            "schmidt_number": self.schmidt_number,
            "entropy": self.entropy,
            "rank": self.rank,
            "entangled": self.entangled,
        }
        if include_modes:
            doc["latin_modes"] = [
                {
                    "eigenvalue": lam,
                    "components": {label: [z.real, z.imag] for label, z in comps.items()},
                }
                for lam, comps in self.latin_modes
            ]
            doc["greek_modes"] = [
                {
                    "eigenvalue": lam,
                    "components": {label: [z.real, z.imag] for label, z in comps.items()},
                }
                for lam, comps in self.greek_modes
            ]
        doc["reconstruction_residual"] = self.reconstruction_residual
        doc["state"] = state_to_doc(self.state)
        return doc


def build_report(state: BipartitePureState, rank_threshold: float = 1e-10) -> AnalysisReport:
    """Run the full analysis for one state.

    The eigenvalue list is padded with zeros up to the larger subsystem
    dimension, mirroring how the smaller reduced matrix can always be
    embedded in the bigger space.
    """
    decomposition = schmidt_decompose(state, threshold=rank_threshold)
    rebuilt = reconstruct(decomposition)
    residual = float(np.max(np.abs(rebuilt - state.amplitudes)))
    if residual > RESIDUAL_LIMIT:
        raise ConvergenceError(
            f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_LIMIT:g}", residual
        )
    padded = list(float(l) for l in decomposition.lambdas)
    padded += [0.0] * (max(state.latin_dim, state.greek_dim) - len(padded))
    modes_latin = tuple(
        (
            float(decomposition.lambdas[s]),
            dict(zip(state.latin_labels, decomposition.latin_modes[:, s])),
        )
        for s in range(decomposition.rank)
    )
    modes_greek = tuple(
        (
            float(decomposition.lambdas[s]),
            dict(zip(state.greek_labels, decomposition.greek_modes[:, s])),
        )
        for s in range(decomposition.rank)
    )
    return AnalysisReport(
        expression=format_state(state),
        normalization=state.norm,
        lambdas=tuple(padded),
        schmidt_number=schmidt_number(decomposition),
        entropy=entanglement_entropy(decomposition),
        rank=decomposition.rank,
        entangled=is_entangled(decomposition),
        latin_modes=modes_latin,
        greek_modes=modes_greek,
        reconstruction_residual=residual,
        state=state,
    )


def _fmt(value: float, digits: int = 6) -> str:
    return f"{value:.{digits}g}"


def _fmt_complex(z: complex, digits: int = 6) -> str:
    if z.imag == 0.0:
        return _fmt(z.real, digits)
    if z.real == 0.0:
        return _fmt(z.imag, digits) + "i"
    sign = "+" if z.imag >= 0 else "-"
    return f"({_fmt(z.real, digits)}{sign}{_fmt(abs(z.imag), digits)}i)"


def _mode_line(components: dict[str, complex]) -> str:
    parts = []
    for label, z in components.items():
        negative = z.real < 0.0 or (z.real == 0.0 and z.imag < 0.0)
        text = f"{_fmt_complex(-z if negative else z)}|{label}>"
        if not parts:
            parts.append(("-" if negative else "") + text)
        else:
            parts.append((" - " if negative else " + ") + text)
    return "".join(parts)


def render_report(report: AnalysisReport, include_modes: bool = True) -> str:
    lines = [
        f"input ({FORMAT_VERSION}): {report.expression}",
        f"normalization: {_fmt(report.normalization)}",
        "eigenvalues: " + ", ".join(_fmt(l) for l in report.lambdas),
        f"schmidt number K: {_fmt(report.schmidt_number)}",
        f"entanglement entropy: {_fmt(report.entropy)} bits",
        f"rank: {report.rank}",
        f"entangled: {'yes' if report.entangled else 'no'}",
    ]
    if include_modes:
        for index, ((lam, latin), (_, greek)) in enumerate(
            zip(report.latin_modes, report.greek_modes), start=1
        ):
            lines.append(f"mode {index} (eigenvalue {_fmt(lam)}):")
            lines.append(f"  A: {_mode_line(latin)}")
            lines.append(f"  B: {_mode_line(greek)}")
    lines.append(f"reconstruction residual: {report.reconstruction_residual:.3e}")
    return "\n".join(lines)


def _matrix_doc(m: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]


def _render_matrix(m: np.ndarray, indent: str = "  ") -> str:
    rows = []
    for row in np.asarray(m, dtype=complex):
        rows.append(indent + "  ".join(f"{_fmt_complex(z):>8}" for z in row))
    return "\n".join(rows)


def build_comparison() -> dict:
    """Classical mixture versus Bell state: same marginals, different coherences."""
    rho_cl = catalog.opposite_polarization_mixture()
    rho_qm = pure_density(catalog.bell_state("psi_plus"))
    dims = (2, 2)
    project_h = [1.0, 0.0]
    out = {}
    for name, rho in (("classical", rho_cl), ("quantum", rho_qm)):
        prob, cond = conditional_state(rho, project_h, dims, labels=("H", "V"))
        out[name] = {
            "basis": list(rho.basis_labels),
            "matrix": _matrix_doc(rho.matrix),
            "reduced_A": _matrix_doc(partial_trace(rho, "A", dims, labels=("H", "V")).matrix),
            "reduced_B": _matrix_doc(partial_trace(rho, "B", dims, labels=("H", "V")).matrix),
            "conditional_on_H": {"probability": prob, "matrix": _matrix_doc(cond.matrix)},
        }
    return out


def render_comparison(doc: dict) -> str:
    def matrix_of(entry):
        return np.array([[complex(re, im) for re, im in row] for row in entry])

    lines = []
    titles = {"classical": "classical mixture rho_CL", "quantum": "Bell state rho_QM"}
    for name in ("classical", "quantum"):
        entry = doc[name]
        lines.append(f"{titles[name]} (basis {', '.join(entry['basis'])}):")
        lines.append(_render_matrix(matrix_of(entry["matrix"])))
        lines.append("reduced on A:")
        lines.append(_render_matrix(matrix_of(entry["reduced_A"])))
        lines.append("reduced on B:")
        lines.append(_render_matrix(matrix_of(entry["reduced_B"])))
        cond = entry["conditional_on_H"]
        lines.append(
            f"B conditioned on measuring A in |H> (probability {_fmt(cond['probability'])}):"
        )
        lines.append(_render_matrix(matrix_of(cond["matrix"])))
        lines.append("")
    lines.append(
        "The reduced matrices and conditional outcomes agree; only the Bell state"
    )
    lines.append("carries the cross-particle coherences at HV-VH and VH-HV.")
    return "\n".join(lines)


def _load_state_file(path: str, strict_norm: bool) -> BipartitePureState:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return state_from_doc(doc, strict_norm)


def _emit_report(state: BipartitePureState, args) -> None:
    report = build_report(state, rank_threshold=args.rank_threshold)
    if args.format == "json":
        print(json.dumps(report.to_dict(include_modes=not args.no_modes), indent=2))
    else:
        print(render_report(report, include_modes=not args.no_modes))


def _cmd_analyze(args) -> int:
    if args.expr is not None:
        state = parse_state(args.expr, strict_norm=args.strict_norm)
    else:
        state = _load_state_file(args.file, args.strict_norm)
    _emit_report(state, args)
    return 0


def _cmd_examples(args) -> int:
    if args.name in catalog.EXPRESSIONS:
        state = parse_state(catalog.EXPRESSIONS[args.name], strict_norm=args.strict_norm)
        _emit_report(state, args)
        return 0
    doc = build_comparison()
    if args.format == "json":
        print(json.dumps({"comparison": doc}, indent=2))
    else:
        print(render_comparison(doc))
    return 0


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output style: human-readable table or full-precision JSON",
    )
    sub.add_argument(
        "--rank-threshold", type=float, default=1e-10, metavar="FLOAT",
        help="eigenvalues above this count toward the rank (default 1e-10)",
    )
    sub.add_argument(
        "--strict-norm", action="store_true",
        help="reject input whose amplitude norm differs from 1 by more than 1e-9",
    )
    sub.add_argument(
        "--no-modes", action="store_true", help="suppress eigenvector output"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schmidt",
        description="Schmidt-mode analysis of two-party pure quantum states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a state from an expression or JSON file")
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument("--expr", help="ket-v1 expression, e.g. '(2|a> + |b>)(x)|alpha>'")
    source.add_argument("--file", help=f"path to a {STATE_FORMAT} JSON file")
    _add_common_flags(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    examples = sub.add_parser("examples", help="analyze a built-in example state")
    examples.add_argument(
        "name",
        choices=sorted(catalog.EXPRESSIONS) + ["bell", "classical"],
        help="which example to run",
    )
    _add_common_flags(examples)
    examples.set_defaults(func=_cmd_examples)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except (ParseError, SchmidtError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
