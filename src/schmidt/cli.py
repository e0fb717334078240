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
from itertools import chain

import numpy as np

from . import catalog
from .density import NORM_ATOL, conditional_state, partial_trace, pure_density
from .errors import ConvergenceError, SchmidtError, ValidationError
from .ketparse import FORMAT_VERSION, format_state, join_signed, parse_state
from .modes import (
    DEFAULT_RANK_THRESHOLD,
    BipartitePureState,
    SchmidtDecomposition,
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


def _complex_pairs(z: np.ndarray) -> list:
    """Entries of a complex array as nested lists of [re, im] float pairs."""
    return np.stack((z.real, z.imag), axis=-1).tolist()


def state_to_doc(state: BipartitePureState) -> dict:
    """Serialize a state to the schmidt-state-v1 schema.

    Amplitudes are stored at the original scale (``amplitudes * norm``) as
    [re, im] pairs, row-major over the Latin labels.
    """
    return {
        "format": STATE_FORMAT,
        "latin_labels": list(state.latin_labels),
        "greek_labels": list(state.greek_labels),
        "amplitudes": _complex_pairs(np.asarray(state.amplitudes) * state.norm),
    }


def _amplitude_matrix(rows) -> np.ndarray:
    """Rows of [re, im] pairs as a complex matrix. An entry that is not
    exactly two numbers raises ValueError naming its row and column."""
    try:
        amps = np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
        # complex(True, False) is 1+0j. Only a part of exactly 0 or 1 can be a
        # JSON boolean, so the entry types are scanned only when there is one.
        if (np.isin(amps.view(float), (0.0, 1.0)).any()
                and bool in map(type, chain.from_iterable(chain.from_iterable(rows)))):
            raise TypeError("a boolean is not a number")
        return amps
    except (TypeError, ValueError):
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                try:
                    re, im = entry
                    if bool in (type(re), type(im)):
                        raise TypeError("a boolean is not a number")
                    complex(re, im)
                except (TypeError, ValueError):
                    raise ValueError(f"amplitude entry at row {i}, column {j} is not "
                                     f"an [re, im] pair of numbers: {entry!r}") from None
        raise


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
        amps = _amplitude_matrix(doc["amplitudes"])
        if amps.ndim != 2:
            raise ValueError("amplitudes must be a rectangular matrix")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {STATE_FORMAT} document: {exc}") from exc
    return BipartitePureState.from_amplitudes(latin, greek, amps, strict_norm)


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the CLI prints about one state, modes as the decomposition's columns."""

    expression: str
    lambdas: tuple[float, ...]
    schmidt_number: float
    entropy: float
    entangled: bool
    reconstruction_residual: float
    state: BipartitePureState
    decomposition: SchmidtDecomposition

    @property
    def rank(self) -> int:
        return self.decomposition.rank

    def to_dict(self, include_modes: bool = True) -> dict:
        doc = {
            "input": {"format": FORMAT_VERSION, "expression": self.expression},
            "normalization": self.state.norm,
            "lambdas": list(self.lambdas),
            "schmidt_number": self.schmidt_number,
            "entropy": self.entropy,
            "rank": self.rank,
            "entangled": self.entangled,
        }
        if include_modes:
            d = self.decomposition
            for key, labels, modes in (("latin_modes", self.state.latin_labels, d.latin_modes),
                                       ("greek_modes", self.state.greek_labels, d.greek_modes)):
                doc[key] = [
                    {"eigenvalue": lam, "components": dict(zip(labels, column))}
                    for lam, column in zip(d.lambdas.tolist(), _complex_pairs(modes.T))
                ]
        doc["reconstruction_residual"] = self.reconstruction_residual
        doc["state"] = state_to_doc(self.state)
        return doc


def build_report(state: BipartitePureState,
                 rank_threshold: float = DEFAULT_RANK_THRESHOLD) -> AnalysisReport:
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
    padded = decomposition.lambdas.tolist()
    padded += [0.0] * (max(state.latin_dim, state.greek_dim) - len(padded))
    return AnalysisReport(
        expression=format_state(state),
        lambdas=tuple(padded),
        schmidt_number=schmidt_number(decomposition),
        entropy=entanglement_entropy(decomposition),
        entangled=is_entangled(decomposition),
        reconstruction_residual=residual,
        state=state,
        decomposition=decomposition,
    )


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return f"{z.real:.6g}"
    if z.real == 0.0:
        return f"{z.imag:.6g}i"
    return f"({z.real:.6g}{z.imag:+.6g}i)"


def _mode_line(labels: tuple[str, ...], mode: np.ndarray) -> str:
    pieces = []
    for label, z in zip(labels, mode.tolist()):
        negative = z.real < 0.0 or (z.real == 0.0 and z.imag < 0.0)
        pieces.append((negative, f"{_fmt_complex(-z if negative else z)}|{label}>"))
    return join_signed(pieces)


def render_report(report: AnalysisReport, include_modes: bool = True) -> str:
    state, d = report.state, report.decomposition
    lambdas = [_fmt(lam) for lam in d.lambdas.tolist()]
    lambdas += ["0"] * (len(report.lambdas) - len(lambdas))  # the padding zeros
    lines = [
        f"input ({FORMAT_VERSION}): {report.expression}",
        f"normalization: {_fmt(report.state.norm)}",
        "eigenvalues: " + ", ".join(lambdas),
        f"schmidt number K: {_fmt(report.schmidt_number)}",
        f"entanglement entropy: {_fmt(report.entropy)} bits",
        f"rank: {report.rank}",
        f"entangled: {'yes' if report.entangled else 'no'}",
    ]
    if include_modes:
        for index, (lam, latin, greek) in enumerate(
            zip(lambdas, d.latin_modes.T, d.greek_modes.T), start=1
        ):
            lines.append(f"mode {index} (eigenvalue {lam}):")
            lines.append(f"  A: {_mode_line(state.latin_labels, latin)}")
            lines.append(f"  B: {_mode_line(state.greek_labels, greek)}")
    lines.append(f"reconstruction residual: {report.reconstruction_residual:.3e}")
    return "\n".join(lines)


def _render_matrix(m: np.ndarray, indent: str = "  ") -> str:
    return "\n".join(indent + "  ".join(f"{_fmt_complex(z):>8}" for z in row) for row in m)


def build_comparison() -> dict:
    """Classical mixture versus Bell state: same marginals, different coherences.

    Matrices stay arrays; the JSON output writes them with ``_complex_pairs``.
    """
    rho_cl = catalog.opposite_polarization_mixture()
    rho_qm = pure_density(catalog.bell_state("psi_plus"))
    dims = (2, 2)
    project_h = [1.0, 0.0]
    out = {}
    for name, rho in (("classical", rho_cl), ("quantum", rho_qm)):
        prob, cond = conditional_state(rho, project_h, dims, labels=("H", "V"))
        out[name] = {
            "basis": list(rho.basis_labels),
            "matrix": rho.matrix,
            "reduced_A": partial_trace(rho, "A", dims, labels=("H", "V")).matrix,
            "reduced_B": partial_trace(rho, "B", dims, labels=("H", "V")).matrix,
            "conditional_on_H": {"probability": prob, "matrix": cond.matrix},
        }
    return out


def render_comparison(doc: dict) -> str:
    lines = []
    titles = {"classical": "classical mixture rho_CL", "quantum": "Bell state rho_QM"}
    for name in ("classical", "quantum"):
        entry = doc[name]
        cond = entry["conditional_on_H"]
        for title, matrix in (
            (f"{titles[name]} (basis {', '.join(entry['basis'])}):", entry["matrix"]),
            ("reduced on A:", entry["reduced_A"]),
            ("reduced on B:", entry["reduced_B"]),
            (f"B conditioned on measuring A in |H> (probability {_fmt(cond['probability'])}):",
             cond["matrix"]),
        ):
            lines += [title, _render_matrix(matrix)]
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
        print(json.dumps({"comparison": doc}, indent=2, default=_complex_pairs))
    else:
        print(render_comparison(doc))
    return 0


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output style: human-readable table or full-precision JSON",
    )
    sub.add_argument(
        "--rank-threshold", type=float, default=DEFAULT_RANK_THRESHOLD, metavar="FLOAT",
        help="eigenvalues above this count toward the rank (default %(default)g)",
    )
    sub.add_argument(
        "--strict-norm", action="store_true",
        help="reject input whose amplitude norm differs from 1 by more than "
        + np.format_float_scientific(NORM_ATOL, trim="-", exp_digits=1),
    )
    sub.add_argument("--no-modes", action="store_true", help="suppress eigenvector output")


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
    except SchmidtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
