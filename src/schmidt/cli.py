"""Command-line front end.

``schmidt analyze`` reads a state from a ket expression or a JSON file, runs
the Schmidt decomposition and prints a report; ``schmidt examples`` does the
same for the built-in states, or prints the classical-versus-entangled
density-matrix comparison for the polarization pair.

Exit codes: 0 success, 2 bad input (parse or validation failure), 3 numerical
failure (LAPACK non-convergence or non-finite output, a reconstruction residual
above 1e-9 or not a number, or modes not orthonormal on one side, max|adj(M) M - I|
above 1e-9), 141 stdout closed by its reader before the output was written.

``main(argv)`` runs one command and returns its exit code; tests and other
in-process callers use it. ``run()`` is the process entry point (the
``schmidt`` console script and ``python -m schmidt.cli``): it freezes the
heap built by the imports with ``gc.freeze()``, so the collections at
interpreter exit skip it, and exits with ``main()``'s code.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

import numpy as np

from . import catalog
from .density import conditional_state, partial_trace, pure_density
from .errors import ConvergenceError, SchmidtError, ValidationError
from .ketparse import FORMAT_VERSION, format_state, parse_state, _signed_sum
from .modes import (
    DEFAULT_RANK_THRESHOLD,
    RESIDUAL_LIMIT,
    BipartitePureState,
    _Record,
    entanglement_entropy,
    is_entangled,
    reconstruct,
    schmidt_decompose,
    schmidt_number,
    verify,
)

STATE_FORMAT = "schmidt-state-v1"
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a program SIGPIPE ended


def _complex_pairs(z: np.ndarray) -> list:
    """Entries of a complex array as nested lists of [re, im] float pairs."""
    return np.stack((z.real, z.imag), axis=-1).tolist()


def state_to_doc(state: BipartitePureState) -> dict:
    """Serialize a state to the schmidt-state-v1 schema: its coefficients as
    given, as [re, im] pairs, row-major over the Latin labels."""
    return {
        "format": STATE_FORMAT,
        "latin_labels": list(state.latin_labels),
        "greek_labels": list(state.greek_labels),
        "amplitudes": _complex_pairs(state.coefficients),
    }


def _amplitude_matrix(rows) -> np.ndarray:
    """Rows of [re, im] pairs as a complex matrix, read in one row-major pass. Raises ValueError
    unless ``rows`` is an array of arrays, then at the first fault met, a row's length before its
    entries: a row whose length differs from row 0's, or an entry that is not two numbers (each an
    int that is not a bool, or a float) or holds an int beyond the float range, named by its row
    and column. A bad entry is quoted as the JSON it was read from (``null``, ``[true, false]``),
    or by its repr when JSON cannot spell it (a library caller's ``1+2j`` or ``[1j, 1j]``)."""
    # A JSON string or object iterates too, as characters or keys.
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError("amplitudes must be an array of rows")
    width = len(rows[0]) if rows else 0
    matrix = []
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"amplitude row {i} has length {len(row)}, "
                             f"row 0 has length {width}")
        values = []
        for j, entry in enumerate(row):
            try:
                re, im = entry
                # type() first, a float64 being a float: a seeded 96 x 97 document read in 1.6 ms,
                # against 2.9 ms with isinstance alone (best of 7; Python 3.11.7, 2 shared vCPUs).
                if not ((type(re) is float or type(re) is int
                         or isinstance(re, (int, float)) and type(re) is not bool)
                        and (type(im) is float or type(im) is int
                             or isinstance(im, (int, float)) and type(im) is not bool)):
                    raise TypeError("not two numbers")  # complex() takes True, 1j, np.True_
                values.append(complex(re, im))
            except OverflowError:  # a JSON integer such as 10**330
                raise ValueError(f"amplitude entry at row {i}, column {j} "
                                 "overflows the float range") from None
            except (TypeError, ValueError):
                try:
                    text = json.dumps(entry)
                except (TypeError, ValueError):
                    text = repr(entry)
                raise ValueError(f"amplitude entry at row {i}, column {j} is not "
                                 f"an [re, im] pair of numbers: {text}") from None
        matrix.append(values)
    return np.array(matrix, dtype=complex).reshape(len(rows), width)


def state_from_doc(doc) -> BipartitePureState:
    """Rebuild a state from a schmidt-state-v1 document, or from a JSON report, whose
    ``state`` holds one: a report fed back through ``--file`` reproduces itself, since
    ``state_to_doc`` writes the coefficients as given (unit-norm amplitudes scaled back
    by the norm would not restore them bit for bit). The amplitudes are read first, by
    ``_amplitude_matrix``; the constructor then checks the labels, and the shape before any
    value, so a NaN, which ``json.load`` reads, is refused by its entry."""
    if isinstance(doc, dict) and doc.get("format") != STATE_FORMAT:
        nested = doc.get("state")
        if isinstance(nested, dict):
            doc = nested
    if not isinstance(doc, dict) or doc.get("format") != STATE_FORMAT:
        raise ValidationError(f"not a {STATE_FORMAT} document")
    try:
        latin, greek = doc["latin_labels"], doc["greek_labels"]
        amps = _amplitude_matrix(doc["amplitudes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {STATE_FORMAT} document: {exc}") from exc
    return BipartitePureState.from_amplitudes(latin, greek, amps)


class AnalysisReport(_Record):
    """Everything the CLI prints about one state, modes as the decomposition's columns.

    Built from the state and its decomposition alone: the reconstruction residual
    ``max|reconstruct(decomposition) - amplitudes|``, the ket-v1 expression and the summaries
    are derived. ``lambdas`` is padded with zeros up to the larger subsystem dimension, as the
    smaller reduced matrix can always be embedded in the bigger space. ``modes.verify`` rebuilds
    the state with this module's ``reconstruct``, the name the benchmark's tracer wraps, and
    accepts or refuses the decomposition, so a report holds only accepted Schmidt data.
    """

    def __init__(self, state, decomposition):
        d = decomposition
        residual = verify(state, d, reconstruct)
        padded = d.lambdas.tolist()
        padded += [0.0] * (max(state.latin_dim, state.greek_dim) - len(padded))
        # Keyword arguments run in order: format_state, then the three summaries.
        self.__setstate__(dict(state=state, decomposition=d, reconstruction_residual=residual,
                               expression=format_state(state), lambdas=tuple(padded),
                               schmidt_number=schmidt_number(d), entropy=entanglement_entropy(d),
                               entangled=is_entangled(d)))

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
    """Run the full analysis for one state. The report checks its own
    reconstruction: ConvergenceError when it fails."""
    return AnalysisReport(state, schmidt_decompose(state, threshold=rank_threshold))


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _fmt_complex(z: complex) -> str:
    if z.imag == 0.0:
        return f"{z.real + 0.0:.6g}"  # + 0.0 turns -0.0 into 0.0
    if z.real == 0.0:
        return f"{z.imag:.6g}i"
    return f"({z.real:.6g}{z.imag:+.6g}i)"


def _mode_lines(lambdas: list[str], latin_labels: tuple[str, ...], latin_modes: np.ndarray,
                greek_labels: tuple[str, ...], greek_modes: np.ndarray) -> str:
    """The table's lines of each mode: its eigenvalue, then its A and B
    components (a column of each mode matrix)."""
    values = np.concatenate((latin_modes, greek_modes)).T  # a row per mode, A then B
    starts = np.zeros(values.shape, dtype=bool)
    starts[:, [0, len(latin_labels)]] = True
    kets = [f"|{label}>" for label in (*latin_labels, *greek_labels)]
    kets[len(latin_labels) - 1] += "\n  B: "
    headings = [f"mode {index} (eigenvalue {lam}):\n  A: "
                for index, lam in enumerate(lambdas, start=1)]
    breaks = [""] * values.size  # after each mode's last term, the next mode's heading
    breaks[len(kets) - 1::len(kets)] = ["\n" + heading for heading in headings[1:]] + [""]
    return headings[0] + _signed_sum(values.ravel(), starts.ravel(), False, 6, False,
                                     kets * len(lambdas), breaks)


def render_report(report: AnalysisReport, include_modes: bool = True) -> str:
    state, d = report.state, report.decomposition
    lambdas = [_fmt(lam) for lam in report.lambdas]
    lines = [
        f"input ({FORMAT_VERSION}): {report.expression}",
        f"normalization: {_fmt(report.state.norm)}",
        "eigenvalues: " + ", ".join(lambdas),
        f"schmidt number K: {_fmt(report.schmidt_number)}",
        f"entanglement entropy: {_fmt(report.entropy)} bits",
        f"rank: {report.rank}",
        f"entangled: {'yes' if report.entangled else 'no'}",
    ]
    if include_modes and d.rank:
        lines.append(_mode_lines(lambdas[:d.rank], state.latin_labels, d.latin_modes,
                                 state.greek_labels, d.greek_modes))
    lines.append(f"reconstruction residual: {report.reconstruction_residual:.3e}")
    return "\n".join(lines)


def _render_matrix(m: np.ndarray) -> str:
    return "\n".join("  " + "  ".join(f"{_fmt_complex(z):>8}" for z in row) for row in m)


def build_comparison() -> dict:
    """Classical mixture versus Bell state: same marginals, different coherences.

    Matrices stay arrays; the JSON output writes them with ``_complex_pairs``.
    """
    rho_cl = catalog.opposite_polarization_mixture()
    rho_qm = pure_density(catalog.bell_state("psi_plus"))
    project_h = [1.0, 0.0]
    out = {}
    for name, rho in (("classical", rho_cl), ("quantum", rho_qm)):
        prob, cond = conditional_state(rho, project_h)
        out[name] = {
            "basis": list(rho.basis_labels),
            "matrix": rho.matrix,
            "reduced_A": partial_trace(rho, "A").matrix,
            "reduced_B": partial_trace(rho, "B").matrix,
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
    lines += ["The reduced matrices and conditional outcomes agree; only the Bell state",
              "carries the cross-particle coherences at HV-VH and VH-HV."]
    return "\n".join(lines)


def _load_state_file(path: str) -> BipartitePureState:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer with
    # more digits than int() accepts; deep nesting exhausts the parser's stack.
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    return state_from_doc(doc)


def _emit_report(state: BipartitePureState, args) -> None:
    """Print the report of ``state`` as ``args`` ask; a refusal prints nothing to stdout.
    Expressions, files and examples all end here, so ``--strict-norm`` is one check for
    each, and an input error it would also report, such as an all-zero state, is refused
    first, where the state is built."""
    if args.unit_norm and abs(state.norm - 1.0) > RESIDUAL_LIMIT:
        raise ValidationError(
            f"strict normalization requested but the amplitude norm is {state.norm!r}"
        )
    threshold = DEFAULT_RANK_THRESHOLD if args.rank_threshold is None else args.rank_threshold
    report = build_report(state, rank_threshold=threshold)
    if args.format == "json":
        print(json.dumps(report.to_dict(include_modes=not args.no_modes), indent=2))
    else:
        print(render_report(report, include_modes=not args.no_modes))


def _cmd_analyze(args) -> int:
    state = parse_state(args.expr) if args.expr is not None else _load_state_file(args.file)
    _emit_report(state, args)
    return 0


def _cmd_examples(args) -> int:
    if args.name in catalog.EXPRESSIONS:
        state = parse_state(catalog.EXPRESSIONS[args.name])
        _emit_report(state, args)
        return 0
    for flag, given in (("--rank-threshold", args.rank_threshold is not None),
                        ("--strict-norm", args.unit_norm), ("--no-modes", args.no_modes)):
        if given:
            raise ValidationError(f"examples {args.name} prints a density-matrix "
                                  f"comparison and does not use {flag}")
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
        "--rank-threshold", type=float, metavar="FLOAT",
        help=f"eigenvalues above this count toward the rank (default {DEFAULT_RANK_THRESHOLD:g})",
    )
    sub.add_argument(
        "--strict-norm", action="store_true", dest="unit_norm",
        help="reject input whose amplitude norm differs from 1 by more than "
        + np.format_float_scientific(RESIDUAL_LIMIT, trim="-", exp_digits=1),
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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone (`schmidt ... | head -1`): drop the rest quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except SchmidtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> None:
    """Process entry point: ``sys.exit(main())`` after ``gc.freeze()``.

    Everything the imports left on the heap moves to the permanent
    generation, which the collections during and at the end of the process
    skip. Freezing is for a process that ends after one command, so it is
    here and not in ``main``, which would pin its caller's heap.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
