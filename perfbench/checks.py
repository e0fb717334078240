"""Output checks behind ``ok_frac``, each counted under its own name.

An operation passes when the program ended it the way a correct program
would: a report for a valid state that meets every check below, or exit
code 2 for an invalid input. Tolerances are fixed here, before any run.
"""

from __future__ import annotations

import json
import re
from collections import Counter

import numpy as np

# Invariants ROADMAP states for every report, at full (JSON) precision.
SUM_TOL = 1e-10  # |sum(lambda) - 1|
ROUNDOFF_TOL = 1e-12  # lambda >= -ROUNDOFF_TOL, and no step up larger than this
ORTHO_TOL = 1e-9  # max |M^H M - I| for each side's modes
RESIDUAL_LIMIT = 1e-9  # max |C - sum sqrt(lambda) f g^H|, recomputed here
K_RTOL = 1e-9  # relative error of K against numpy, the paper or the closed form
DG_LAMBDA_ATOL = 1e-8  # each closed-form double-Gaussian eigenvalue above 1e-6
ROUNDTRIP_ATOL = 1e-12  # parsed amplitudes against the generated ones
# The table prints six significant digits.
TABLE_TOL = 1e-5

# Every check name, so that a result lists zeros too.
CHECK_NAMES = (
    "exit_code", "rejected", "refused", "crash", "parse_output",
    "eig_order", "eig_negative", "eig_sum", "modes_ortho_A", "modes_ortho_B",
    "residual", "schmidt_number", "dg_spectrum", "roundtrip", "comparison",
)
# The one check a report of the seed commit fails through a defect ROADMAP
# documents: the Greek modes are built as adj(C) f / sqrt(lambda) from the
# Gram product, so on an ill-conditioned state they come out non-orthonormal
# while the reconstruction residual stays below the program's 1e-9 gate
# (3 of about 1,400 random square-json states, at 1.0e-9 to 3.1e-9).
# Such an operation fails, as a refusal does, but is not a wrong answer.
KNOWN_DEFECT_CHECKS = frozenset({"modes_ortho_B"})


class Tally:
    """Operations attempted and failed, failures per check, and wrong answers.

    A wrong answer is a report the program gave as a success for a valid
    state that fails a check other than KNOWN_DEFECT_CHECKS. Refusing a
    valid state, accepting an invalid one, crashing or failing only a known
    defect check fails the operation without being a wrong answer.
    """

    def __init__(self):
        self.failures = Counter({name: 0 for name in CHECK_NAMES})
        self.attempted = 0
        self.failed = 0
        self.wrong_answers = 0

    def record(self, failed_checks: list[str], answered: bool) -> None:
        """Count one operation; ``answered`` means the program claimed success."""
        self.attempted += 1
        self.failures.update(failed_checks)
        if failed_checks:
            self.failed += 1
            if answered and not KNOWN_DEFECT_CHECKS.issuperset(failed_checks):
                self.wrong_answers += 1

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong_answers": self.wrong_answers,
            "failures": dict(self.failures),
        }


def _max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def check_spectrum(lambdas, k_value: float, ref: dict, tol: float) -> list[str]:
    failed = []
    lam = np.asarray(lambdas, dtype=float)
    if not np.all(np.isfinite(lam)) or lam.size == 0:
        return ["eig_order", "eig_negative", "eig_sum", "schmidt_number"]
    if np.any(np.diff(lam) > ROUNDOFF_TOL):
        failed.append("eig_order")
    if np.any(lam < -ROUNDOFF_TOL):
        failed.append("eig_negative")
    if abs(float(np.sum(lam)) - 1.0) > max(SUM_TOL, tol * lam.size):
        failed.append("eig_sum")
    if not abs(k_value - ref["K"]) <= max(K_RTOL, tol) * ref["K"]:
        failed.append("schmidt_number")
    exact = ref.get("lambdas")
    if exact is not None:
        got = np.zeros(len(exact))
        got[: min(len(exact), lam.size)] = lam[: len(exact)]
        if _max_abs(got - exact) > max(DG_LAMBDA_ATOL, tol):
            failed.append("dg_spectrum")
    return failed


def check_modes(lambdas, latin: list[dict], greek: list[dict], ref: dict, tol: float) -> list[str]:
    """Orthonormality of both sides and the residual of rebuilding C from the modes."""
    if len(latin) != len(greek) or not latin:
        return ["modes_ortho_A", "modes_ortho_B", "residual"]
    try:
        f = np.array([[m[label] for m in latin] for label in ref["latin"]], dtype=complex)
        g = np.array([[m[label] for m in greek] for label in ref["greek"]], dtype=complex)
    except KeyError:
        return ["parse_output"]
    failed = []
    eye = np.eye(len(latin))
    if not _max_abs(f.conj().T @ f - eye) <= max(ORTHO_TOL, tol):
        failed.append("modes_ortho_A")
    if not _max_abs(g.conj().T @ g - eye) <= max(ORTHO_TOL, tol):
        failed.append("modes_ortho_B")
    weights = np.sqrt(np.clip(np.asarray(lambdas[: len(latin)], dtype=float), 0.0, None))
    if not _max_abs((f * weights) @ g.conj().T - ref["amps"]) <= max(RESIDUAL_LIMIT, tol):
        failed.append("residual")
    return failed


def _pair(entry) -> complex:
    return complex(entry[0], entry[1])


def check_report_doc(doc: dict, ref: dict) -> list[str]:
    """Checks on a JSON report, as ``AnalysisReport.to_dict`` lays it out."""
    try:
        lambdas = doc["lambdas"]
        k_value = float(doc["schmidt_number"])
        latin = [{l: _pair(z) for l, z in m["components"].items()} for m in doc["latin_modes"]]
        greek = [{l: _pair(z) for l, z in m["components"].items()} for m in doc["greek_modes"]]
        claimed = float(doc["reconstruction_residual"])
    except (KeyError, TypeError, ValueError, IndexError):
        return ["parse_output"]
    failed = check_spectrum(lambdas, k_value, ref, 0.0)
    failed += check_modes(lambdas, latin, greek, ref, 0.0)
    if not claimed <= RESIDUAL_LIMIT and "residual" not in failed:
        failed.append("residual")
    return failed


def check_roundtrip(doc: dict, ref: dict) -> list[str]:
    """The state embedded in the report against the generated amplitudes."""
    try:
        raw = _matrix(doc["state"]["amplitudes"])
        scale = float(doc["normalization"])
    except (KeyError, TypeError, ValueError, IndexError):
        return ["parse_output"]
    if raw.shape != ref["amps"].shape or not _max_abs(raw / scale - ref["amps"]) <= ROUNDTRIP_ATOL:
        return ["roundtrip"]
    return []


# --- table output -------------------------------------------------------------

_REAL = r"-?(?:\d+(?:\.\d*)?(?:e[+-]\d+)?|inf|nan)"
_COMPLEX_RE = re.compile(rf"^\(({_REAL})([+-])({_REAL})i\)$")


def parse_table_number(text: str) -> complex:
    """One coefficient as the CLI's table prints it: x, yi or (x+yi)."""
    match = _COMPLEX_RE.match(text)
    if match:
        sign = 1.0 if match.group(2) == "+" else -1.0
        return complex(float(match.group(1)), sign * float(match.group(3)))
    if text.endswith("i"):
        return complex(0.0, float(text[:-1]))
    return complex(float(text))


def _mode_components(line: str) -> dict:
    out = {}
    for index, part in enumerate(re.split(r" (?=[+-] )", line)):
        sign = 1.0
        if index > 0:
            sign = -1.0 if part[0] == "-" else 1.0
            part = part[2:]
        elif part.startswith("-"):
            sign, part = -1.0, part[1:]
        coef, _, label = part.partition("|")
        out[label.rstrip(">")] = sign * parse_table_number(coef)
    return out


def check_report_table(text: str, ref: dict) -> list[str]:
    """Checks on the table report, at the six digits it prints."""
    fields, latin, greek = {}, [], []
    try:
        for line in text.splitlines():
            if line.startswith("  A: "):
                latin.append(_mode_components(line[5:]))
            elif line.startswith("  B: "):
                greek.append(_mode_components(line[5:]))
            elif ": " in line and not line.startswith("mode "):
                key, _, value = line.partition(": ")
                fields[key] = value
        lambdas = [float(v) for v in fields["eigenvalues"].split(", ")]
        k_value = float(fields["schmidt number K"])
        claimed = float(fields["reconstruction residual"])
    except (KeyError, ValueError, IndexError):
        return ["parse_output"]
    failed = check_spectrum(lambdas, k_value, ref, TABLE_TOL)
    failed += check_modes(lambdas, latin, greek, ref, TABLE_TOL)
    if not claimed <= RESIDUAL_LIMIT and "residual" not in failed:
        failed.append("residual")
    return failed


# --- the classical-versus-Bell comparison ------------------------------------------

_HALF_IDENTITY = np.eye(2) / 2
_V_PROJECTOR = np.diag([0.0, 1.0])


def _check_comparison_entry(name: str, matrix, reduced_a, reduced_b, probability, conditional, tol) -> bool:
    coherence = 0.5 if name == "quantum" else 0.0
    return (
        abs(matrix[1, 2] - coherence) <= tol
        and _max_abs(reduced_a - _HALF_IDENTITY) <= tol
        and _max_abs(reduced_b - _HALF_IDENTITY) <= tol
        and abs(probability - 0.5) <= tol
        and _max_abs(conditional - _V_PROJECTOR) <= tol
        # K of the Bell state is 1 / tr(rho_A^2) = 2.
        and abs(1.0 / np.trace(reduced_a @ reduced_a).real - 2.0) <= tol
    )


def _matrix(rows) -> np.ndarray:
    return np.array([[_pair(z) for z in row] for row in rows])


def check_comparison_doc(doc: dict) -> list[str]:
    try:
        for name in ("classical", "quantum"):
            entry = doc["comparison"][name]
            conditional = entry["conditional_on_H"]
            ok = _check_comparison_entry(
                name, _matrix(entry["matrix"]), _matrix(entry["reduced_A"]),
                _matrix(entry["reduced_B"]), float(conditional["probability"]),
                _matrix(conditional["matrix"]), ROUNDOFF_TOL,
            )
            if not ok:
                return ["comparison"]
    except (KeyError, TypeError, ValueError, IndexError):
        return ["parse_output"]
    return []


def check_comparison_table(text: str) -> list[str]:
    blocks, current, probabilities = [], None, []
    try:
        for line in text.splitlines():
            if line.startswith("  "):
                current.append([parse_table_number(t) for t in line.split()])
            elif line.endswith(":"):
                current = []
                blocks.append(current)
                found = re.search(r"\(probability (\S+)\):$", line)
                if found:
                    probabilities.append(float(found.group(1)))
        matrices = [np.array(b) for b in blocks]
        if len(matrices) != 8 or len(probabilities) != 2:
            return ["parse_output"]
        for index, name in enumerate(("classical", "quantum")):
            mats = matrices[4 * index: 4 * index + 4]
            if not _check_comparison_entry(name, *mats[:3], probabilities[index], mats[3], TABLE_TOL):
                return ["comparison"]
    except (TypeError, ValueError, IndexError, AttributeError):
        return ["parse_output"]
    return []


def check_cli_output(item: dict, code: int, stdout: str) -> tuple[list[str], bool]:
    """Checks for one CLI run; returns (failed checks, whether it claimed success)."""
    if item["expect"] == "reject":
        return ([] if code == 2 else ["exit_code"]), False
    if code != 0:
        return [{2: "rejected", 3: "refused"}.get(code, "crash")], False
    comparison = item["expect"] == "comparison"
    if item["format"] == "table":
        if comparison:
            return check_comparison_table(stdout), True
        return check_report_table(stdout, item["ref"]), True
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["parse_output"], True
    if comparison:
        return check_comparison_doc(doc), True
    return check_report_doc(doc, item["ref"]), True
