import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from schmidt import cli
from schmidt.catalog import (EXPRESSIONS, bell_state, example_state,
                             opposite_polarization_mixture)
from schmidt.density import conditional_state, partial_trace, pure_density
from schmidt.errors import ConvergenceError, ShapeError, ValidationError
from schmidt.modes import (BipartitePureState, SchmidtDecomposition, entanglement_entropy,
                           is_entangled, reconstruct, schmidt_decompose, schmidt_number)

PSI0 = EXPRESSIONS["psi0"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


# A number with the sign in front of it; below 1e-12 in magnitude it is
# roundoff (or the reconstruction residual) and may differ between BLAS builds.
NUMBER = re.compile(r"(?:[-+] ?)?\b\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def mask_roundoff(line):
    return NUMBER.sub(
        lambda m: "~" if abs(float(m.group().replace(" ", ""))) < 1e-12 else m.group(), line
    )


def child_env(**extra):
    """The environment of a child Python that imports this checkout's package."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    env.update(extra)
    return env


class TestAnalyze:
    def test_demo_expression_table(self, capsys):
        code, out, err = run(capsys, "analyze", "--expr", PSI0)
        assert code == 0
        assert "schmidt number K: 1.18033" in out
        assert "eigenvalues: 0.916667, 0.0833333, 0" in out
        assert "entangled: yes" in out
        assert err == ""

    def test_product_state_is_not_entangled(self, capsys):
        code, out, _ = run(capsys, "analyze", "--expr", "|a>(x)|alpha>")
        assert code == 0
        assert "schmidt number K: 1" in out
        assert "entangled: no" in out

    def test_json_report_fields(self, capsys):
        doc = run_json(capsys, "analyze", "--expr", PSI0)
        assert doc["input"]["format"] == "ket-v1"
        assert doc["input"]["expression"] == PSI0
        assert doc["normalization"] == pytest.approx(np.sqrt(12.0))
        assert doc["lambdas"] == pytest.approx([11 / 12, 1 / 12, 0.0], abs=1e-10)
        assert doc["schmidt_number"] == pytest.approx(144 / 122, abs=1e-9)
        assert doc["rank"] == 2
        assert doc["entangled"] is True
        assert doc["reconstruction_residual"] <= 1e-9
        assert doc["state"]["format"] == cli.STATE_FORMAT
        modes = doc["latin_modes"]
        assert len(modes) == 2
        assert modes[0]["components"]["a"] == pytest.approx([1 / np.sqrt(2), 0.0], abs=1e-9)

    def test_table_and_json_agree_at_printed_precision(self, capsys):
        doc = run_json(capsys, "analyze", "--expr", PSI0)
        code, table, _ = run(capsys, "analyze", "--expr", PSI0)
        assert code == 0
        assert f"schmidt number K: {doc['schmidt_number']:.6g}" in table
        assert f"entanglement entropy: {doc['entropy']:.6g} bits" in table
        assert f"normalization: {doc['normalization']:.6g}" in table

    def test_no_modes_flag(self, capsys):
        code, out, _ = run(capsys, "analyze", "--expr", PSI0, "--no-modes")
        assert code == 0
        assert "mode 1" not in out
        doc = run_json(capsys, "analyze", "--expr", PSI0, "--no-modes")
        assert "latin_modes" not in doc

    def test_parse_error_exits_2_with_position(self, capsys):
        code, out, err = run(capsys, "analyze", "--expr", "(2|a> + |b>")
        assert code == 2
        assert out == ""
        assert "position" in err

    def test_overflowing_coefficient_exits_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--expr", "1e999|a>(x)|b>")
        assert code == 2
        assert out == ""
        assert "scalar '1e999' overflows the float range (position 1)" in err

    @pytest.mark.parametrize("expr,where", [
        ("|c>(x)|d> + 1e200(1e200|a>)(x)|b>", "term 2 at |a>(x)|b>"),
        # a product overflow is named before an earlier sum overflow
        ("1e308|a>(x)|b> + 1e308|a>(x)|b> + 1e200(1e200|c>)(x)|d>", "term 3 at |c>(x)|d>"),
        ("1e200(1e200|a>)(x)|b> + 1e300(1e300|c>)(x)|d>", "term 1 at |a>(x)|b>"),
    ], ids=["later-term", "after-a-sum-overflow", "first-of-two"])
    def test_overflowing_coefficient_product_exits_2(self, capsys, expr, where):
        code, out, err = run(capsys, "analyze", "--expr", expr)
        assert code == 2
        assert out == ""
        assert f"coefficient product of {where} overflows the float range" in err
        assert "nan" not in err

    def test_overflowing_coefficient_sum_exits_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--expr", "1e308|a>(x)|b> + 1e308|a>(x)|b>")
        assert code == 2
        assert out == ""
        assert "the coefficients of |a>(x)|b> sum beyond the float range" in err
        assert "inf" not in err

    def test_zero_mode_component_prints_without_sign(self, capsys):
        code, out, _ = run(capsys, "analyze", "--expr", "|a>(x)|b> + 2|a>(x)|d> + |c>(x)|e>")
        assert code == 0
        assert "  B: 0|b> + 0|d> + 1|e>" in out
        assert "-0" not in out

    def test_tiny_coefficients_are_a_bell_state(self, capsys):
        doc = run_json(capsys, "analyze", "--expr", "1e-200|a>(x)|b> + 1e-200|c>(x)|d>")
        assert doc["schmidt_number"] == pytest.approx(2.0, abs=1e-12)
        assert doc["normalization"] == pytest.approx(np.sqrt(2) * 1e-200, rel=1e-15)

    def test_strict_norm_rejects_scaled_expression(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--expr", PSI0, "--strict-norm")
        assert code == 2
        assert "norm" in err
        normalized = "1/sqrt(2)|a>(x)|alpha> + 1/sqrt(2)|b>(x)|beta>"
        code, out, _ = run(capsys, "analyze", "--expr", normalized, "--strict-norm")
        assert code == 0
        assert "schmidt number K: 2" in out
        # the file and example paths go through the same check
        path = tmp_path / "psi0.json"
        path.write_text(json.dumps(cli.state_to_doc(cli.parse_state(PSI0))))
        for argv in (("analyze", "--file", str(path)), ("examples", "psi0")):
            code, out, err = run(capsys, *argv, "--strict-norm")
            assert code == 2
            assert out == ""
            assert err == ("error: strict normalization requested but the amplitude norm "
                           f"is {float(np.sqrt(12.0))!r}\n")
            code, _, _ = run(capsys, *argv)
            assert code == 0
        # an input error that the strict check would also report comes first
        code, _, err = run(capsys, "analyze", "--expr", "0|a>(x)|b>", "--strict-norm")
        assert code == 2
        assert "all-zero amplitudes" in err

    def test_lapack_failure_exits_3(self, capsys, monkeypatch):
        def fail(a, full_matrices=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        code, out, err = run(capsys, "analyze", "--expr", PSI0)
        assert code == 3
        assert out == ""
        assert "numerical error" in err
        assert "np.linalg.svd" in err and "2x3" in err and "did not converge" in err

    def test_nan_mode_component_exits_3(self, capsys, monkeypatch):
        # The decomposition refuses a NaN in LAPACK's factors before any
        # report is built.
        svd = np.linalg.svd

        def planted_nan(a, full_matrices=True):
            u, s, vh = svd(a, full_matrices=full_matrices)
            u[0, 0] = np.nan
            return u, s, vh

        monkeypatch.setattr(np.linalg, "svd", planted_nan)
        code, out, err = run(capsys, "examples", "psi0")
        assert (code, out) == (3, "")
        assert err == ("numerical error: np.linalg.svd returned a non-finite factor "
                       "of the 2x3 amplitude matrix\n")

    def test_rank_threshold_flag_is_a_noise_floor(self, capsys):
        # a sane adjustment leaves the report unchanged
        doc = run_json(capsys, "analyze", "--expr", PSI0, "--rank-threshold", "1e-6")
        assert doc["rank"] == 2
        # a threshold that truncates real modes makes the reconstruction
        # check fail, and the report is refused rather than emitted wrong
        code, _, err = run(capsys, "analyze", "--expr", PSI0, "--rank-threshold", "0.5")
        assert code == 3
        assert "reconstruction residual" in err

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_rank_threshold_exits_2(self, capsys, threshold):
        code, out, err = run(capsys, "analyze", "--expr", PSI0, "--rank-threshold", threshold)
        assert code == 2
        assert out == ""
        assert f"rank threshold must be finite and positive, got {threshold}" in err


class TestFileInput:
    def test_state_document(self, capsys, tmp_path):
        doc = {
            "format": "schmidt-state-v1",
            "latin_labels": ["a", "b"],
            "greek_labels": ["alpha", "beta", "gamma"],
            "amplitudes": [
                [[2, 0], [1, 0], [1, 0]],
                [[1, 0], [2, 0], [1, 0]],
            ],
        }
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "analyze", "--file", str(path))
        assert code == 0
        assert "schmidt number K: 1.18033" in out

    def test_four_level_state_from_file(self, capsys, tmp_path):
        path = tmp_path / "psi2.json"
        path.write_text(json.dumps(cli.state_to_doc(example_state("psi2"))))
        doc = run_json(capsys, "analyze", "--file", str(path))
        assert doc["schmidt_number"] == pytest.approx(196 / 106, abs=1e-9)
        assert doc["rank"] == 2

    # 3|a>(x)|x> + 2|b>(x)|y> + (|b> - i|c>)(x)|z>, whose coefficients do not
    # survive a rescaling to unit norm and back bit for bit.
    UNEVEN = {
        "format": "schmidt-state-v1",
        "latin_labels": ["a", "b", "c"],
        "greek_labels": ["x", "y", "z"],
        "amplitudes": [[[3, 0], [0, 0], [0, 0]],
                       [[0, 0], [2, 0], [1, 0]],
                       [[0, 0], [0, 0], [0, -1]]],
    }

    @pytest.mark.parametrize("source", ["psi3", "file"])
    def test_report_reingestion_reproduces_the_report(self, capsys, tmp_path, source):
        if source == "psi3":
            first = run_json(capsys, "analyze", "--expr", EXPRESSIONS["psi3"])
        else:
            state_path = tmp_path / "state.json"
            state_path.write_text(json.dumps(self.UNEVEN))
            first = run_json(capsys, "analyze", "--file", str(state_path))
        path = tmp_path / "report.json"
        path.write_text(json.dumps(first))
        second = run_json(capsys, "analyze", "--file", str(path))
        assert second == first

    def test_wrong_format_field_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        code, _, err = run(capsys, "analyze", "--file", str(path))
        assert code == 2
        assert "schmidt-state-v1" in err

    def test_malformed_amplitudes_rejected(self, capsys, tmp_path):
        doc = {
            "format": "schmidt-state-v1",
            "latin_labels": ["a"],
            "greek_labels": ["b"],
            "amplitudes": [["oops"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "analyze", "--file", str(path))
        assert code == 2

    @pytest.mark.parametrize("entry", [[1, 0, 5], [1], "10", None, [1, "0"], [True, False],
                                       [1.0, False]])
    def test_amplitude_entry_must_be_a_pair_of_numbers(self, capsys, tmp_path, entry):
        doc = {
            "format": "schmidt-state-v1",
            "latin_labels": ["a", "b"],
            "greek_labels": ["c", "d"],
            "amplitudes": [[[1, 0], [0, 0]], [[0, 0], entry]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert code == 2
        assert out == ""
        assert f"entry at row 1, column 1 is not an [re, im] pair of numbers: {entry!r}" in err

    @pytest.mark.parametrize("labels,message", [
        ("ab", "latin_labels is not an array of strings: 'ab'"),
        (None, "latin_labels is not an array of strings: None"),
        ({"x": 1}, "latin_labels is not an array of strings: {'x': 1}"),
        (["a", None], "Latin label 1 is not a ket-v1 label (a letter, then letters, digits "
                      "or '_'): None"),
        (["a", {"x": 1}], "Latin label 1 is not a ket-v1 label (a letter, then letters, digits "
                          "or '_'): {'x': 1}"),
        ([1, "b"], "Latin label 0 is not a ket-v1 label (a letter, then letters, digits "
                   "or '_'): 1"),
    ], ids=["string", "null", "object", "null-entry", "object-entry", "number-entry"])
    def test_labels_must_be_arrays_of_strings(self, capsys, tmp_path, labels, message):
        for side, other in (("latin", "greek"), ("greek", "latin")):
            doc = {
                "format": "schmidt-state-v1",
                f"{side}_labels": labels,
                f"{other}_labels": ["c", "d"],
                "amplitudes": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            }
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "analyze", "--file", str(path))
            assert code == 2
            assert out == ""
            assert message.replace("latin", side).replace("Latin", side.capitalize()) in err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",  # not UTF-8
        b"[" * 100000,  # nested deeper than the JSON parser's recursion allows
        b"[" + b"1" * 5000 + b"]",  # more digits than int() converts
    ], ids=["not-utf8", "deep-nesting", "long-integer"])
    def test_unreadable_json_rejected(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert code == 2
        assert out == ""
        assert f"error: {path} is not valid JSON: " in err

    @pytest.mark.parametrize("entry", [[10**330, 0], [0, -10**330]], ids=["real", "imag"])
    def test_integer_beyond_float_range_rejected(self, capsys, tmp_path, entry):
        doc = {
            "format": "schmidt-state-v1",
            "latin_labels": ["a", "b"],
            "greek_labels": ["c", "d"],
            "amplitudes": [[[1, 0], [0, 0]], [[0, 0], entry]],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert code == 2
        assert out == ""
        assert "amplitude entry at row 1, column 1 overflows the float range" in err

    @pytest.mark.parametrize("amplitudes,message", [
        ([[[1, 0]], [[1, 0], [2, 0]]], "amplitude row 1 has length 2, row 0 has length 1"),
        ([[[1, 0], [2, 0]], [[1, 0], [2, 0]], [[1, 0]]],
         "amplitude row 2 has length 1, row 0 has length 2"),
        (5, "amplitudes must be an array of rows"),
        ([5, 6], "amplitudes must be an array of rows"),
        (None, "amplitudes must be an array of rows"),
        ("ab", "amplitudes must be an array of rows"),
        (["ab", "cd"], "amplitudes must be an array of rows"),
        ({"x": 1}, "amplitudes must be an array of rows"),
        ([""], "amplitudes must be an array of rows"),
        # Of several faults, the first in row-major order is named, a row's
        # length before its entries.
        ([[[1, 0], [False, 1]], [[0.5]]],
         "amplitude entry at row 0, column 1 is not an [re, im] pair of numbers: [False, 1]"),
        ([[[1, 0]], [[1, 0], [True, 0]]], "amplitude row 1 has length 2, row 0 has length 1"),
        ([[[10**330, 0], [True, 0]]],
         "amplitude entry at row 0, column 0 overflows the float range"),
        ([[[True, 0], [10**330, 0]]],
         "amplitude entry at row 0, column 0 is not an [re, im] pair of numbers: [True, 0]"),
    ], ids=["ragged", "ragged-last", "number", "array-of-numbers", "null", "string",
            "array-of-strings", "object", "array-of-empty-string",
            "entry-before-later-row-length", "row-length-before-its-entries",
            "overflow-before-later-boolean", "boolean-before-later-overflow"])
    def test_malformed_amplitude_rows_rejected(self, capsys, tmp_path, amplitudes, message):
        # The amplitudes are read before their shape is checked against the labels.
        doc = {"format": "schmidt-state-v1", "latin_labels": ["a", "b"],
               "greek_labels": ["c", "d"], "amplitudes": amplitudes}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: malformed schmidt-state-v1 document: {message}\n"

    @pytest.mark.parametrize("amplitudes,message", [
        ([], "amplitude matrix is 0x0 but there are 2 Latin and 2 Greek labels"),
        ([[]], "amplitude matrix is 1x0 but there are 2 Latin and 2 Greek labels"),
        ([[[0, 0]]], "amplitude matrix is 1x1 but there are 2 Latin and 2 Greek labels"),
    ], ids=["no-rows", "empty-row", "one-zero-entry"])
    def test_shape_checked_before_values(self, capsys, tmp_path, amplitudes, message):
        doc = {"format": "schmidt-state-v1", "latin_labels": ["a", "b"],
               "greek_labels": ["c", "d"], "amplitudes": amplitudes}
        path = tmp_path / "mis-shaped.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_nan_amplitude_rejected(self, capsys, tmp_path):
        # json.load accepts the bare NaN literal
        path = tmp_path / "nan.json"
        path.write_text('{"format": "schmidt-state-v1", "latin_labels": ["a", "b"], '
                        '"greek_labels": ["c"], "amplitudes": [[[1, 0]], [[NaN, 0]]]}')
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert code == 2
        assert out == ""
        assert "(1, 0) of |b>(x)|c> is not finite: (nan+0j)" in err

    def test_invalid_json_rejected(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "analyze", "--file", str(path))
        assert code == 2
        assert "JSON" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--file", str(tmp_path / "absent.json"))
        assert code == 2


class TestExamples:
    def test_sign_flipped_example(self, capsys):
        doc = run_json(capsys, "examples", "psi1")
        assert doc["lambdas"] == pytest.approx([0.75, 0.25, 0.0], abs=1e-10)
        assert doc["schmidt_number"] == pytest.approx(1.6, abs=1e-9)

    def test_four_level_example_answers_the_rank_question(self, capsys):
        doc = run_json(capsys, "examples", "psi2")
        assert doc["rank"] == 2
        assert doc["schmidt_number"] == pytest.approx(196 / 106, abs=1e-9)

    def test_complex_example(self, capsys):
        doc = run_json(capsys, "examples", "psi3")
        assert doc["schmidt_number"] == pytest.approx(144 / 74, abs=1e-9)

    def test_bell_comparison_reduces_to_maximal_mixture(self, capsys):
        doc = run_json(capsys, "examples", "bell")
        comparison = doc["comparison"]
        for side in ("classical", "quantum"):
            for reduced in ("reduced_A", "reduced_B"):
                matrix = np.array(
                    [[complex(re, im) for re, im in row] for row in comparison[side][reduced]]
                )
                np.testing.assert_allclose(matrix, np.eye(2) / 2, atol=1e-10)
            cond = comparison[side]["conditional_on_H"]
            assert cond["probability"] == pytest.approx(0.5, abs=1e-12)

    def test_classical_comparison_table_mentions_both_matrices(self, capsys):
        code, out, _ = run(capsys, "examples", "classical")
        assert code == 0
        assert "rho_CL" in out and "rho_QM" in out

    @pytest.mark.parametrize("name", ["bell", "classical"])
    @pytest.mark.parametrize("flags", [["--rank-threshold", "nan"], ["--rank-threshold", "-1"],
                                       ["--rank-threshold", "1e-10"], ["--strict-norm"],
                                       ["--no-modes"]], ids=lambda flags: " ".join(flags))
    def test_comparison_rejects_report_flags(self, capsys, name, flags):
        for format_ in ("table", "json"):
            code, out, err = run(capsys, "examples", name, *flags, "--format", format_)
            assert code == 2
            assert out == ""
            assert f"does not use {flags[0]}" in err

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_exits_quietly(self, unbuffered):
        env = child_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
        child = subprocess.Popen([sys.executable, "-m", "schmidt.cli", "examples", "psi0"],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        child.stdout.close()  # before the child can write its report
        err = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == cli.EXIT_CLOSED_STDOUT == 141
        assert err == b""

    @pytest.mark.parametrize("build,name,choices", [
        (example_state, "psi9", "['psi0', 'psi1', 'psi2', 'psi3']"),
        (bell_state, "phi", "['phi_minus', 'phi_plus', 'psi_minus', 'psi_plus']"),
    ])
    def test_unknown_catalog_name_lists_the_choices(self, build, name, choices):
        with pytest.raises(KeyError, match=re.escape(f"{name!r}; choose from {choices}")):
            build(name)

    def test_unknown_example_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["examples", "psi9"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "psi0" in err  # argparse lists the valid choices


class TestProcessEntry:
    """``run()``, the entry of ``python -m schmidt.cli`` and the console script."""

    @pytest.mark.parametrize("argv,expected_code", [
        (["examples", "psi0"], 0),
        (["examples", "psi0", "--format", "json"], 0),
        (["analyze", "--expr", "|a>(x)|b> |c>"], 2),
        (["examples", "psi0", "--rank-threshold", "0.5"], 3),
        (["examples", "psi9"], 2),
        (["--help"], 0),
    ], ids=["table", "json", "bad-expr", "numeric-error", "argparse-error", "help"])
    def test_module_run_matches_main(self, capsys, monkeypatch, argv, expected_code):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal width
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on --help and on a bad choice
            code = exc.code
        captured = capsys.readouterr()
        child = subprocess.run([sys.executable, "-m", "schmidt.cli", *argv], capture_output=True,
                               text=True, env=child_env(COLUMNS="80"), timeout=60)
        assert code == expected_code
        assert (child.returncode, child.stdout, child.stderr) == (code, captured.out, captured.err)

    def test_atexit_handlers_run_after_the_freeze(self):
        # run() ends through sys.exit, not os._exit, so atexit handlers (coverage's,
        # for one) still run, and they see the heap frozen.
        script = ("import atexit, gc, sys\n"
                  "atexit.register(lambda: print('freeze count', gc.get_freeze_count(),"
                  " file=sys.stderr))\n"
                  "from schmidt import cli\n"
                  "sys.argv[1:] = ['examples', 'psi0', '--no-modes']\n"
                  "cli.run()\n")
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=child_env(), timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout.startswith("input (ket-v1): ")
        label, _, count = child.stderr.strip().rpartition(" ")
        assert label == "freeze count"
        assert int(count) > 0

    def test_console_script_is_run(self):
        # Read as text: tomllib is not in Python 3.10.
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.strip() == 'schmidt = "schmidt.cli:run"'


class TestBenchmarkHooks:
    def test_the_benchmark_tracer_finds_every_name_it_wraps(self):
        # perfbench's instrument() looks the package's functions up by name and
        # patches them, so it runs in a child; a name the package lost fails it.
        # A report stage that stopped calling through the cli-level names would
        # fall out of the cli.report span, or out of the trace.
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        env = child_env()
        env["PYTHONPATH"] = os.pathsep.join([str(perfbench), env["PYTHONPATH"]])
        script = ("import json, sys, tracing\n"
                  "tracer = tracing.Tracer()\n"
                  "tracing.instrument(tracer)\n"
                  "tracer.begin_op()\n"
                  "from schmidt import catalog, cli\n"
                  "code = cli.main(['examples', 'psi3', '--format', 'json'])\n"
                  "tracer.begin_op()\n"
                  "cli.build_report(cli.parse_state(catalog.EXPRESSIONS['psi0']))\n"
                  "print(json.dumps(tracer.ops[-1]))\n"
                  "sys.exit(code)\n")
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=env, timeout=60)
        assert child.returncode == 0, child.stderr
        report, spans = map(json.loads, child.stdout.rstrip("\n").rsplit("\n", 1))
        assert report["rank"] == 2
        top = [index for index, span in enumerate(spans) if span[0] == "cli.report"]
        assert len(top) == 1 and spans[top[0]][3] == -1
        assert [name for name, _, _, parent in spans if parent == top[0]] == [
            "modes.decompose", "modes.reconstruct", "ketparse.format",
            "modes.summary", "modes.summary", "modes.summary"]


class TestReportMatchesTheLibrary:
    """The CLI prints the library's arrays, without reordering or rounding them."""

    LATIN = tuple(f"m{i}" for i in range(5))
    GREEK = tuple(f"s{j}" for j in range(7))

    @pytest.fixture
    def state_file(self, tmp_path):
        rng = np.random.default_rng(11)
        amps = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        state = BipartitePureState.from_amplitudes(self.LATIN, self.GREEK, amps)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(cli.state_to_doc(state)))
        return str(path), schmidt_decompose(cli._load_state_file(str(path)))

    def test_summaries_are_derived_not_passed(self):
        state = example_state("psi2")
        d = schmidt_decompose(state)
        assert list(inspect.signature(cli.AnalysisReport).parameters) == ["state", "decomposition"]
        report = cli.AnalysisReport(state, d)
        assert report.expression == cli.format_state(state)
        assert report.lambdas == (*d.lambdas.tolist(), 0.0, 0.0)
        assert report.schmidt_number == schmidt_number(d)
        assert report.entropy == entanglement_entropy(d)
        assert report.entangled is is_entangled(d) is True
        assert report.rank == d.rank == 2
        for summary in ("reconstruction_residual", "expression", "lambdas", "schmidt_number",
                        "entropy", "entangled"):
            with pytest.raises(TypeError):
                cli.AnalysisReport(state, d, **{summary: getattr(report, summary)})

    def test_residual_is_measured_on_the_modes_given(self):
        # Eigenvalues off by 1e-12 rebuild the Bell state to within about 7e-13,
        # and the report holds that residual, not a value passed in.
        state = bell_state()
        d = SchmidtDecomposition([0.5 + 1e-12, 0.5 - 1e-12], np.eye(2), [[0, 1], [1, 0]])
        report = cli.AnalysisReport(state, d)
        residual = float(np.max(np.abs(reconstruct(d) - state.amplitudes)))
        assert 0.0 < report.reconstruction_residual == residual <= cli.RESIDUAL_LIMIT
        assert report.to_dict()["reconstruction_residual"] == residual

    def test_modes_that_do_not_rebuild_the_state_are_refused(self):
        # The Bell state's labels with the modes of the product state |H>(x)|H>.
        d = SchmidtDecomposition([1.0, 0.0], [[1], [0]], [[1], [0]])
        with pytest.raises(ConvergenceError,
                           match=r"^reconstruction residual 1\.000e\+00 exceeds 1e-09$"):
            cli.AnalysisReport(bell_state(), d)

    def test_nan_mode_is_refused(self):
        # A NaN in the modes would make the residual NaN; the record refuses it
        # before any report sees it.
        with pytest.raises(ValidationError,
                           match=r"^latin_modes entry \(0, 0\) is not a number: \(nan\+0j\)$"):
            SchmidtDecomposition([0.5, 0.5], [[np.nan, 0], [0, 1]], [[0, 1], [1, 0]])

    def test_modes_must_fit_the_state(self):
        # One row per basis label on each side: zip would drop a surplus row.
        for latin, greek, rows in ((np.eye(3)[:, :2], np.eye(2), "3 Latin and 2 Greek"),
                                   (np.eye(2), np.eye(3)[:, :2], "2 Latin and 3 Greek")):
            with pytest.raises(ShapeError, match=f"^modes with {rows} rows for a 2 x 2 state$"):
                cli.AnalysisReport(bell_state(), SchmidtDecomposition([.5, .5], latin, greek))

    @pytest.mark.parametrize("lambdas", [[0.5, 0.3, 0.2], [1.0]])
    def test_eigenvalues_must_fit_the_state(self, lambdas):
        # One eigenvalue per row of the shorter side: the record refuses a surplus
        # one, which a report would print as an eigenvalue of the 2 x 2 state, and
        # a missing one, so no report checks the count again.
        with pytest.raises(ShapeError, match=f"^{len(lambdas)} eigenvalues for modes with 2 "
                                             "Latin and 2 Greek rows: one per row of the "
                                             "shorter side$"):
            SchmidtDecomposition(lambdas, [[1], [0]], [[0], [1]])

    def test_json_modes_are_the_decomposition_columns(self, capsys, state_file):
        path, d = state_file
        doc = run_json(capsys, "analyze", "--file", path)
        assert d.rank == 5
        for key, labels, modes in (("latin_modes", self.LATIN, d.latin_modes),
                                   ("greek_modes", self.GREEK, d.greek_modes)):
            assert len(doc[key]) == d.rank
            for s, mode in enumerate(doc[key]):
                assert mode["eigenvalue"] == d.lambdas[s]
                assert tuple(mode["components"]) == labels
                column = [complex(re, im) for re, im in mode["components"].values()]
                assert column == modes[:, s].tolist()

    def test_table_mode_lines_render_the_decomposition_columns(self, capsys, state_file):
        path, d = state_file
        code, out, _ = run(capsys, "analyze", "--file", path)
        assert code == 0

        def line(labels, column):
            text = ""
            for label, z in zip(labels, column.tolist()):
                negative = z.real < 0.0 or (z.real == 0.0 and z.imag < 0.0)
                term = f"{cli._fmt_complex(-z if negative else z)}|{label}>"
                if text:
                    text += (" - " if negative else " + ") + term
                else:
                    text = ("-" if negative else "") + term
            return text

        expected = []
        for s in range(d.rank):
            expected.append(f"mode {s + 1} (eigenvalue {cli._fmt(d.lambdas[s])}):")
            expected.append("  A: " + line(self.LATIN, d.latin_modes[:, s]))
            expected.append("  B: " + line(self.GREEK, d.greek_modes[:, s]))
        lines = out.splitlines()
        start = lines.index(expected[0])
        assert lines[start:start + 3 * d.rank] == expected

    def test_bell_comparison_matrices_are_the_library_output(self, capsys):
        doc = run_json(capsys, "examples", "bell")["comparison"]

        def pairs(m):
            return np.stack((m.real, m.imag), axis=-1).tolist()

        for name, rho in (("classical", opposite_polarization_mixture()),
                          ("quantum", pure_density(bell_state("psi_plus")))):
            entry = doc[name]
            prob, cond = conditional_state(rho, [1.0, 0.0])
            assert entry["basis"] == list(rho.basis_labels)
            assert entry["matrix"] == pairs(rho.matrix)
            assert entry["reduced_A"] == pairs(partial_trace(rho, "A").matrix)
            assert entry["reduced_B"] == pairs(partial_trace(rho, "B").matrix)
            assert entry["conditional_on_H"] == {"probability": prob, "matrix": pairs(cond.matrix)}


# Every finite part, plus the values a state must refuse or keep apart.
_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 5e-324, np.nan, np.inf, -np.inf]),
                   st.floats(-1e300, 1e300))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_every_constructed_state_round_trips(rows, cols, data):
    entries = data.draw(st.lists(st.builds(complex, _PARTS, _PARTS),
                                 min_size=rows * cols, max_size=rows * cols))
    latin = tuple(f"m{i}" for i in range(rows))
    greek = tuple(f"s{j}" for j in range(cols))
    try:
        state = BipartitePureState(latin, greek, np.reshape(entries, (rows, cols)))
    except ValidationError:  # non-finite, all-zero, or a norm beyond the float range
        return
    text = json.dumps(cli.state_to_doc(state), allow_nan=False)
    for again in (cli.parse_state(cli.format_state(state)), cli.state_from_doc(json.loads(text))):
        assert (again.latin_labels, again.greek_labels) == (latin, greek)
        np.testing.assert_allclose(again.amplitudes, state.amplitudes, rtol=0, atol=1e-12)
        assert again.norm == pytest.approx(state.norm, rel=1e-12)


# Any JSON value: integers beyond 64 bits and beyond the float range too, no NaN or infinity.
_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([2**64, -(2**63) - 1, 10**400]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8)


@st.composite
def _state_documents(draw):
    """A valid schmidt-state-v1 document, then at most one field, row, entry or the
    nesting replaced by an arbitrary JSON value."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    part = st.sampled_from([0, 1, -2]) | st.floats(-1e3, 1e3)
    doc = {"format": "schmidt-state-v1",
           "latin_labels": [f"a{i}" for i in range(rows)],
           "greek_labels": [f"b{j}" for j in range(cols)],
           "amplitudes": [[[draw(part), draw(part)] for _ in range(cols)] for _ in range(rows)]}
    value = draw(_JSON)
    where = draw(st.sampled_from(["none", "field", "row", "entry", "label", "state", "document"]))
    if where == "field":
        doc[draw(st.sampled_from(sorted(doc)))] = value
    elif where == "row":
        doc["amplitudes"][draw(st.integers(0, rows - 1))] = value
    elif where == "entry":
        doc["amplitudes"][draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = value
    elif where == "label":
        doc[draw(st.sampled_from(["latin_labels", "greek_labels"]))][0] = value
    elif where == "state":  # a report holding a state, as --format json writes it
        doc = {"input": doc, "state": value}
    elif where == "document":
        doc = value
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_state_documents(), st.sampled_from(["1e-12", "1e-300", "0.5", "0", "-1", "nan"]))
def test_any_state_document_exits_cleanly_with_a_sound_report(tmp_path, capsys, doc, threshold):
    # Whatever the file holds, the CLI prints a report that meets the invariants, or one
    # error line and nothing on stdout.
    path = tmp_path / "state.json"
    path.write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")
    for flags in ([], ["--no-modes"], ["--strict-norm"], ["--rank-threshold", threshold]):
        for output in ([], ["--format", "json"]):
            code, out, err = run(capsys, "analyze", "--file", str(path), *output, *flags)
            assert code in (0, 2, 3), (code, err)
            if code:
                assert out == "" and err.endswith("\n") and err.count("\n") == 1, err
                continue
            assert err == "" and out
            if output:
                report = json.loads(out)
                lambdas = report["lambdas"]
                assert lambdas == sorted(lambdas, reverse=True) and lambdas[-1] >= 0.0
                assert abs(math.fsum(lambdas) - 1.0) <= 1e-12
                assert report["reconstruction_residual"] <= 1e-9


class TestTableText:
    @pytest.mark.parametrize("z,number,line", [
        (1, "1", "1|a> + 1|c>"),
        (-1, "-1", "1|a> - 1|c>"),
        (1j, "1i", "1|a> + 1i|c>"),
        (-1j, "-1i", "1|a> - 1i|c>"),
        (1 + 1j, "(1+1i)", "1|a> + (1+1i)|c>"),
        (1 - 1j, "(1-1i)", "1|a> + (1-1i)|c>"),
        (-1 + 1j, "(-1+1i)", "1|a> - (1-1i)|c>"),
        (-1 - 1j, "(-1-1i)", "1|a> - (1+1i)|c>"),
        (2 - 3j, "(2-3i)", "1|a> + (2-3i)|c>"),
        (complex(-0.0, 2), "2i", "1|a> + 2i|c>"),
        (complex(2, -0.0), "2", "1|a> + 2|c>"),
        (complex(-0.0, 0.0), "0", "1|a> + 0|c>"),
        (1e-7, "1e-07", "1|a> + 1e-07|c>"),
        (3e5 + 1e20j, "(300000+1e+20i)", "1|a> + (300000+1e+20i)|c>"),
        (123456789.123456789, "1.23457e+08", "1|a> + 1.23457e+08|c>"),
        (-2.5e-300j, "-2.5e-300i", "1|a> - 2.5e-300i|c>"),
    ])
    def test_complex_number_and_mode_line(self, z, number, line):
        z = complex(z)
        assert cli._fmt_complex(z) == number
        # the mode lines of one mode, with components [1, z] on side A
        text = cli._mode_lines(["0.5"], ("a", "c"), np.array([[1], [z]]), ("b",), np.array([[1]]))
        assert text == f"mode 1 (eigenvalue 0.5):\n  A: {line}\n  B: 1|b>"

    def test_mode_lines_of_a_block_mixing_every_case(self):
        # The modes are the columns and rows of the ket-v1 test's mixed 3 x 8
        # block, one entry set to 1e300. They rebuild no state, so they go to
        # the table's mode lines directly.
        latin = ("a", "b", "c")
        greek = ("p", "q", "r", "s", "d", "t", "u", "v")
        amplitudes = np.array([
            [1, -1, 1j, 1 - 1j, 0, 0, complex(-0.0, 1), 0],
            [complex(-0.0, 0.0), 1 + 1j, -1 + 1j, -1 - 1j, complex(-0.0, 0.0), -0.0,
             -(3e5 + 2e5j), 0.5 - 1j],
            [-1j, complex(2, -0.0), 1e-300, complex(-0.0, -2.5e-300), -3j, complex(-0.0, -0.0),
             1234.56789, 0],
        ])
        greek_modes = amplitudes.T.copy()
        greek_modes[5, 0] = 1e300
        text = cli._mode_lines(["0.5", "0.3", "0.2"], latin, amplitudes[:, :3], greek, greek_modes)
        assert text.splitlines() == [
            "mode 1 (eigenvalue 0.5):",
            "  A: 1|a> + 0|b> - 1i|c>",
            "  B: 1|p> - 1|q> + 1i|r> + (1-1i)|s> + 0|d> + 1e+300|t> + 1i|u> + 0|v>",
            "mode 2 (eigenvalue 0.3):",
            "  A: -1|a> + (1+1i)|b> + 2|c>",
            "  B: 0|p> + (1+1i)|q> - (1-1i)|r> - (1+1i)|s> + 0|d> + 0|t>"
            " - (300000+200000i)|u> + (0.5-1i)|v>",
            "mode 3 (eigenvalue 0.2):",
            "  A: 1i|a> - (1-1i)|b> + 1e-300|c>",
            "  B: -1i|p> + 2|q> + 1e-300|r> - 2.5e-300i|s> - 3i|d> + 0|t> + 1234.57|u> + 0|v>",
        ]

    def test_labels_outside_the_label_rule_are_rejected(self, capsys, tmp_path):
        # Text holding such a label would not parse back, so no report is written.
        for side, index, label in (("Latin", 2, "1 a"), ("Latin", 0, "50%"),
                                   ("Greek", 1, "x>"), ("Greek", 2, "")):
            labels = {"Latin": ["a", "b", "c"], "Greek": ["x", "y", "z"]}
            labels[side][index] = label
            path = tmp_path / "labels.json"
            path.write_text(json.dumps({
                "format": "schmidt-state-v1",
                "latin_labels": labels["Latin"],
                "greek_labels": labels["Greek"],
                "amplitudes": [[[3, 0], [0, 0], [0, 0]], [[0, 0], [2, 0], [0, 0]],
                               [[0, 0], [0, 0], [0, -1]]],
            }))
            code, out, err = run(capsys, "analyze", "--file", str(path))
            assert (code, out) == (2, "")
            assert err == (f"error: {side} label {index} is not a ket-v1 label "
                           f"(a letter, then letters, digits or '_'): {label!r}\n")

    def test_padded_eigenvalue_line(self):
        state = BipartitePureState.from_amplitudes(
            ("a", "c"), ("b", "d", "e", "f", "g"), [[1, 0, 2, 0, 1], [0, 3, 0, 1j, 0]]
        )
        lines = cli.render_report(cli.build_report(state)).splitlines()
        assert lines[2] == "eigenvalues: 0.625, 0.375, 0, 0, 0"
        assert lines[7] == "mode 1 (eigenvalue 0.625):"


GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cli" / "cases.json").read_text(encoding="utf-8"))


def assert_json_matches(actual, expected, path="report"):
    """The same JSON value key for key, each float within 1e-12 (relative above 1)."""
    assert type(actual) is type(expected), path
    if isinstance(expected, dict):
        assert list(actual) == list(expected), path
        for key, value in expected.items():
            assert_json_matches(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for index, (got, value) in enumerate(zip(actual, expected)):
            assert_json_matches(got, value, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-12), (path, actual)
    else:
        assert actual == expected, path


class TestGoldenOutputs:
    """Every case of tests/golden/cli/cases.json through ``cli.main``: its exit code
    and stderr exactly, and its stdout against the file it names under
    tests/golden (``regen.py`` there rewrites them). A case's section says how
    stdout is compared: a report table after ``mask_roundoff``, JSON through
    ``assert_json_matches``, and any other text (help, the comparison table,
    whose values are all 0, 0.5 or 1, and the empty stdout of a refusal) exactly."""

    @staticmethod
    def run_case(capsys, monkeypatch, case):
        monkeypatch.chdir(GOLDEN / "input")  # argv paths are relative to it
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal width
        try:
            code = cli.main(case["argv"])
        except SystemExit as exc:  # argparse exits on --help and on a bad choice
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, err) == (case["exit"], case["stderr"])
        return out, (GOLDEN / case["stdout"]).read_text(encoding="utf-8") if case["stdout"] else ""

    @pytest.mark.parametrize("name", CASES["table"])
    def test_table(self, capsys, monkeypatch, name):
        out, expected = self.run_case(capsys, monkeypatch, CASES["table"][name])
        assert [mask_roundoff(line) for line in out.splitlines()] == [
            mask_roundoff(line) for line in expected.splitlines()
        ]

    @pytest.mark.parametrize("name", CASES["json"])
    def test_json(self, capsys, monkeypatch, name):
        out, expected = self.run_case(capsys, monkeypatch, CASES["json"][name])
        assert_json_matches(json.loads(out), json.loads(expected))

    @pytest.mark.parametrize("name", CASES["exact"])
    def test_exact(self, capsys, monkeypatch, name):
        out, expected = self.run_case(capsys, monkeypatch, CASES["exact"][name])
        assert out == expected

    NAMED = Counter(case["stdout"] for cases in CASES.values() for case in cases.values())

    @pytest.mark.parametrize("path", sorted(path for path, n in NAMED.items() if path and n > 1))
    def test_cases_naming_one_file_print_the_same_bytes(self, capsys, monkeypatch, path):
        # The round trips: a state file, its JSON report fed back through --file,
        # and the ket-v1 input line of its table given as --expr; and bell and
        # classical, which print one comparison.
        outs = {self.run_case(capsys, monkeypatch, case)[0] for cases in CASES.values()
                for case in cases.values() if case["stdout"] == path}
        assert len(outs) == 1


class TestReadme:
    README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def test_cli_example_matches_the_output(self, capsys):
        block = self.README.split("```text\n$ ", 1)[1].split("```", 1)[0]
        command, *expected = block.splitlines()
        program, *argv = shlex.split(command)
        assert program == "schmidt"
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert [mask_roundoff(line) for line in out.splitlines()] == [
            mask_roundoff(line) for line in expected
        ]

    def test_python_examples_run(self):
        blocks = re.findall(r"```python\n(.*?)```", self.README, re.DOTALL)
        assert len(blocks) >= 2
        namespace = {}  # later blocks use names the earlier ones define
        for number, block in enumerate(blocks, start=1):
            exec(compile(block, f"README.md python block {number}", "exec"), namespace)
