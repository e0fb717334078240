import json

import numpy as np
import pytest

from schmidt import cli
from schmidt.catalog import EXPRESSIONS

PSI0 = EXPRESSIONS["psi0"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


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

    def test_strict_norm_rejects_scaled_expression(self, capsys):
        code, _, err = run(capsys, "analyze", "--expr", PSI0, "--strict-norm")
        assert code == 2
        assert "norm" in err
        normalized = "1/sqrt(2)|a>(x)|alpha> + 1/sqrt(2)|b>(x)|beta>"
        code, out, _ = run(capsys, "analyze", "--expr", normalized, "--strict-norm")
        assert code == 0
        assert "schmidt number K: 2" in out

    def test_lapack_failure_exits_3(self, capsys, monkeypatch):
        def fail(a, full_matrices=True):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        code, out, err = run(capsys, "analyze", "--expr", PSI0)
        assert code == 3
        assert out == ""
        assert "numerical error" in err
        assert "np.linalg.svd" in err and "2x3" in err and "did not converge" in err

    def test_rank_threshold_flag_is_a_noise_floor(self, capsys):
        # a sane adjustment leaves the report unchanged
        doc = run_json(capsys, "analyze", "--expr", PSI0, "--rank-threshold", "1e-6")
        assert doc["rank"] == 2
        # a threshold that truncates real modes makes the reconstruction
        # check fail, and the report is refused rather than emitted wrong
        code, _, err = run(capsys, "analyze", "--expr", PSI0, "--rank-threshold", "0.5")
        assert code == 3
        assert "reconstruction residual" in err


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
        from schmidt.catalog import example_state

        path = tmp_path / "psi2.json"
        path.write_text(json.dumps(cli.state_to_doc(example_state("psi2"))))
        doc = run_json(capsys, "analyze", "--file", str(path))
        assert doc["schmidt_number"] == pytest.approx(196 / 106, abs=1e-9)
        assert doc["rank"] == 2

    def test_report_reingestion_reproduces_the_report(self, capsys, tmp_path):
        first = run_json(capsys, "analyze", "--expr", EXPRESSIONS["psi3"])
        path = tmp_path / "report.json"
        path.write_text(json.dumps(first))
        second = run_json(capsys, "analyze", "--file", str(path))

        def compare(a, b, where=""):
            assert type(a) is type(b), where
            if isinstance(a, dict):
                assert a.keys() == b.keys(), where
                for key in a:
                    compare(a[key], b[key], f"{where}.{key}")
            elif isinstance(a, list):
                assert len(a) == len(b), where
                for i, (x, y) in enumerate(zip(a, b)):
                    compare(x, y, f"{where}[{i}]")
            elif isinstance(a, float):
                assert a == pytest.approx(b, abs=1e-12), where
            else:
                assert a == b, where

        compare(first, second)

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

    def test_unknown_example_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["examples", "psi9"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "psi0" in err  # argparse lists the valid choices
