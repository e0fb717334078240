import json

import numpy as np
import pytest

from schmidt import cli
from schmidt.catalog import EXPRESSIONS, bell_state, opposite_polarization_mixture
from schmidt.density import conditional_state, partial_trace, pure_density
from schmidt.modes import BipartitePureState, schmidt_decompose

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

    def test_overflowing_coefficient_exits_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--expr", "1e999|a>(x)|b>")
        assert code == 2
        assert out == ""
        assert "scalar '1e999' overflows the float range (position 1)" in err

    def test_overflowing_coefficient_product_exits_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--expr", "|c>(x)|d> + 1e200(1e200|a>)(x)|b>")
        assert code == 2
        assert out == ""
        assert "coefficient product of term 2 at |a>(x)|b> overflows the float range" in err
        assert "nan" not in err

    def test_tiny_coefficients_are_a_bell_state(self, capsys):
        doc = run_json(capsys, "analyze", "--expr", "1e-200|a>(x)|b> + 1e-200|c>(x)|d>")
        assert doc["schmidt_number"] == pytest.approx(2.0, abs=1e-12)
        assert doc["normalization"] == pytest.approx(np.sqrt(2) * 1e-200, rel=1e-15)

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

    def test_unknown_example_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["examples", "psi9"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "psi0" in err  # argparse lists the valid choices


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
        return str(path), schmidt_decompose(cli._load_state_file(str(path), False))

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

        dims, labels = (2, 2), ("H", "V")
        for name, rho in (("classical", opposite_polarization_mixture()),
                          ("quantum", pure_density(bell_state("psi_plus")))):
            entry = doc[name]
            prob, cond = conditional_state(rho, [1.0, 0.0], dims, labels=labels)
            assert entry["basis"] == list(rho.basis_labels)
            assert entry["matrix"] == pairs(rho.matrix)
            assert entry["reduced_A"] == pairs(partial_trace(rho, "A", dims, labels=labels).matrix)
            assert entry["reduced_B"] == pairs(partial_trace(rho, "B", dims, labels=labels).matrix)
            assert entry["conditional_on_H"] == {"probability": prob, "matrix": pairs(cond.matrix)}


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
        (complex(-0.0, 0.0), "-0", "1|a> + -0|c>"),
        (1e-7, "1e-07", "1|a> + 1e-07|c>"),
        (3e5 + 1e20j, "(300000+1e+20i)", "1|a> + (300000+1e+20i)|c>"),
        (123456789.123456789, "1.23457e+08", "1|a> + 1.23457e+08|c>"),
        (-2.5e-300j, "-2.5e-300i", "1|a> - 2.5e-300i|c>"),
    ])
    def test_complex_number_and_mode_line(self, z, number, line):
        z = complex(z)
        assert cli._fmt_complex(z) == number
        assert cli._mode_line(("a", "c"), np.array([1, z])) == line

    def test_padded_eigenvalue_line(self):
        state = BipartitePureState.from_amplitudes(
            ("a", "c"), ("b", "d", "e", "f", "g"), [[1, 0, 2, 0, 1], [0, 3, 0, 1j, 0]]
        )
        lines = cli.render_report(cli.build_report(state)).splitlines()
        assert lines[2] == "eigenvalues: 0.625, 0.375, 0, 0, 0"
        assert lines[7] == "mode 1 (eigenvalue 0.625):"
