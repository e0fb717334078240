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
from schmidt.modes import (RESIDUAL_LIMIT, BipartitePureState, SchmidtDecomposition,
                           entanglement_entropy, is_entangled, reconstruct, schmidt_decompose,
                           schmidt_number)
from golden.regen import CASES as CASES_FILE, GOLDEN, dump_cases, load_cases
from states import child_env, labelled_state

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


CASES = load_cases()


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


def run_case(capsys, monkeypatch, case):
    """One case of the corpus through ``cli.main``: asserts its exit code and stderr,
    and returns its stdout and the text of the file it names ("" for none)."""
    monkeypatch.chdir(GOLDEN / "input")  # argv paths are relative to it
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal width
    try:
        code = cli.main(case["argv"])
    except SystemExit as exc:  # argparse exits on --help and on a bad choice
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, err) == (case["exit"], case["stderr"])
    return out, (GOLDEN / case["stdout"]).read_text(encoding="utf-8") if case["stdout"] else ""


class TestAnalyze:
    def test_table_and_json_agree_at_printed_precision(self, capsys):
        doc = run_json(capsys, "analyze", "--expr", PSI0)
        code, table, _ = run(capsys, "analyze", "--expr", PSI0)
        assert code == 0
        assert f"schmidt number K: {doc['schmidt_number']:.6g}" in table
        assert f"entanglement entropy: {doc['entropy']:.6g} bits" in table
        assert f"normalization: {doc['normalization']:.6g}" in table

    def test_zero_mode_component_prints_without_sign(self, capsys):
        code, out, _ = run(capsys, "analyze", "--expr", "|a>(x)|b> + 2|a>(x)|d> + |c>(x)|e>")
        assert code == 0
        assert "  B: 0|b> + 0|d> + 1|e>" in out
        assert "-0" not in out

    def test_tiny_coefficients_are_a_bell_state(self, capsys):
        doc = run_json(capsys, "analyze", "--expr", "1e-200|a>(x)|b> + 1e-200|c>(x)|d>")
        assert doc["schmidt_number"] == pytest.approx(2.0, abs=1e-12)
        assert doc["normalization"] == pytest.approx(np.sqrt(2) * 1e-200, rel=1e-15)

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


class TestFileInput:
    def test_entry_that_json_cannot_spell_is_quoted_by_its_repr(self):
        # The corpus cases quote a bad entry as JSON; a library caller's complex number or
        # NumPy bool has no JSON spelling. complex() would read [1j, 1j] as -1+1j and
        # [np.True_, 0] as 1+0j: each part must be an int that is not a bool, or a float.
        for entry in (1 + 2j, [1j, 1j], [np.True_, 0]):
            doc = {"format": cli.STATE_FORMAT, "latin_labels": ["a", "b"], "greek_labels": ["x"],
                   "amplitudes": [[[1, 0]], [entry]]}
            with pytest.raises(ValidationError, match="^" + re.escape(
                    "malformed schmidt-state-v1 document: amplitude entry at row 1, column 0 "
                    f"is not an [re, im] pair of numbers: {entry!r}") + "$"):
                cli.state_from_doc(doc)

    @pytest.mark.parametrize("kind", ["string", "null", "object", "null-entry", "object-entry",
                                      "number-entry"])
    def test_labels_must_be_arrays_of_strings(self, capsys, monkeypatch, kind):
        # Both label arrays go through one check: the two refusals differ only in the
        # name of the side.
        monkeypatch.chdir(GOLDEN / "input")
        latin = run(capsys, "analyze", "--file", f"latin-labels-{kind}.json")
        greek = run(capsys, "analyze", "--file", f"greek-labels-{kind}.json")
        assert latin[:2] == greek[:2] == (2, "")
        swapped = latin[2].replace("latin_labels", "greek_labels").replace("Latin", "Greek")
        assert swapped != latin[2]
        assert swapped == greek[2]

    # Python's own text differs across versions in the long-integer message, and
    # 100,000 brackets are no file to commit, so these two stay here.
    @pytest.mark.parametrize("content", [
        b"[" * 100000,  # nested deeper than the JSON parser's recursion allows
        b"[" + b"1" * 5000 + b"]",  # more digits than int() converts
    ], ids=["deep-nesting", "long-integer"])
    def test_unreadable_json_rejected(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "analyze", "--file", str(path))
        assert (code, out) == (2, "")
        assert f"error: {path} is not valid JSON: " in err


class TestExamples:
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

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_closed_stdout_leaves_no_descriptor_open(self, monkeypatch):
        # In process, main points stdout at the null device; its own descriptor is closed.
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            before = len(os.listdir("/proc/self/fd"))
            assert cli.main(["examples", "psi0"]) == cli.EXIT_CLOSED_STDOUT
            assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("name", ["bell", "classical"])
    @pytest.mark.parametrize("flags", ["--rank-threshold nan", "--rank-threshold -1",
                                       "--rank-threshold 1e-10", "--strict-norm", "--no-modes"])
    def test_comparison_rejects_report_flags(self, capsys, flags, name):
        # The refusal comes before the format is read: the table and the JSON
        # invocation are refused alike, naming the example and the flag.
        table, json_ = (run(capsys, "examples", name, *flags.split(), "--format", format_)
                        for format_ in ("table", "json"))
        assert table == json_
        assert table[:2] == (2, "")
        assert f"examples {name} " in table[2]
        assert table[2].endswith(f"does not use {flags.split()[0]}\n")

    @pytest.mark.parametrize("build,name,choices", [
        (example_state, "psi9", "['psi0', 'psi1', 'psi2', 'psi3']"),
        (bell_state, "phi", "['phi_minus', 'phi_plus', 'psi_minus', 'psi_plus']"),
    ])
    def test_unknown_catalog_name_lists_the_choices(self, build, name, choices):
        with pytest.raises(KeyError, match=re.escape(f"{name!r}; choose from {choices}")):
            build(name)


class TestProcessEntry:
    """``run()``, the entry of ``python -m schmidt.cli`` and the console script."""

    @pytest.mark.parametrize("section,name", [
        ("table", "psi0"), ("json", "psi0"), ("exact", "trailing-ket"),
        ("exact", "rank-threshold-0.5"), ("exact", "unknown-example"), ("exact", "help"),
    ], ids=["table", "json", "bad-expr", "numeric-error", "argparse-error", "help"])
    def test_module_run_matches_main(self, capsys, monkeypatch, section, name):
        case = CASES[section][name]
        out, _ = run_case(capsys, monkeypatch, case)
        child = subprocess.run([sys.executable, "-m", "schmidt.cli", *case["argv"]],
                               capture_output=True, text=True, env=child_env(COLUMNS="80"),
                               cwd=GOLDEN / "input", timeout=60)
        assert (child.returncode, child.stdout) == (case["exit"], out)
        assert child.stderr == case["stderr"]

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

    @pytest.fixture
    def state_file(self, tmp_path):
        """A 5 x 7 state's file, the state read back from it, and its decomposition."""
        rng = np.random.default_rng(11)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(cli.state_to_doc(
            labelled_state(rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))))))
        state = cli._load_state_file(str(path))
        return str(path), state, schmidt_decompose(state)

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
        assert 0.0 < report.reconstruction_residual == residual <= RESIDUAL_LIMIT
        assert report.to_dict()["reconstruction_residual"] == residual

    def test_modes_that_do_not_rebuild_the_state_are_refused(self):
        # The Bell state's labels with the modes of the product state |H>(x)|H>.
        d = SchmidtDecomposition([1.0, 0.0], [[1], [0]], [[1], [0]])
        with pytest.raises(ConvergenceError,
                           match=r"^reconstruction residual 1\.000e\+00 exceeds 1e-09$"):
            cli.AnalysisReport(bell_state(), d)

    @pytest.mark.parametrize("side", ["latin_modes", "greek_modes"])
    def test_modes_that_are_not_orthogonal_are_refused(self, side):
        # Both modes of one side are |a> (or |x>): they rebuild the product state |a>(x)|x> to
        # roundoff, but their lambdas would report K = 2, one bit and "entangled: yes".
        s = np.sqrt(0.5)
        same, orthonormal = [[1, 1], [0, 0]], [[s, s], [s, -s]]
        modes = (same, orthonormal) if side == "latin_modes" else (orthonormal, same)
        state = BipartitePureState(("a", "b"), ("x", "y"), [[1, 0], [0, 0]])
        with pytest.raises(ConvergenceError, match=rf"^{side} are not orthonormal: "
                                                   r"defect 1\.000e\+00 exceeds 1e-09$"):
            cli.AnalysisReport(state, SchmidtDecomposition([0.5, 0.5], *modes))

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
        path, state, d = state_file
        doc = run_json(capsys, "analyze", "--file", path)
        assert d.rank == 5
        for key, labels, modes in (("latin_modes", state.latin_labels, d.latin_modes),
                                   ("greek_modes", state.greek_labels, d.greek_modes)):
            assert len(doc[key]) == d.rank
            for s, mode in enumerate(doc[key]):
                assert mode["eigenvalue"] == d.lambdas[s]
                assert tuple(mode["components"]) == labels
                column = [complex(re, im) for re, im in mode["components"].values()]
                assert column == modes[:, s].tolist()

    def test_table_mode_lines_render_the_decomposition_columns(self, capsys, state_file):
        path, state, d = state_file
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
            expected.append("  A: " + line(state.latin_labels, d.latin_modes[:, s]))
            expected.append("  B: " + line(state.greek_labels, d.greek_modes[:, s]))
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
    try:
        state = labelled_state(np.reshape(entries, (rows, cols)))
    except ValidationError:  # non-finite, all-zero, or a norm beyond the float range
        return
    text = json.dumps(cli.state_to_doc(state), allow_nan=False)
    for again in (cli.parse_state(cli.format_state(state)), cli.state_from_doc(json.loads(text))):
        assert (again.latin_labels, again.greek_labels) == (state.latin_labels, state.greek_labels)
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

    def test_padded_eigenvalue_line(self):
        state = BipartitePureState.from_amplitudes(
            ("a", "c"), ("b", "d", "e", "f", "g"), [[1, 0, 2, 0, 1], [0, 3, 0, 1j, 0]]
        )
        lines = cli.render_report(cli.build_report(state)).splitlines()
        assert lines[2] == "eigenvalues: 0.625, 0.375, 0, 0, 0"
        assert lines[7] == "mode 1 (eigenvalue 0.625):"


class TestGoldenOutputs:
    """Every case of tests/golden/cli/cases.json through ``cli.main`` (``run_case``): its
    exit code and stderr exactly, and its stdout against the file it names under
    tests/golden (``regen.py`` there rewrites them), compared as its section says."""

    @pytest.mark.parametrize("name", CASES["table"])
    def test_table(self, capsys, monkeypatch, name):
        out, expected = run_case(capsys, monkeypatch, CASES["table"][name])
        assert [mask_roundoff(line) for line in out.splitlines()] == [
            mask_roundoff(line) for line in expected.splitlines()
        ]

    @pytest.mark.parametrize("name", CASES["json"])
    def test_json(self, capsys, monkeypatch, name):
        out, expected = run_case(capsys, monkeypatch, CASES["json"][name])
        assert_json_matches(json.loads(out), json.loads(expected))

    @pytest.mark.parametrize("name", CASES["exact"])
    def test_exact(self, capsys, monkeypatch, name):
        # Help, the comparison table (its values are all 0, 0.5 or 1) and the empty
        # stdout of a refusal.
        out, expected = run_case(capsys, monkeypatch, CASES["exact"][name])
        assert out == expected

    NAMED = Counter(case["stdout"] for cases in CASES.values() for case in cases.values())

    @pytest.mark.parametrize("path", sorted(path for path, n in NAMED.items() if path and n > 1))
    def test_cases_naming_one_file_print_the_same_bytes(self, capsys, monkeypatch, path):
        # The round trips: a state file, its JSON report fed back through --file,
        # and the ket-v1 input line of its table given as --expr; and bell and
        # classical, which print one comparison.
        outs = {run_case(capsys, monkeypatch, case)[0] for cases in CASES.values()
                for case in cases.values() if case["stdout"] == path}
        assert len(outs) == 1

    def test_every_committed_file_is_named_by_a_case(self):
        # An input is named by an argv entry, an expected stdout by its path; a file
        # that no case names is data left behind by a removed case.
        cases = [case for section in CASES.values() for case in section.values()]
        named = {(GOLDEN / "input" / arg).resolve() for case in cases for arg in case["argv"]}
        named |= {GOLDEN / case["stdout"] for case in cases if case["stdout"]}
        files = {path for path in GOLDEN.rglob("*")
                 if path.is_file() and "__pycache__" not in path.parts}
        left = sorted(str(path.relative_to(GOLDEN)) for path in files - named)
        assert left == ["cli/cases.json", "regen.py"]

    def test_the_corpus_is_laid_out_as_regen_writes_it(self):
        # One case a line, as regen.py writes it, so that a hand edit cannot merge the lines
        # that a diff should name one by one.
        assert CASES_FILE.read_text(encoding="utf-8") == dump_cases(load_cases())


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
