"""Property test of the whole pipeline: state, report, ket-v1 text and JSON.

Every state either gets a report that meets the report's invariants or is
refused with a SchmidtError. Its canonical text parses back to the same
labels and amplitudes, and its schmidt-state-v1 document reads back to the
same state, bit for bit.
"""

import json

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schmidt import cli
from schmidt.errors import SchmidtError
from schmidt.ketparse import format_state, parse_state
from schmidt.modes import BipartitePureState

ENTRIES = (1, -1, 1j, -1j, 2, 0.5, 0)


def _matrix(draw, rows, cols):
    return np.array(draw(st.lists(st.sampled_from(ENTRIES), min_size=rows * cols,
                                  max_size=rows * cols)), dtype=complex).reshape(rows, cols)


@st.composite
def states(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rows, cols = draw(st.sampled_from([(rows, cols)] * 3 + [(1, cols), (rows, 1)]))
    if draw(st.booleans()):  # low rank plus a small full-rank tail
        rank = draw(st.integers(1, min(rows, cols)))
        tail = 10.0 ** draw(st.integers(-20, -3))
        amps = _matrix(draw, rows, rank) @ _matrix(draw, rank, cols)
        amps += tail * _matrix(draw, rows, cols)
    else:
        amps = _matrix(draw, rows, cols)
    amps[draw(st.lists(st.integers(0, rows - 1), max_size=rows - 1))] = 0  # exact zero rows
    assume(np.any(amps != 0))
    amps *= 10.0 ** draw(st.integers(-300, 300))
    return BipartitePureState(tuple(f"m{i}" for i in range(rows)),
                              tuple(f"s{j}" for j in range(cols)), amps)


@settings(max_examples=200, deadline=None)
@given(states())
def test_every_state_is_reported_correctly_or_refused(state):
    try:
        report = cli.build_report(state)
    except SchmidtError:
        report = None  # a refusal, allowed until the rank floor follows the residual limit
    if report is not None:
        lambdas = np.array(report.lambdas)
        assert np.all(np.diff(lambdas) <= 0.0)
        assert np.all(lambdas >= 0.0)
        assert abs(lambdas.sum() - 1.0) <= 1e-12
        d = report.decomposition
        for modes in (d.latin_modes, d.greek_modes):
            assert np.max(np.abs(modes.conj().T @ modes - np.eye(d.rank))) <= 1e-12
        assert report.reconstruction_residual <= 1e-9
        assert isinstance(cli.render_report(report), str)

    again = parse_state(format_state(state))
    assert (again.latin_labels, again.greek_labels) == (state.latin_labels, state.greek_labels)
    assert np.max(np.abs(again.amplitudes - state.amplitudes)) <= 1e-12

    read = cli.state_from_doc(json.loads(json.dumps(cli.state_to_doc(state))))
    assert (read.latin_labels, read.greek_labels) == (state.latin_labels, state.greek_labels)
    assert read.coefficients.tobytes() == state.coefficients.tobytes()
    assert read.amplitudes.tobytes() == state.amplitudes.tobytes()
    assert read.norm == state.norm
