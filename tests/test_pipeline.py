"""Property test of the whole pipeline: state, report, ket-v1 text and JSON.

A state whose labels break the ket-v1 LABEL rule is refused by its
constructor. Every other state either gets a report that meets the report's
invariants or is refused with the one ConvergenceError a valid state can meet:
the rank floor dropped Schmidt weight that the residual gate needs, and the
message names that weight. Its canonical text parses back to the same labels
and amplitudes, and its schmidt-state-v1 document reads back to the same
state, bit for bit. Labels are unique within each side, and some draws put one
label on both sides.
"""

import json
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schmidt import cli
from schmidt.errors import ConvergenceError, ValidationError
from schmidt.ketparse import format_state, parse_state
from schmidt.modes import LABEL, RESIDUAL_LIMIT, BipartitePureState

ENTRIES = (1, -1, 1j, -1j, 2, 0.5, 0)
HALF = sys.float_info.max / 2


def _matrix(draw, rows, cols):
    return np.array(draw(st.lists(st.sampled_from(ENTRIES), min_size=rows * cols,
                                  max_size=rows * cols)), dtype=complex).reshape(rows, cols)


@st.composite
def cases(draw):
    """Latin labels, Greek labels and a coefficient matrix."""
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
    scale = draw(st.one_of(st.integers(-300, 300).map(lambda k: 10.0 ** k),
                           st.floats(1e300, sys.float_info.max), st.just(sys.float_info.max)))
    with np.errstate(over="ignore"):  # an entry beyond the float range is refused below
        amps *= scale
    latin, greek = (draw(st.lists(st.from_regex(LABEL, fullmatch=True), min_size=size,
                                  max_size=size, unique=True)) for size in (rows, cols))
    if draw(st.booleans()):  # a Latin label on the Greek side too
        shared = draw(st.sampled_from(latin))
        if shared not in greek:
            greek[draw(st.integers(0, cols - 1))] = shared
    if draw(st.booleans()):  # one label drawn from all strings
        labels = draw(st.sampled_from([latin, greek]))
        labels[draw(st.integers(0, len(labels) - 1))] = draw(
            st.text().filter(lambda text: text not in labels))
    return tuple(latin), tuple(greek), amps


@settings(max_examples=200, deadline=None)
@given(cases())
# Norm at the float maximum: each max / 2 printed with 15 digits parses back as
# 2**1023, and the norm of four of those overflows.
@example(case=(("A", "B", "C", "D", "E", "F", "A0", "B0"), ("A", "A0"),
               np.array([[HALF, HALF], *[[0, 0]] * 5, [HALF, HALF],
                         [1.7976931348623158e291] * 2], dtype=complex)))
def test_every_state_is_reported_correctly_or_refused(case):
    latin, greek, amps = case
    if not all(re.fullmatch(LABEL, label) for label in latin + greek):
        with pytest.raises(ValidationError, match="is not a ket-v1 label"):
            BipartitePureState(latin, greek, amps)
        return
    try:
        state = BipartitePureState(latin, greek, amps)
    except ValidationError as exc:  # scaled beyond the float range
        assert re.search("is not finite|exceeds the float range", str(exc))
        return
    try:
        report = cli.build_report(state)
    except ConvergenceError as exc:  # allowed until the rank floor follows the residual limit
        assert "; the rank threshold dropped Schmidt weight " in str(exc)
        report = None
    if report is not None:
        lambdas = np.array(report.lambdas)
        assert np.all(np.diff(lambdas) <= 0.0)
        assert np.all(lambdas >= 0.0)
        assert abs(lambdas.sum() - 1.0) <= 1e-12
        d = report.decomposition
        for modes in (d.latin_modes, d.greek_modes):
            assert np.max(np.abs(modes.conj().T @ modes - np.eye(d.rank))) <= 1e-12
        # The phase rule: on the smaller side (Latin on a tie), each mode's first component
        # above RESIDUAL_LIMIT is real and positive, up to the rounding of the complex product.
        pivot_side = d.latin_modes if len(latin) <= len(greek) else d.greek_modes
        for mode in pivot_side.T:
            p = mode[np.flatnonzero(np.abs(mode) > RESIDUAL_LIMIT)[0]]
            assert abs(p.imag) <= 4 * np.finfo(float).eps * abs(p) and p.real > 0.0
        assert report.reconstruction_residual <= 1e-9
        assert isinstance(cli.render_report(report), str)

    again = parse_state(format_state(state))
    assert (again.latin_labels, again.greek_labels) == (latin, greek)
    assert np.max(np.abs(again.amplitudes - state.amplitudes)) <= 1e-12

    read = cli.state_from_doc(json.loads(json.dumps(cli.state_to_doc(state))))
    assert (read.latin_labels, read.greek_labels) == (latin, greek)
    assert read.coefficients.tobytes() == state.coefficients.tobytes()
    assert read.amplitudes.tobytes() == state.amplitudes.tobytes()
    assert read.norm == state.norm
