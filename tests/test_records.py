"""The four records: read-only fields and arrays, and pickle and copy round trips."""

import copy
import pickle

import numpy as np
import pytest

from schmidt.catalog import example_state
from schmidt.cli import build_report
from schmidt.density import classical_mixture
from schmidt.modes import _Record, schmidt_decompose

# Each record by class name: how to build one, and its fields in repr order.
RECORDS = {
    "BipartitePureState": (lambda: example_state("psi2"), (
        "latin_labels", "greek_labels", "amplitudes", "coefficients", "norm")),
    "SchmidtDecomposition": (lambda: schmidt_decompose(example_state("psi2")), (
        "lambdas", "latin_modes", "greek_modes")),
    "AnalysisReport": (lambda: build_report(example_state("psi2")), (
        "state", "decomposition", "reconstruction_residual", "expression", "lambdas",
        "schmidt_number", "entropy", "entangled")),
    "DensityMatrix": (lambda: classical_mixture([(0.5, "H", "V"), (0.5, "V", "H")]), (
        "matrix", "parts", "basis_labels")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_lists_every_field_in_order(name):
    build, fields = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert tuple(vars(record)) == fields
    assert repr(record) == (
        f"{name}(" + ", ".join(f"{field}={getattr(record, field)!r}" for field in fields) + ")")


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, fields = RECORDS[name]
    record = build()
    before = repr(record)
    for field in (*fields, "new_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
    assert repr(record) == before


# Each restores the instance __dict__ directly, not through the refused __setattr__;
# a __slots__ record would be restored through it.
@pytest.mark.parametrize("clone", [lambda record: pickle.loads(pickle.dumps(record)),
                                   copy.deepcopy, copy.copy], ids=["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("name", RECORDS)
def test_pickle_and_deepcopy_round_trip(name, clone):
    build, fields = RECORDS[name]
    record = build()
    twin = clone(record)
    assert type(twin) is type(record) and twin is not record
    assert repr(twin) == repr(record)
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{fields[0]}'$"):
        setattr(twin, fields[0], None)
    # numpy restores an array writable; the record's __setstate__ freezes it again.
    kept = list(arrays(twin))
    assert kept and not any(array.flags.writeable for array in kept)


def arrays(record):
    """Every array among the fields of ``record`` and of the records it holds."""
    for value in vars(record).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, _Record):
            yield from arrays(value)


@pytest.mark.parametrize("name", RECORDS)
def test_every_array_is_read_only_after_construction(name):
    record = RECORDS[name][0]()
    kept = list(arrays(record))
    assert kept and not any(array.flags.writeable for array in kept)

