"""The ``schmidt`` package namespace, each check in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schmidt

# The public names, as the package exported them when it imported every module eagerly.
PUBLIC_NAMES = [
    "BipartitePureState", "ConvergenceError", "DensityMatrix", "ImpossibleOutcomeError",
    "KetExpression", "KetTerm", "ParseError", "SchmidtDecomposition", "SchmidtError",
    "ShapeError", "ValidationError", "classical_mixture", "conditional_state",
    "entanglement_entropy", "format_state", "gram_greek", "gram_latin", "is_entangled",
    "parse_expression", "parse_state", "partial_trace", "product_labels", "pure_density",
    "purity", "reconstruct", "schmidt_decompose", "schmidt_number",
]
SUBMODULES = ["density", "errors", "ketparse", "modes"]


def in_child(code: str):
    """Run ``code`` in a fresh interpreter that imports this ``schmidt``; its JSON stdout."""
    src = str(Path(schmidt.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def test_import_loads_no_numpy_and_no_submodule():
    loaded, same_env = in_child(
        "import json, os, sys\n"
        "env = dict(os.environ)\n"
        "import schmidt\n"
        "print(json.dumps([sorted(m for m in sys.modules if m == 'numpy'\n"
        "                         or m.startswith(('numpy.', 'schmidt.'))),\n"
        "                  dict(os.environ) == env]))\n")
    assert loaded == []
    assert same_env


def test_all_lists_the_public_names():
    assert in_child("import json, schmidt; print(json.dumps(schmidt.__all__))") == PUBLIC_NAMES


def test_star_import_binds_each_name_to_its_home_object():
    bound, strays = in_child(
        "import importlib, json\n"
        "namespace = {}\n"
        "exec('from schmidt import *', namespace)\n"
        "del namespace['__builtins__']\n"
        "print(json.dumps([sorted(namespace), [\n"
        "    name for name, obj in namespace.items() if not obj.__module__.startswith('schmidt.')\n"
        "    or getattr(importlib.import_module(obj.__module__), name) is not obj]]))\n")
    assert bound == PUBLIC_NAMES
    assert strays == []


def test_submodules_resolve_as_attributes():
    assert in_child(
        "import json, sys, schmidt\n"
        "print(json.dumps([getattr(schmidt, name) is sys.modules['schmidt.' + name]\n"
        f"                  for name in {SUBMODULES!r}]))\n") == [True] * len(SUBMODULES)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        schmidt.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from schmidt import no_such_name  # noqa: F401


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(schmidt))


@pytest.mark.parametrize("core", ["modes", "ketparse"])
def test_core_loads_without_density(core):
    assert in_child(f"import json, sys, schmidt.{core}\n"
                    "print(json.dumps('schmidt.density' in sys.modules))\n") is False


def test_gram_matrices_live_in_density():
    assert in_child(
        "import json, schmidt, schmidt.density as density, schmidt.modes as modes\n"
        "print(json.dumps([schmidt.gram_latin is density.gram_latin,\n"
        "                  schmidt.gram_greek is density.gram_greek,\n"
        "                  hasattr(modes, 'gram_latin')]))\n") == [True, True, False]
