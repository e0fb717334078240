"""The ``schmidt`` package namespace, each check in a fresh interpreter, and the
imports of the package's and the suite's modules."""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import schmidt
from schmidt import modes
from states import child_env

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
    """Run ``code`` in a fresh interpreter that imports this ``schmidt``; its JSON stdout.
    ``-W error`` turns a warning raised at import into a failure."""
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=child_env(),
                          capture_output=True, text=True, check=True)
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


def test_cli_import_leaves_the_environment_alone():
    # A library import of the CLI module sets no variable, a BLAS thread count included.
    changed = in_child("import json, os\n"
                       "env = dict(os.environ)\n"
                       "import schmidt.cli\n"
                       "print(json.dumps(sorted(key for key in env.keys() | os.environ.keys()\n"
                       "                        if env.get(key) != os.environ.get(key))))\n")
    assert changed == []


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


def test_cli_import_loads_no_dataclasses():
    # The records are plain classes; the check holds unless numpy itself loads dataclasses.
    assert in_child("import json, sys, numpy\n"
                    "pre = 'dataclasses' in sys.modules\n"
                    "import schmidt.cli\n"
                    "print(json.dumps(pre or 'dataclasses' not in sys.modules))\n") is True


def test_gram_matrices_live_in_density():
    assert in_child(
        "import json, schmidt, schmidt.density as density, schmidt.modes as modes\n"
        "print(json.dumps([schmidt.gram_latin is density.gram_latin,\n"
        "                  schmidt.gram_greek is density.gram_greek,\n"
        "                  hasattr(modes, 'gram_latin')]))\n") == [True, True, False]


def test_each_module_defines_only_its_tolerances():
    # The module-level floats that each submodule defines rather than imports from modes: a new
    # one in any module fails here, and modes owns the two tolerances.
    modules = [importlib.import_module(f"schmidt.{info.name}")
               for info in pkgutil.iter_modules(schmidt.__path__)]
    defined = {module.__name__: sorted(
        name for name, value in vars(module).items() if isinstance(value, float)
        and (module is modes or getattr(modes, name, None) is not value)) for module in modules}
    assert defined == {"schmidt.catalog": [], "schmidt.cli": [], "schmidt.density": [],
                       "schmidt.errors": [], "schmidt.ketparse": [],
                       "schmidt.modes": ["DEFAULT_RANK_THRESHOLD", "RESIDUAL_LIMIT"]}


def test_every_imported_name_is_read():
    # Read as a name, as an attribute's base (also a name) or listed in __all__; an
    # import kept for its effect says so with "noqa: F401" on its first line.
    root = Path(__file__).resolve().parents[1]
    unread = []
    for path in sorted([*root.glob("src/schmidt/**/*.py"), *root.glob("tests/**/*.py")]):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.value for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
                 and any(isinstance(target, ast.Name) and target.id == "__all__"
                         for target in assign.targets)
                 for node in ast.walk(assign.value) if isinstance(node, ast.Constant)}
        lines = text.splitlines()
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in read:
                    unread.append(f"{path.relative_to(root)}:{node.lineno} {name}")
    assert unread == []


def test_every_array_comparison_states_rtol():
    # assert_allclose adds its default rtol=1e-7 to atol, so an atol alone reads tighter
    # than the bound it enforces on every nonzero entry.
    root = Path(__file__).resolve().parents[1]
    unstated = []
    for path in sorted(root.glob("tests/**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "assert_allclose" and "rtol" not in {kw.arg for kw in node.keywords}:
                unstated.append(f"{path.relative_to(root)}:{node.lineno}")
    assert unstated == []
