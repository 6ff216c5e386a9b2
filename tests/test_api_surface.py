"""The package's public names, and the names the benchmark's tracer wraps."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import softrec

MODULES = sorted(m.name for m in pkgutil.iter_modules(softrec.__path__))
TEST_FILES = sorted(p.name for p in Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", ["softrec"] + [f"softrec.{m}" for m in MODULES])
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_traced_boundaries_exist():
    # the traced benchmark run replaces these module attributes; a renamed
    # or deleted one would otherwise surface only when that run starts
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (mod, attr)
        for mod, attr in tracing.BOUNDARIES
        if not hasattr(importlib.import_module(f"softrec.{mod}"), attr)
    ]
    assert missing == []


def _unused_imports(path: Path) -> set:
    """The names a file imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    # every imported name is used in the module or re-exported in __all__;
    # a deletion that leaves an import behind fails here
    unused = _unused_imports(Path(softrec.__file__).parent / f"{module}.py")
    exported = set(getattr(importlib.import_module(f"softrec.{module}"), "__all__", ()))
    assert sorted(unused - exported) == []


@pytest.mark.parametrize("name", TEST_FILES)
def test_no_unused_imports_in_tests(name):
    # the same rule over the test files, which export nothing
    assert sorted(_unused_imports(Path(__file__).parent / name)) == []


def test_no_unused_private_names():
    # every module-level _name is read somewhere in the package, by name or
    # as an attribute; a deletion that leaves a helper behind fails here
    root = Path(softrec.__file__).parent
    trees = {m: ast.parse((root / f"{m}.py").read_text()) for m in MODULES}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }
    defined = {
        (module, name)
        for module, tree in trees.items()
        for node in tree.body
        for name in _bound_names(node)
        if name.startswith("_") and not name.startswith("__")
    }
    assert sorted((m, name) for m, name in defined if name not in read) == []


def _bound_names(node):
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)]


# The entry points that take symbol or region indices, by module.
_INDEX_TAKERS = {
    "channel": "transmit",
    "constellation": "demap",
    "softening": "inverse_and_jacobian",
    "metrics": "log_joint_conditional_density",
}


@pytest.mark.parametrize("module", MODULES)
def test_index_rule_is_written_once(module):
    # constellation._indices holds the package's one integer-index test,
    # `.dtype.kind not in "iu"`, and every entry point that takes symbol or
    # region indices calls it; a copy written out elsewhere fails here
    tree = ast.parse((Path(softrec.__file__).parent / f"{module}.py").read_text())
    tests = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Attribute) and node.left.attr == "kind"
        and isinstance(node.left.value, ast.Attribute) and node.left.value.attr == "dtype"
        and isinstance(node.ops[0], ast.NotIn)
        and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value == "iu"
    ]
    assert len(tests) == (module == "constellation")
    if module in _INDEX_TAKERS:
        defined = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        calls = {
            node.func.id
            for node in ast.walk(defined[_INDEX_TAKERS[module]])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert "_indices" in calls


@pytest.mark.parametrize("module", MODULES)
def test_logsumexp_has_one_route(module):
    # channel._logsumexp gives scipy's bits in plain numpy, without scipy's
    # array-API wrapper and its second full pass; the package reaches
    # log-sum-exp only through it, and the mixture log density is one call
    # of it
    tree = ast.parse((Path(softrec.__file__).parent / f"{module}.py").read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy")
        for alias in node.names
    ]
    called = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "logsumexp"
    ]
    assert "logsumexp" not in imported + called
    defined = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert ("_logsumexp" in defined) == (module == "channel")
    if module == "channel":
        calls = {
            node.func.id
            for node in ast.walk(defined["log_output_density"])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert "_logsumexp" in calls


@pytest.mark.parametrize(
    "statement, absent",
    [
        ("import softrec", ("scipy.interpolate", "scipy.stats")),
        ("import softrec.cli", ("scipy.stats",)),
        pytest.param(
            "from softrec import harness, pam; "
            "harness.mi_sweep(harness.ExperimentSpec(pam(4), (9.0,), harness.SCHEMES))",
            ("scipy.interpolate",),
            id="one-point mi_sweep",
        ),
        pytest.param(
            "import tempfile; from softrec import harness, pam; "
            "out = tempfile.TemporaryDirectory(); "
            "harness.mi_sweep(harness.ExperimentSpec(pam(4), (9.0,), ('hard',)), out.name); "
            "out.cleanup()",
            ("scipy.interpolate",),
            id="one-point mi_sweep to a directory",
        ),
        pytest.param(
            "import tempfile; from softrec import cli; "
            "out = tempfile.TemporaryDirectory(); "
            "cli.main(['audit', '--snr=0', '--configs=base', "
            "'--samples-per-decision=100', '--out=' + out.name]); "
            "out.cleanup()",
            ("scipy.stats",),
            id="one-cell audit",
        ),
    ],
)
def test_import_leaves_heavy_scipy_out(statement, absent):
    # scipy.interpolate (with scipy.linalg, scipy.optimize and scipy.sparse)
    # and scipy.stats dominate a cold start; only snr_at_mi imports
    # scipy.interpolate, when it first runs, so a one-point mi_sweep with no
    # output directory (the benchmark's MI operation) does not load it, and
    # writing its mi.csv does not either; the audit's KS test has its own
    # tail, so no command imports scipy.stats
    src = str(Path(softrec.__file__).resolve().parents[1])
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    code = f"import sys; {statement}; print(' '.join(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert sorted(set(absent) & set(out.stdout.split())) == []
