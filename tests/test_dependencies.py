"""The package imports nothing beyond the standard library, numpy and itself.

Every import sits at module level and every imported name is used, so an
import cycle or the leftover of a deletion shows at once.  The slice paths
also call no BLAS: numpy hands matrix products to a BLAS library that runs
its own thread pool next to the ``threads`` workers, and every worker pool
runs (rotation, dilation block) tasks from one task model.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavecwt"
MODULES = sorted(PACKAGE.rglob("*.py"))
ALLOWED = {"numpy", "wavecwt"}


def imported_top_level_names(source: str):
    """Top-level module names of every absolute import in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def foreign_imports(source: str):
    return sorted({name for name in imported_top_level_names(source)
                   if name not in sys.stdlib_module_names and name not in ALLOWED})


def test_guard_flags_a_foreign_import():
    source = "import os\nimport numpy.fft\nfrom . import cwt\nfrom scipy import special\n"
    assert foreign_imports(source) == ["scipy"]
    assert foreign_imports("def f():\n    import hypothesis\n") == ["hypothesis"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_or_wavecwt(path):
    assert foreign_imports(path.read_text()) == []


def function_level_imports(source: str):
    """``function:line`` of every import inside a function body of ``source``."""
    found = []
    for top in ast.walk(ast.parse(source)):
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{top.name}:{node.lineno}" for statement in top.body
                      for node in ast.walk(statement)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(set(found))


def test_guard_flags_a_function_level_import():
    source = ("import os\nfrom .fields import fft3\n\n"
              "def f():\n    from .cwt import analyze\n    return analyze\n\n"
              "class A:\n    def g(self):\n        def h():\n            import json\n")
    assert function_level_imports(source) == ["f:5", "g:11", "h:11"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_at_module_level(path):
    assert function_level_imports(path.read_text()) == []


def unused_imports(source: str):
    """Names that ``source`` imports at module level but never reads or lists in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy.fft\n"
              "import sys as system\nfrom typing import Optional, Tuple\n"
              "from .fields import fft3, ifft3\n__all__ = ['ifft3']\n\n"
              "def f(x: Optional[int]) -> None:\n    return os.sep, numpy.fft\n")
    assert unused_imports(source) == ["Tuple", "fft3", "system"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_imports_no_unused_name(path):
    assert unused_imports(path.read_text()) == []


BLAS_CALLS = {"dot", "matmul", "tensordot", "inner", "vdot"}
SLICE_PATHS = [("cwt.py", "_evaluator"), ("cwt.py", "_sweep"), ("cwt.py", "_axial_series"),
               ("cwt.py", "resolution_kernel"), ("cwt.py", "analyze"),
               ("synthesis.py", "reconstruct_spectrum")]
# modules whose reductions serve the references and the CLI's checks: BLAS would wake its
# thread pool, which then spins idle beside the caller
BLAS_FREE_MODULES = ["fields.py", "oracle.py"]


def blas_calls(source: str, function=None):
    """Matrix products in ``function`` of ``source``, nested functions included, or in all of it.

    ``np.linalg.norm`` counts: it reduces complex arrays with ``dot``.
    """
    tree = ast.parse(source)
    if function is not None:
        tops = [top for top in tree.body
                if isinstance(top, ast.FunctionDef) and top.name == function]
        if not tops:
            raise AssertionError(f"no function {function!r}")
        tree = tops[0]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append("@")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in BLAS_CALLS:
                found.append(name)
            elif name == "norm" and getattr(getattr(node.func, "value", None), "attr", None) == "linalg":
                found.append("linalg.norm")
            elif name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                found.append("einsum(optimize=...)")  # may contract through tensordot
    return found


def test_guard_flags_matrix_products():
    source = ("def f(a, b):\n    def g():\n        return a @ b\n    a @= b\n"
              "    np.dot(a, b)\n    a.dot(b)\n    np.tensordot(a, b, 1)\n"
              "    np.einsum('a,am->m', a, b)\n    np.einsum('ab,bc', a, b, optimize=True)\n")
    assert sorted(blas_calls(source, "f")) == ["@", "@", "dot", "dot",
                                              "einsum(optimize=...)", "tensordot"]


@pytest.mark.parametrize("module, function", SLICE_PATHS, ids=lambda v: v)
def test_slice_path_calls_no_blas(module, function):
    assert blas_calls((PACKAGE / module).read_text(), function) == []


def test_guard_flags_blas_reductions_in_a_whole_module():
    source = ("import numpy as np\nr = np.vdot(a, b)\n\n"
              "def f(a):\n    return np.linalg.norm(a) + a.dot(a) + norm(a) + np.sum(a * a)\n")
    assert sorted(blas_calls(source)) == ["dot", "linalg.norm", "vdot"]


@pytest.mark.parametrize("module", BLAS_FREE_MODULES)
def test_module_calls_no_blas(module):
    assert blas_calls((PACKAGE / module).read_text()) == []


def untasked_pools(source: str):
    """Lines of ``_map_ordered`` calls in ``source`` whose items are not ``_slice_tasks(...)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_map_ordered":
            items = node.args[1] if len(node.args) > 1 else None
            if not (isinstance(items, ast.Call) and getattr(items.func, "id", None) == "_slice_tasks"):
                found.append(node.lineno)
    return found


def test_guard_flags_a_pool_without_slice_tasks():
    source = ("def f(g, n):\n    sum(_map_ordered(h, range(n), 2))\n"
              "    tasks = _slice_tasks(g, n)\n    list(_map_ordered(h, tasks, 2))\n"
              "    list(_map_ordered(h, _slice_tasks(g, n), 2))\n")
    assert untasked_pools(source) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_pool_runs_slice_tasks(path):
    assert untasked_pools(path.read_text()) == []
