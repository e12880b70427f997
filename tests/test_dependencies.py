"""The package imports nothing beyond the standard library, numpy and itself.

Every import sits at module level and every imported name is used, so an
import cycle or the leftover of a deletion shows at once.  The slice paths
also call no BLAS: numpy hands matrix products to a BLAS library that runs
its own thread pool next to the ``threads`` workers, and every worker pool
runs (rotation, dilation block) tasks from one task model.  ``numpy.fft`` is
called in ``fields.py`` alone, the one owner of the lattice transforms, so
rebinding its functions (as a traced benchmark run does) sees every FFT.
The package reads no environment variable, and one helper,
``fields._positive_finite``, is the only check that a wave speed, time step,
dilation, spacing or catalog wavelet parameter is positive.  One rule,
``cwt._blocks``, cuts every work loop into blocks, and it alone reads the
task budget ``cwt._TASK_BYTES``.  ``quadrature.py`` owns every quadrature
rule: ``quadrature._gauss_legendre`` is the only caller of numpy's
Gauss-Legendre rule, and only that module's panel and sphere rules call it,
so no other module builds its own panels or directions.
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
SLICE_PATHS = [("cwt.py", "_evaluator"), ("cwt.py", "_sweep"), ("kernel.py", "_axial_table"),
               ("kernel.py", "_clenshaw"),
               ("kernel.py", "_axial_kernel"), ("kernel.py", "resolution_kernel"),
               ("cwt.py", "analyze"),
               ("cwt.py", "_slice_tasks"), ("cwt.py", "_working_set"),
               ("orbits.py", "_lattice_symmetries"), ("orbits.py", "_image"),
               ("orbits.py", "_symmetry_plan"), ("orbits.py", "_orbits"),
               ("orbits.py", "_stabilizer"), ("orbits.py", "_node_orbits"),
               ("orbits.py", "_closed_points"), ("orbits.py", "_gatherer"),
               ("orbits.py", "_orbit_gathers"),
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


def fft_uses(source: str):
    """Lines of ``source`` that call ``np.fft``/``numpy.fft`` functions or import from ``numpy.fft``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "fft"
                    and getattr(owner.value, "id", None) in ("np", "numpy")):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.startswith("numpy.fft")
                or node.module == "numpy" and any(a.name == "fft" for a in node.names)):
            found.append(node.lineno)
    return found


def test_guard_flags_fft_calls_outside_fields():
    source = ("import numpy as np\nimport numpy\nfrom numpy.fft import ifftn\n"
              "from numpy import fft as f, sum\n\n"
              "def f(a):\n    np.fft.fftn(a)\n    return numpy.fft.ifftn(a, out=a), np.sum(a), a.fft()\n")
    assert fft_uses(source) == [3, 4, 7, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_fields_calls_numpy_fft(path):
    assert bool(fft_uses(path.read_text())) == (path.name == "fields.py")


# The functions that decide something from a symmetry tag.  Every other function is handed
# the decision: the slice engine plans from what a route says its tasks hold, and the
# symmetry plan of the slice routes, the rotation orbits and the kernel's node stabilizer, is
# made in orbits._symmetry_plan alone.
SYMMETRY_READERS = {
    "wavelets.py": {"PhysicalWavelet.__post_init__", "time_reverse", "time_derivative_wavelet",
                    "time_antiderivative_wavelet"},
    "admissibility.py": {"_angular_profile", "_constant", "cross_admissibility_constant"},
    "cwt.py": {"ParameterGrid.__eq__", "ParameterGrid.check_route", "ParameterGrid.describe",
               "make_parameter_grid", "_sweep"},
    "kernel.py": {"resolution_kernel"},
    "orbits.py": {"_symmetry_plan"},
}


def symmetry_readers(source: str):
    """The functions of ``source`` that read an attribute ``.symmetry``, nested functions included.

    A method is named ``Class.method``; a read outside every function is named ``<module>``.
    """
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner == "<module>":
                visit(child, child.name)
            elif isinstance(child, ast.ClassDef) and owner == "<module>":
                for item in child.body:
                    name = f"{child.name}.{getattr(item, 'name', '')}"
                    visit(item, name if isinstance(item, ast.FunctionDef) else "<module>")
            else:
                if (isinstance(child, ast.Attribute) and child.attr == "symmetry"
                        and isinstance(child.ctx, ast.Load)):
                    found.add(owner)
                visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_guard_flags_symmetry_reads():
    source = ("TAG = grid.symmetry\n\n"
              "def plan(g, n):\n    def inner():\n        return g.symmetry == 'axial'\n"
              "    return inner\n\n"
              "def plain(g, symmetry):\n    g.symmetry = symmetry\n    return g['symmetry']\n\n"
              "class Grid:\n    def __eq__(self, other):\n        return self.symmetry == other.symmetry\n")
    assert symmetry_readers(source) == {"<module>", "plan", "Grid.__eq__"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_symmetry_tag_is_read_only_where_it_decides(path):
    assert symmetry_readers(path.read_text()) <= SYMMETRY_READERS.get(path.name, set())


# The rotation matcher runs once per symmetry plan, over the whole group at once: a call per
# group element or per rotation (in a loop or a comprehension) repeats its sort and search,
# 5.2 ms per plan against 0.8 ms at 16 x 8 angles.
def matcher_calls(source: str, name: str = "_image"):
    """``(function, in_loop)`` for each call of ``name`` (or ``<anything>.name``) in ``source``.

    A call outside every function is named ``<module>``; a method ``Class.method``.
    """
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = []

    def visit(node, owner, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef) and owner == "<module>":
                visit(child, f"{child.name}.", in_loop)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    owner == "<module>" or owner.endswith(".")):
                visit(child, owner.replace("<module>", "") + child.name, False)
            else:
                func = child.func if isinstance(child, ast.Call) else None
                if name in (getattr(func, "id", None), getattr(func, "attr", None)):
                    found.append((owner, in_loop))
                # a nested function is its owner's; a loop around it counts
                visit(child, owner, in_loop or isinstance(child, loops))

    visit(ast.parse(source), "<module>", False)
    return found


def test_guard_flags_a_matcher_call_outside_the_plan():
    source = ("def _symmetry_plan(g):\n    return _image(keys, w, group)\n\n"
              "def _orbits(g):\n    return [_image(keys, w, a[None]) for a in group]\n\n"
              "def per_element(g):\n    for a in group:\n        orbits._image(keys, w, a[None])\n\n"
              "class Plan:\n    def build(self):\n        return _image(self.keys, self.w, self.g)\n"
              "\nIMAGES = _image(KEYS, W, G)\n")
    assert matcher_calls(source) == [("_symmetry_plan", False), ("_orbits", True),
                                     ("per_element", True), ("Plan.build", False),
                                     ("<module>", False)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_matcher_runs_once_per_symmetry_plan(path):
    expected = [("_symmetry_plan", False)] if path.name == "orbits.py" else []
    assert matcher_calls(path.read_text()) == expected


# A Gauss-Legendre rule is an eigen-solve in numpy's leggauss: quadrature._gauss_legendre builds
# each order once, read-only, for every quadrature in the package (0.28 ms of a 0.54 ms
# parameter grid at 8 polar nodes when rebuilt per call).
def test_guard_flags_a_second_gauss_legendre_rule():
    source = ("import numpy as np\nfrom numpy.polynomial.legendre import leggauss\n\n"
              "def _gauss_legendre(n):\n    return np.polynomial.legendre.leggauss(n)\n\n"
              "def profile(n):\n    mu, w = leggauss(n)\n\n"
              "class Grid:\n    def build(self):\n"
              "        return [np.polynomial.legendre.leggauss(n) for n in (2, 4)]\n"
              "\nRULE = leggauss(16)\n")
    assert matcher_calls(source, "leggauss") == [("_gauss_legendre", False), ("profile", False),
                                                  ("Grid.build", True), ("<module>", False)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_cached_helper_builds_gauss_legendre_rules(path):
    expected = [("_gauss_legendre", False)] if path.name == "quadrature.py" else []
    assert matcher_calls(path.read_text(), "leggauss") == expected


# Every rule built on Gauss-Legendre nodes, the radial panels and the sphere's product rule,
# is quadrature.py's: a module that calls _gauss_legendre itself builds a second copy of one.
RULE_BUILDERS = [("_panels", False), ("_sphere_rule", False)]


def test_guard_flags_a_rule_built_outside_quadrature():
    source = ("from .quadrature import _gauss_legendre\n\n"
              "def _decade_sums(profile, n):\n    nodes, wts = _gauss_legendre(16)\n\n"
              "def _angular_profile(pair, n):\n"
              "    return [quadrature._gauss_legendre(m) for m in (n, 2 * n)]\n\n"
              "MU, W = _gauss_legendre(8)\n")
    assert matcher_calls(source, "_gauss_legendre") == [("_decade_sums", False),
                                                        ("_angular_profile", True),
                                                        ("<module>", False)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_quadrature_builds_rules_on_gauss_legendre_nodes(path):
    expected = RULE_BUILDERS if path.name == "quadrature.py" else []
    assert matcher_calls(path.read_text(), "_gauss_legendre") == expected


# The package is configured by its arguments and options alone: a setting read from the
# environment would be a second way to set what ``threads=`` and ``--threads`` set.
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str):
    """Lines of ``source`` that name ``os.environ``/``os.getenv`` or import them from ``os``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS:
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                a.name in ENVIRONMENT_READS for a in node.names):
            found.append(node.lineno)
    return found


def test_guard_flags_an_environment_read():
    source = ("import os\nfrom os import getenv\n\n"
              "def f():\n    n = os.environ.get('N', '')\n"
              "    return os.getenv('M'), os.cpu_count()\n")
    assert environment_reads(source) == [2, 5, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_environment_variable(path):
    assert environment_reads(path.read_text()) == []


# A wave speed c, a time step dt, a dilation a, a lattice spacing h_* and the catalog wavelets'
# parameters are positive finite numbers by one rule, fields._positive_finite, whose
# comparisons are on its argument x.  A comparison of one of these names with 0 anywhere in
# the package is a second copy of it.
POSITIVE_FINITE_NAMES = {"c", "dt", "a", "h", "h_x", "h_y", "h_z",
                         "alpha", "p", "gamma", "eps1", "eps2"}


def zero_comparisons(source: str):
    """Lines of ``source`` where a name of POSITIVE_FINITE_NAMES (or ``obj.<name>``) meets 0."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            named = any(getattr(op, "id", getattr(op, "attr", None)) in POSITIVE_FINITE_NAMES
                        for op in operands)
            zero = any(isinstance(op, ast.Constant) and type(op.value) in (int, float)
                       and op.value == 0 for op in operands)
            if named and zero:
                found.append(node.lineno)
    return sorted(found)


def test_guard_flags_a_second_positive_check():
    source = ("def f(c, dt, grid, x, n):\n    if not (c > 0):\n        raise ValueError\n"
              "    assert 0.0 < dt < inf\n    ok = grid.h_y <= 0 or self.a > 0.0\n"
              "    return 0 < x < inf, n > 0, c > 1, grid.a_min > 0, c == other\n")
    assert zero_comparisons(source) == [2, 4, 5, 5]


def test_guard_flags_a_second_positive_check_of_a_wavelet_parameter():
    source = ("def f(alpha, p, gamma, eps1, eps2, proxy):\n"
              "    if not (alpha > 0) or p <= 0.0:\n        raise ValueError\n"
              "    return eps1 == 0, 0 < gamma, proxy.eps2 > 0, p > 1, eps1 == eps2\n")
    assert zero_comparisons(source) == [2, 2, 4, 4, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_helper_checks_a_positive_quantity(path):
    assert zero_comparisons(path.read_text()) == []


# Every work loop (slice tasks, the axial table's dilation blocks, its Clenshaw chunks, the
# node-orbit chunks) is cut by cwt._blocks, the one reader of the task budget; a second reader
# would be a second block rule with its own arithmetic.
def task_budget_readers(source: str):
    """The top-level functions of ``source`` that read ``_TASK_BYTES`` (or ``obj._TASK_BYTES``).

    A read outside every function is named ``<module>``, an import of the name ``<import>``.
    """
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and any(a.name == "_TASK_BYTES" for a in node.names):
                found.add("<import>")
            elif (getattr(node, "id", getattr(node, "attr", None)) == "_TASK_BYTES"
                  and isinstance(node.ctx, ast.Load)):
                found.add(top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                          else "<module>")
    return found


def test_guard_flags_a_second_task_budget_reader():
    source = ("from .cwt import _TASK_BYTES, _blocks\nHALF = _TASK_BYTES // 2\n\n"
              "def _blocks(n, item):\n    return _TASK_BYTES // item\n\n"
              "def chunk(n):\n    return max(1, cwt._TASK_BYTES // (8 * n))\n\n"
              "def fine(n):\n    _TASK_BYTES = n\n    return '_TASK_BYTES', _blocks(n, 8)\n")
    assert task_budget_readers(source) == {"<import>", "<module>", "_blocks", "chunk"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_block_rule_reads_the_task_budget(path):
    assert task_budget_readers(path.read_text()) == ({"_blocks"} if path.name == "cwt.py" else set())
