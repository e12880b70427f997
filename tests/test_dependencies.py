"""The package imports nothing beyond the standard library, numpy and itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wavecwt"
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


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_or_wavecwt(path):
    assert foreign_imports(path.read_text()) == []
