"""README names only what the package has: every backticked ``module.name`` resolves."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in (ROOT / "src" / "wavecwt").glob("*.py")} - {"__init__"}


def module_references(text: str):
    """``(module, dotted name)`` of every backticked ``module.name`` naming a package module.

    A file name such as ``orbits.py`` is not a reference.
    """
    found = re.findall(r"`(\w+)\.([A-Za-z_]\w*(?:\.\w+)*)`", text)
    return [(module, name) for module, name in found if module in MODULES and name != "py"]


def resolves(module: str, name: str) -> bool:
    owner = importlib.import_module(f"wavecwt.{module}")
    for part in name.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_guard_flags_a_name_the_package_lacks():
    text = ("`orbits._twins` and `fileio.Payload.read`, `cwt.py`, `numpy.fft`, "
            "`fft.points`, `fields._radius`")
    refs = module_references(text)
    assert refs == [("orbits", "_twins"), ("fileio", "Payload.read"), ("fields", "_radius")]
    assert [resolves(*ref) for ref in refs] == [False, True, True]


@pytest.mark.parametrize("module, name", sorted(set(module_references(
    (ROOT / "README.md").read_text()))), ids=lambda v: v)
def test_readme_reference_resolves(module, name):
    assert resolves(module, name)
