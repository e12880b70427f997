"""The code-line counter of ``tools/code_lines.py`` on a synthetic source."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import os  # a comment


def f(x):
    """One line."""
    # only a comment
    y = (x +
         1)
    s = """not a docstring:
    two lines"""
    return y


class A:
    """Class
    docstring."""

    z = 1
'''


def test_counts_token_lines_without_docstrings_comments_or_blanks():
    # import, def, the two lines of y, the two of s, return, class, z
    assert code_lines.code_lines(SOURCE) == 9
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 8, 18, 19}


def test_main_totals_the_files_of_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "one.py").write_text(SOURCE)
    (tmp_path / "pkg" / "two.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 10
    assert capsys.readouterr().out.splitlines()[-1].split() == ["10", "total"]
