"""The code-line counter in bench/code_lines.py, on a small synthetic source."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "bench" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''\
"""Module docstring,
over two lines."""

import math  # a trailing comment does not hide the code

# a comment line


class Box:
    """Class docstring."""

    def size(self):
        """Method docstring,

        with a blank line inside."""
        total = max(1,
                    2,
                    3)
        text = """not a docstring,
on two lines"""
        return total + len(text)
'''


def test_counts_only_code_lines():
    """Code: import, class, def, the call's 3 lines, the string's 2 lines
    and return; not the docstrings (6 lines), comments or blank lines."""
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 10, 13, 14, 15}
    assert code_lines.code_lines(SOURCE) == 9


def test_counts_each_module_and_the_total(tmp_path):
    """Python modules only, largest first."""
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    counts = code_lines.count_dir(str(tmp_path))
    assert counts == {"modules": {"b": 9, "a": 1}, "total": 10}
    assert list(counts["modules"]) == ["b", "a"]
