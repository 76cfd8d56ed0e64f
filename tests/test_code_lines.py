"""The code-line count of scripts/code_lines.py."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
two lines."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        s = """a multi-line
string that is code"""
        return math.sqrt(
            x
        )
'''


def test_code_lines_skip_comments_docstrings_and_blanks():
    # import, class, def, the two lines of the string, and the three of the return
    assert code_lines.code_lines(SAMPLE) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split("\t")[1:] == ["8", "17"]
    assert out[1].split("\t")[1:] == ["1", "3"]
    assert out[2] == "total\t9\t20"
