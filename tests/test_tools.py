import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""Module docstring,
two lines."""

import math  # a trailing comment is on a code line

# a comment-only line


class Shape:
    """Class docstring."""

    def area(self):
        """Function docstring,
        two lines."""
        text = """a string that is
        not a docstring"""
        return math.pi, text
'''


def test_code_lines_counts_code_only(tmp_path):
    # import, class, def, the two lines of the string, return: 6 lines.
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "shape.py").write_text(MODULE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n')
    done = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path / "pkg")],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "     0  empty.py\n     6  shape.py\n     6  total\n"
