"""The repository's own scripts under ``tools/``."""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC_LINES = TOOLS / "src_lines.py"


def load_src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", SRC_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring
over two lines."""

# a comment line
import os


class Box:
    """A class docstring."""

    def size(self):  # a comment after code
        """A function docstring."""
        return (os.sep +
                "a")
'''


def test_src_lines_counts_lines_and_code_lines():
    # 14 lines; code is the import, the class and def lines and both
    # lines of the return.  Docstrings, the comment line and blank
    # lines are not code
    assert load_src_lines().count(SOURCE) == (14, 5)


def test_src_lines_prints_each_module_then_the_total(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "b.py").write_text(SOURCE)
    (package / "a.py").write_text("x = 1\n# a comment\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert load_src_lines().main(["src_lines.py", str(tmp_path)]) == 0
    assert out.getvalue() == ("src/pkg/a.py lines=2 code=1\n"
                              "src/pkg/b.py lines=14 code=5\n"
                              "lines=16 code=6\n")


def test_unit_ab_times_alternating_cold_launches():
    # in a child, as the script pins the process that runs it to one CPU
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "unit_ab.py"), "--launch", "--calls",
         "2"], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[:3]] == ["launch", "rev",
                                                       "tree"]
    result = json.loads(lines[-1])
    assert (result["rev"], result["calls"]) == ("HEAD", 2)
    launch = result["launch"]
    assert lines[3] == f"tree won {launch['tree_wins']} of 2 rounds"
    for side in ("rev_ms", "tree_ms"):
        q1, median, q3 = (launch[side][key] for key in ("q1", "median", "q3"))
        assert 0 < q1 <= median <= q3
