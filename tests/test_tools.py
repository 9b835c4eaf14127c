"""The repository's own scripts under ``tools/``."""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

TOOLS = Path(__file__).resolve().parent.parent / "tools"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_src_lines():
    return load_tool("src_lines")


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


def test_unit_ab_times_each_unit_of_a_workload():
    # in a child, as the script pins the process that runs it to one CPU
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "unit_ab.py"), "--workload", "dsl-cli",
         "--calls", "2"], capture_output=True, text=True, timeout=600)
    assert (proc.returncode, proc.stderr) == (0, "")
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert (result["rev"], result["calls"]) == ("HEAD", 2)
    # one line per unit, then the workload's total
    names = [line.split()[0] for line in lines]
    assert names == list(result["units"]) and names[-1] == "dsl-cli"
    assert len(set(names)) == len(names)
    assert sum(name.startswith("golden") for name in names) == len(
        list(GOLDEN.glob("*.cps")))
    units = [result["units"][name] for name in names[:-1]]
    total = result["units"]["dsl-cli"]
    for side in ("rev", "tree"):
        assert all(unit[f"{side}_ms"] > 0 for unit in units)
        assert abs(total[f"{side}_ms"]
                   - sum(unit[f"{side}_ms"] for unit in units)) < 1e-6
        assert total[f"{side}_peak_b"] == max(unit[f"{side}_peak_b"]
                                              for unit in units)


def test_unit_ab_stops_on_a_unit_whose_check_fails(monkeypatch, capsys):
    unit_ab = load_tool("unit_ab")
    calls = []

    def load_workloads(side, package, bench):
        def units(rng, root, scratch):
            return SimpleNamespace(units=[
                SimpleNamespace(kind="good", call=lambda: calls.append(side),
                                check=lambda result: True),
                SimpleNamespace(kind="bad", call=lambda: None,
                                check=lambda result: side == "rev")])
        return SimpleNamespace(WORKLOADS={"fake": units})

    monkeypatch.setattr(unit_ab, "load_workloads", load_workloads)
    # this process keeps its CPUs and its BLAS threads
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert unit_ab.main(["unit_ab.py", "--workload", "fake"]) == 1
    assert capsys.readouterr() == ("", "unit_ab: bad in tree fails its "
                                       "check\n")
    # each unit ran once in each tree, and nothing was timed
    assert calls == ["rev", "tree"]
