"""Static checks on the package source.

No linter ships with the test environment, so this scans the syntax
tree of every module in ``src/cpcat`` for imported names that the
module never uses, and for module-level private functions, classes and
constants that nothing in their module refers to.  ``__init__.py`` is
skipped: it lists the package's public names.  It also checks that
every function the benchmark's tracer wraps still exists and that the
tracer sees the products of both instances and every term the command
line builds, that every public name is its module's own object and is
used by the package, the benchmark or the acceptance gate, and that
every axiom runner takes exactly the arguments the CLI and the
benchmark pass.  It checks that no code
outside the two semiring classes asks which instance it is on, that
``np.einsum`` is called only from :func:`cpcat.core.contract`, that
every ``tol`` default is a named constant, and that ``print`` is called
only from :func:`cpcat.cli._emit` and :func:`cpcat.cli.main`.  Last, it
checks that the package's modules import each other without a cycle,
and that the kernel, :mod:`cpcat.core`, imports no package module but
the errors.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import cpcat
from cpcat import axioms, cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cpcat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TRACER = ROOT / "perfbench" / "tracer.py"
# what a public name must be used by: the package itself, the benchmark
# and the acceptance gate
REACHING = MODULES + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]
# the DSL's script printer, the inverse of ``parse_script``: nothing
# calls it, but the golden print/parse round trips pin it
UNREACHED_BY_DESIGN = {"print_script"}
# the classes that own whatever differs between the instances
INSTANCE_CLASSES = {"ComplexSemiring", "BooleanSemiring"}


def unused_imports(source: str) -> list:
    """Names bound by import statements and never loaded afterwards."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def unused_private_names(source: str) -> list:
    """Module-level ``_name`` definitions never loaded in the module."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name not in used)


def unreached_public_names(public, sources, traced) -> list:
    """Names in ``public`` that no source loads and no tracer entry names.

    A name counts as loaded where it is read as a name or as an
    attribute, so ``cpcat.errors`` and ``axioms.run_xi`` both count.
    """
    used = set(traced)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                used.add(node.attr)
    return sorted(set(public) - used)


def load_tracer():
    # the tracer looks each name up only when a traced benchmark runs
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_the_scan_finds_an_unused_import():
    source = "import os\nfrom json import dumps, loads\nloads('1')\n"
    assert unused_imports(source) == [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_private_name():
    source = ("_USED = 1\n_SPARE: int = 2\n"
              "def _helper():\n    return _USED\n"
              "class _Kept:\n    pass\n"
              "def public():\n    return _Kept()\n"
              "__version__ = '1'\n")
    assert unused_private_names(source) == [(2, "_SPARE"), (3, "_helper")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_every_traced_function_exists():
    tracer = load_tracer()
    missing = [f"{module}.{name}"
               for module, names in tracer.FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"cpcat.{module}"), name, None))]
    assert missing == []


def test_the_tracer_sees_every_product_of_either_instance():
    # Semiring.matmul is the one entry of every product, and the tracer
    # wraps it there; a class that overrode it would hide its products
    tracer = load_tracer()
    spans = tracer.Tracer()
    restore = tracer.install(spans)
    try:
        for semiring in cpcat.SEMIRINGS.values():
            semiring.matmul(semiring.eye(2), semiring.eye(2))
    finally:
        restore()
    totals = spans.totals()
    assert [totals[f"core.matmul.{name}"][0]
            for name in cpcat.SEMIRINGS] == [1, 1]


def test_the_tracer_sees_every_term_build(tmp_path, capsys):
    # every command that builds a term checks it with dsl.check_term and
    # builds it with dsl.eval_term, the span the benchmark times
    script = tmp_path / "terms.cps"
    script.write_text("mor k : 2 -> 2*1 = id 2 ;\n"
                      "eq k ; dagger k, id 2 ;\n"
                      "eval k ox id 3 ;\n")
    runs = {("eval", "--script", str(script)): 4,   # binding, eq, eval
            ("eq", "swap 2 2 ; swap 2 2", "id 4"): 2,
            ("choi", "id 2 ox id 1"): 1,
            ("cp-compose", "id 2 ox id 1", "swap 2 2"): 2,
            ("eval", "dagger swap 2 3"): 1}
    tracer = load_tracer()
    spans = tracer.Tracer()
    restore = tracer.install(spans)
    try:
        codes = [cli.main(list(argv)) for argv in runs]
    finally:
        restore()
    capsys.readouterr()
    assert codes == [0] * len(runs)
    assert spans.totals()["dsl.eval_term"][0] == sum(runs.values()) == 10


def test_the_scan_finds_an_unreached_public_name():
    sources = ["from m import a, b\nimport m\nm.c()\na()\nb = 1\n"]
    assert unreached_public_names(["a", "b", "c", "d", "e"], sources,
                                  ["e"]) == ["b", "d"]


def test_every_public_name_is_reached():
    traced = [name for names in load_tracer().FUNCTIONS.values()
              for name in names]
    unreached = unreached_public_names(
        cpcat.__all__, [p.read_text(encoding="utf-8") for p in REACHING],
        traced)
    assert unreached == sorted(UNREACHED_BY_DESIGN)


def test_every_public_name_is_its_modules_own():
    # the package imports each module at the first use of one of its
    # names, and hands out the module's own object, not a copy
    public = {name: importlib.import_module(f"cpcat.{module}")
              for module, names in cpcat._PUBLIC.items() for name in names}
    public["errors"] = cpcat
    assert sorted(public) == cpcat.__all__
    assert [name for name, module in public.items()
            if getattr(cpcat, name) is not getattr(module, name)] == []
    assert cpcat.cp_form is cpcat.cp.cp_form
    assert cpcat.KRAUS_EIG_TOL is cpcat.channels.KRAUS_EIG_TOL
    star = {}
    exec("from cpcat import *", star)
    assert sorted(set(star) - {"__builtins__"}) == cpcat.__all__
    with pytest.raises(AttributeError, match="no attribute 'cp_from'"):
        cpcat.cp_from


def test_every_runner_takes_the_cli_protocol():
    # the CLI and the benchmark call every runner with exactly these
    # arguments; a runner with more has a knob nothing sets.  Every
    # runner is told its instance, and checks at the CLI's tolerance
    # unless told another
    runners = [*axioms.AXIOM_RUNNERS.values(), axioms.run_replay]
    assert {r.__name__: list(inspect.signature(r).parameters)
            for r in runners} == {
        r.__name__: ["semiring", "samples", "seed", "tol"] for r in runners}
    defaults = {r.__name__: inspect.signature(r).parameters for r in runners}
    assert {name: (p["semiring"].default, p["tol"].default)
            for name, p in defaults.items()} == {
        name: (inspect.Parameter.empty, cpcat.DEFAULT_TOL)
        for name in defaults}


def is_name(node, *names) -> bool:
    return isinstance(node, ast.Name) and node.id in names


def is_np_bool(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "bool_"
            and is_name(node.value, "np", "numpy"))


def instance_branches(source: str) -> list:
    """``(line, code)`` of each test of which instance the code is on.

    That is a comparison of anything with ``np.bool_`` (a dtype test), an
    ``is`` or ``is not`` against ``BOOLEAN`` or ``COMPLEX``, or a call of
    ``iscomplexobj``, anywhere but in the bodies of
    :data:`INSTANCE_CLASSES`.
    """
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in INSTANCE_CLASSES:
            exempt.update(ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if node in exempt:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            hit = any(is_np_bool(x) for x in operands) or any(
                isinstance(op, (ast.Is, ast.IsNot))
                and (is_name(x, "BOOLEAN", "COMPLEX")
                     or is_name(y, "BOOLEAN", "COMPLEX"))
                for op, x, y in zip(node.ops, operands, operands[1:]))
        else:
            hit = (isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None) == "iscomplexobj")
        if hit:
            found.append((node.lineno, ast.get_source_segment(source, node)))
    return sorted(found)


def test_the_scan_finds_an_instance_branch():
    source = ("def f(m, s, x):\n"
              "    a = m.dtype is np.bool_\n"
              "    b = s is not COMPLEX\n"
              "    c = BOOLEAN is s or np.iscomplexobj(x)\n"
              "    d = x.dtype == numpy.bool_\n"
              "    e = s is m.semiring and x.view(np.bool_)\n"
              "class BooleanSemiring:\n"
              "    def g(self, a):\n"
              "        return a.dtype != np.bool_\n")
    assert instance_branches(source) == [
        (2, "m.dtype is np.bool_"), (3, "s is not COMPLEX"),
        (4, "BOOLEAN is s"), (4, "np.iscomplexobj(x)"),
        (5, "x.dtype == numpy.bool_")]


def test_no_caller_asks_which_instance_it_is_on():
    # each such branch would need editing for a third instance; the
    # instance's class decides instead
    found = {path.name: instance_branches(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def einsum_calls(source: str, module: str) -> list:
    """``(line, code)`` of each ``einsum`` call outside ``core.contract``.

    :func:`cpcat.core.contract` is the package's one exact contraction
    kernel; a call anywhere else would be a second one.
    """
    tree = ast.parse(source)
    exempt = set()
    if module == "core.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "contract":
                exempt.update(ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and node not in exempt
                and (getattr(node.func, "attr", None) == "einsum"
                     or is_name(node.func, "einsum"))):
            found.append((node.lineno, ast.get_source_segment(source, node)))
    return sorted(found)


def test_the_scan_finds_an_einsum_call():
    source = ("import numpy as np\n"
              "from numpy import einsum\n"
              "def contract(spec, *ops):\n"
              "    return np.einsum(spec, *ops)\n"
              "def other(a):\n"
              "    return np.einsum('ij->ji', a) + einsum('ii', a)\n")
    assert einsum_calls(source, "core.py") == [
        (6, "einsum('ii', a)"), (6, "np.einsum('ij->ji', a)")]
    assert einsum_calls(source, "cp.py") == [
        (4, "np.einsum(spec, *ops)"), (6, "einsum('ii', a)"),
        (6, "np.einsum('ij->ji', a)")]


def test_einsum_is_called_only_from_the_contraction_kernel():
    found = {path.name: einsum_calls(path.read_text(encoding="utf-8"),
                                     path.name)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def package_imports(sources: dict) -> dict:
    """Each module's name mapped to the package modules it imports.

    ``sources`` maps module names (``__init__`` for the package itself)
    to their source.  Every import statement counts, inside functions
    too, relative or through ``cpcat``; ``from . import x`` imports the
    module ``x`` where there is one, otherwise the package, as does
    ``from cpcat import x``.
    """
    graph = {}
    for name, source in sources.items():
        targets = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                paths = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                paths = [f"{base}.{alias.name}" for alias in node.names]
            else:
                continue
            for path in paths:
                parts = path.lstrip(".").split(".")
                if not path.startswith("."):
                    if parts[0] != "cpcat":
                        continue
                    parts = parts[1:]
                if parts and parts[0] not in sources:
                    parts = []
                targets.add(parts[0] if parts else "__init__")
        graph[name] = targets
    return graph


def import_cycle(graph: dict) -> list:
    """One cycle of ``graph`` as the path ``[a, ..., a]``, or ``[]``."""
    done = set()

    def visit(node, path):
        if node in path:
            return path[path.index(node):] + [node]
        if node not in done:
            for target in sorted(graph.get(node, ())):
                cycle = visit(target, path + [node])
                if cycle:
                    return cycle
            done.add(node)
        return []
    for node in sorted(graph):
        cycle = visit(node, [])
        if cycle:
            return cycle
    return []


def test_the_scan_finds_an_import_cycle():
    sources = {"__init__": "from .a import f\n",
               "a": "import numpy\nfrom .b import g\n",
               "b": "def g():\n    from . import a, errors\n",
               "c": "import cpcat.a\nfrom cpcat import b, f\n",
               "errors": ""}
    graph = package_imports(sources)
    assert graph == {"__init__": {"a"}, "a": {"b"}, "b": {"a", "errors"},
                     "c": {"__init__", "a", "b"}, "errors": set()}
    assert import_cycle(graph) == ["a", "b", "a"]
    graph["b"] = {"errors"}
    assert import_cycle(graph) == []


def test_the_package_imports_no_cycle():
    # an import deferred into a function still ties two modules into one
    # layer, so every import counts.  The kernel stands on the errors
    # alone, and each layer above imports only layers below it
    graph = package_imports({path.stem: path.read_text(encoding="utf-8")
                             for path in PACKAGE.glob("*.py")})
    assert import_cycle(graph) == []
    assert graph["core"] == {"errors"}


def tol_defaults(source: str) -> list:
    """``(line, code)`` of each ``tol`` parameter default that is not a name.

    A literal default is a second copy of a tolerance some constant
    already names, and does not move when the constant does.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        pairs = [*zip(positional[len(positional) - len(a.defaults):],
                      a.defaults), *zip(a.kwonlyargs, a.kw_defaults)]
        found.extend((arg.lineno, ast.get_source_segment(source, default))
                     for arg, default in pairs
                     if arg.arg == "tol" and default is not None
                     and not isinstance(default, ast.Name))
    return sorted(found)


def test_the_scan_finds_a_literal_tol_default():
    source = ("def f(x, tol=1e-9):\n    pass\n"
              "def g(tol=DEFAULT_TOL, *, eps=1, tol2=2):\n    pass\n"
              "def h(a, *, tol=core.TOL):\n    pass\n"
              "k = lambda tol=0.5: tol\n"
              "def m(tol, scale=3.0):\n    pass\n")
    assert tol_defaults(source) == [(1, "1e-9"), (5, "core.TOL"),
                                    (7, "0.5")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_tol_default_names_its_constant(path):
    assert tol_defaults(path.read_text(encoding="utf-8")) == []


def print_calls(source: str, module: str) -> list:
    """``(line, code)`` of each ``print`` call outside the output path.

    The command line's results go through :func:`cpcat.cli._emit`, and
    its errors through :func:`cpcat.cli.main`; a ``print`` anywhere
    else would be a second format.
    """
    tree = ast.parse(source)
    exempt = set()
    if module == "cli.py":
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name in ("_emit", "main")):
                exempt.update(ast.walk(node))
    return sorted((node.lineno, ast.get_source_segment(source, node))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and node not in exempt
                  and is_name(node.func, "print"))


def test_the_scan_finds_a_print_call():
    source = ("def _emit(fields):\n    print(fields)\n"
              "def main():\n    print('error', file=sys.stderr)\n"
              "def cmd_eq(args):\n    print(f'equal={args}')\n"
              "    return builtins.print(1)\n")
    assert print_calls(source, "cli.py") == [(6, "print(f'equal={args}')")]
    assert print_calls(source, "dsl.py") == [
        (2, "print(fields)"), (4, "print('error', file=sys.stderr)"),
        (6, "print(f'equal={args}')")]


def test_results_print_only_through_the_one_output_path():
    found = {path.name: print_calls(path.read_text(encoding="utf-8"),
                                    path.name)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
