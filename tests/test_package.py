import ast
import os
import subprocess
import sys
from pathlib import Path

import stavskaya


def test_public_names_resolve():
    for name in stavskaya.__all__:
        assert hasattr(stavskaya, name), name
    namespace = {}
    exec("from stavskaya import *", namespace)
    assert set(stavskaya.__all__) <= set(namespace)


def test_patterns_imports_no_later_layer():
    # the layers run patterns -> automaton -> statespace -> spectral ->
    # search, and the move rule lives in patterns, so it must not reach
    # up the stack
    tree = ast.parse(Path(stavskaya.patterns.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    for layer in ("automaton", "statespace", "spectral", "search"):
        assert not any(layer in name.split(".") for name in names), layer


def _package_imports(module):
    """The package modules `module` imports, all of them relatively."""
    tree = ast.parse(Path(module.__file__).read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("stavskaya"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("stavskaya")
                           for a in node.names)
    return package


def test_automaton_imports_nothing_of_the_package():
    # the chain builds each level from the one below, so it reads no
    # pattern, history table or solver
    assert _package_imports(stavskaya.automaton) == set()


def test_statespace_imports_no_solver():
    # `build_level` sits below the solver: `spectral` and `search` import
    # `statespace`, so it importing either would close a cycle
    assert _package_imports(stavskaya.statespace) == {"patterns",
                                                      "automaton", "errors"}


def _references(tree):
    """Names read in `tree`, as names or attributes, each outside the
    function or class that defines it."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_public_names_have_a_caller():
    # a public name that only its own tests call is surface to delete
    package = Path(stavskaya.__file__).parent
    worker = package.parents[1] / "perfbench" / "worker.py"
    used = set()
    for path in [*package.glob("*.py"), worker]:
        used |= _references(ast.parse(path.read_text()))
    uncalled = set(stavskaya.__all__) - used
    assert not uncalled, sorted(uncalled)


def test_cold_start_leaves_numpy_ma_unimported():
    # numpy.ma costs a fresh process tens of milliseconds and about
    # 1 MiB on first use (np.unique imports it), so the package and the
    # small levels' quotients must not pull it in
    code = """
import sys
from stavskaya import build_forbidden_set, build_state_space, build_transitions
fset = build_forbidden_set(3)
for n in (1, 2, 3):
    space = build_state_space(n, fset.restrict(n - 1))
    build_transitions(space, fset.restrict(n))
print("numpy.ma" in sys.modules)
"""
    src = str(Path(stavskaya.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["False"]
