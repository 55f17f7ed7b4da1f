import ast
from pathlib import Path

import stavskaya


def test_public_names_resolve():
    for name in stavskaya.__all__:
        assert hasattr(stavskaya, name), name
    namespace = {}
    exec("from stavskaya import *", namespace)
    assert set(stavskaya.__all__) <= set(namespace)


def test_patterns_imports_no_later_layer():
    # the layers run patterns -> statespace -> spectral -> search, and the
    # move rule lives in patterns, so it must not reach up the stack
    tree = ast.parse(Path(stavskaya.patterns.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    for layer in ("statespace", "spectral", "search"):
        assert not any(layer in name.split(".") for name in names), layer
