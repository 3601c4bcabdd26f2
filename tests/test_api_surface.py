"""Every public name of the package resolves.

A deleted function must leave no stale export behind: each name in a
module's ``__all__`` exists, ``from macresolve.<module> import *`` succeeds,
and each name ``macresolve/__init__.py`` imports exists.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import macresolve

MODULES = sorted(m.name for m in pkgutil.iter_modules(macresolve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"macresolve.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"macresolve.{name}.__all__ names missing {missing}"
    exec(f"from macresolve.{name} import *", {})


def test_package_imports_exist():
    tree = ast.parse(Path(macresolve.__file__).read_text())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"macresolve.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), \
                f"macresolve/__init__.py imports {node.module}.{alias.name}"
