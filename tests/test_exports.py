"""Every exported name must resolve.

A function deleted from a module but left in its ``__all__`` or in the
package's imports would otherwise only fail for a caller that reaches for
it.  This test reads each ``hartogs.*`` module's ``__all__`` and the names
that ``hartogs/__init__.py`` imports, and resolves every one.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import hartogs


def test_every_name_in_all_resolves():
    unresolved = []
    for info in pkgutil.iter_modules(hartogs.__path__):
        module = importlib.import_module(f"hartogs.{info.name}")
        unresolved += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert unresolved == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(hartogs.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    unresolved = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(f"hartogs.{module}"), name)
        or not hasattr(hartogs, name)
    ]
    assert unresolved == []
