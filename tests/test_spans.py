"""Every name the benchmark tracer wraps must exist on the package.

``bench/spans.py`` replaces each (layer, path) in SPANS by a timing wrapper
when ``bench/run.py --trace 1`` runs; a renamed or deleted function would
only show up there.  This test loads the span list read-only and resolves
each path, without installing anything.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
from pathlib import Path

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_traced_name_resolves():
    unresolved = []
    for layer, path in load_spans():
        owner = importlib.import_module(f"hartogs.{layer}")
        try:
            target = functools.reduce(getattr, path.split("."), owner)
        except AttributeError:
            target = None
        if not callable(target):
            unresolved.append(f"{layer}.{path}")
    assert unresolved == []
