"""Span timers around the program's public functions, installed from outside.

Each traced name is replaced by a wrapper in every ``hartogs`` module
namespace that binds it (``cli`` and ``zeros`` import functions by name), and
methods are replaced on their class.  Spans are aggregated in memory per name:
calls, total time, self time (duration minus the time covered by directly
nested spans) and calls that raised.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, attribute path inside hartogs.<layer>)
SPANS = [
    ("cli", "main"),
    ("zeros", "scan"),
    ("zeros", "zero_witness"),
    ("zeros", "witness_candidates"),
    ("roots", "interior_root_count"),
    ("roots", "chebyshev_reduce"),
    ("roots", "squarefree_decomposition"),
    ("roots", "squarefree_part"),
    ("roots", "poly_gcd"),
    ("roots", "numeric_roots"),
    ("qpoly", "diagonal_poly"),
    ("kernel", "kernel_formula"),
    ("kernel", "numerator_effective"),
    ("kernel", "numerator_oracle"),
    ("kernel", "eval_kernel"),
    ("kernel", "series_kernel"),
    ("kernel", "series_tail_estimate"),
    ("poly", "UniPoly.div_rem"),
    ("poly", "UniPoly.__call__"),
]
# The one failure count reported: the float diagnostic that overflows today.
FAILED_SPANS = ["roots.numeric_roots"]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, raised]
        self._open: list[float] = []      # child time covered, per open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                duration = clock() - start
                covered = open_spans.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - covered
                if open_spans:
                    open_spans[-1] += duration

        return span

    def install(self) -> None:
        """Replace every traced name; the program must already be imported."""
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "hartogs" or name.startswith("hartogs.")]
        for layer, path in SPANS:
            owner = sys.modules[f"hartogs.{layer}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(f"{layer}.{path}", getattr(cls, attr)))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(f"{layer}.{path}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def metrics(self) -> dict[str, dict]:
        out = {}
        for layer, path in SPANS:
            name = f"{layer}.{path}"
            calls, total, self_s, _ = self.stats[name]
            out[f"{name}.calls"] = {"value": calls, "unit": "count"}
            out[f"{name}.total_s"] = {"value": total, "unit": "s"}
            out[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        for name in FAILED_SPANS:
            out[f"{name}.failed"] = {"value": self.stats[name][3], "unit": "count"}
        return out
