"""Outside-in tracing of basisdetect from the benchmark's own code.

``install`` wraps the public functions of each layer.  ``cli``, ``sagbi``,
``groebner`` and ``toric`` bind many of them by name at import time, so a
function is replaced in every ``basisdetect`` module that holds it, not
only in the module that defines it; otherwise the CLI's calls would be
missed.  Each call records one span ``[name, start, end, parent]`` in
memory; counts are taken at the same boundaries from arguments and
results.  The package source is not changed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs, grouped into the layers the benchmark reports.
LAYERS = {
    "cli": (("cli", "main"), ("cli", "parse_system")),
    "enumeration": (
        ("orders", "extract_weight_vectors"),
        ("orders", "cone_feasibility"),
        ("lp", "maximize"),
    ),
    "criterion": (
        ("groebner", "is_groebner_basis"),
        ("groebner", "normal_form"),
        ("groebner", "s_polynomial"),
        ("groebner", "buchberger"),
        ("toric", "toric_ideal_generators"),
        ("toric", "relations_up_to_degree"),
        ("toric", "solve_monomial_membership"),
        ("sagbi", "is_sagbi_subduction"),
        ("sagbi", "subduction"),
    ),
    "ranking": (
        ("orders", "normalized_volume"),
        ("orders", "polytope_dim"),
        ("sagbi", "hilbert_vector"),
        ("sagbi", "rank_orders"),
    ),
}

LAYER_OF = {
    "%s.%s" % pair: layer for layer, pairs in LAYERS.items() for pair in pairs
}


def _add(counts: dict, key: str, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


def _cone_feasibility(counts, args, result):
    kind = "candidate_calls" if len(args[0]) == 1 else "joint_calls"
    _add(counts, "orders.cone_feasibility." + kind, 1)


def _maximize(counts, args, result):
    # cells of the dense tableau: rows x (structural + slack columns)
    objective, rows = args[0], args[1]
    _add(counts, "lp.maximize.cells", len(rows) * (len(objective) + len(rows)))


def _rank_orders(counts, args, result):
    criterion = args[1] if len(args) > 1 else "nicer"
    _add(counts, "rank.%s_classes" % criterion, sum(len(g) for g in result))


# Counts beyond the call count, taken from a call's arguments and result.
COUNTERS = {
    "orders.extract_weight_vectors": lambda c, a, r: _add(c, "enumerate.classes", len(r)),
    "orders.cone_feasibility": _cone_feasibility,
    "lp.maximize": _maximize,
    "groebner.is_groebner_basis": lambda c, a, r: _add(c, "groebner.is_groebner_basis.pass", int(r)),
    "toric.toric_ideal_generators": lambda c, a, r: _add(c, "toric.toric_ideal_generators.binomials", len(r)),
    "sagbi.is_sagbi_subduction": lambda c, a, r: _add(c, "sagbi.is_sagbi_subduction.pass", int(r)),
    "sagbi.subduction": lambda c, a, r: _add(c, "sagbi.subduction.steps", len(r.steps)),
    "sagbi.rank_orders": _rank_orders,
}


class Recorder:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced


def install(recorder: Recorder):
    """Wrap every traced function wherever basisdetect binds it; returns
    the ``basisdetect.cli`` module, whose ``main`` is then traced."""
    cli = importlib.import_module("basisdetect.cli")
    modules = [
        module
        for name, module in list(sys.modules.items())
        if name == "basisdetect" or name.startswith("basisdetect.")
    ]
    for qualified in LAYER_OF:
        module_name, fn_name = qualified.split(".")
        original = getattr(importlib.import_module("basisdetect." + module_name), fn_name)
        wrapper = recorder.wrap(qualified, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return cli


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per function: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus that of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), covered in zip(spans, child):
        stats = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stats["calls"] += 1
        stats["s"] += end - start
        stats["self_s"] += end - start - covered
    return out
