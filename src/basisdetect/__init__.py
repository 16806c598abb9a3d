"""Exact detection of Groebner and SAGBI term orders for polynomial sets.

The public names below are resolved on first use (PEP 562), and each
layer module runs only when something first reads from it, so a command
line run loads only the layers its command needs.  The layer modules are
in ``sys.modules`` from the start, so tools that look up the package's
modules there (such as the benchmark's tracer, which wraps functions in
the modules it finds) find every one of them.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# layer module -> the public names it defines
_EXPORTS = {
    "detect": (
        "is_universal_gb",
        "is_universal_sagbi",
        "verdicts",
        "weight_vectors_realizing_gb",
        "weight_vectors_realizing_sagbi",
    ),
    "groebner": (
        "DivisionResult",
        "buchberger",
        "is_groebner_basis",
        "normal_form",
        "s_polynomial",
    ),
    "orders": (
        "LatticePolytope",
        "OrderClass",
        "cone_feasibility",
        "extract_weight_vectors",
        "leading_tuple",
        "normalized_volume",
        "polytope_dim",
    ),
    "polyring": (
        "HilbertBoundWarning",
        "Polynomial",
        "PolynomialRing",
        "SubductionLimitError",
        "TermOrder",
        "homogenize_with_t",
        "initial_form",
        "initial_term",
        "normalize_weight",
        "ring",
        "support",
    ),
    "sagbi": (
        "HilbertVector",
        "SubductionResult",
        "hilbert_vector",
        "is_sagbi_hilbert",
        "is_sagbi_subduction",
        "rank_orders",
        "subduction",
    ),
    "toric": (
        "ExponentMatrix",
        "ToricBinomial",
        "solve_monomial_membership",
        "toric_ideal_generators",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def _register_lazily(module_name: str) -> None:
    """Put a layer module in ``sys.modules`` and in this namespace; its
    code runs when one of its attributes is first read."""
    name = "%s.%s" % (__name__, module_name)
    spec = find_spec(name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    globals()[module_name] = module


for _module_name in (*_EXPORTS, "lp"):
    _register_lazily(_module_name)
del _module_name


def __getattr__(name: str):
    module_name = _SOURCE.get(name)
    if module_name is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(globals()[module_name], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
