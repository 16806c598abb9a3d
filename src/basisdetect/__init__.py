"""Exact detection of Groebner and SAGBI term orders for polynomial sets.

The public names below are resolved on first use (PEP 562), and each
layer module runs only when something first reads from it, so a command
line run loads only the layers its command needs.  The layer modules are
in ``sys.modules`` from the start, so tools that look up the package's
modules there (such as the benchmark's tracer, which wraps functions in
the modules it finds) find every one of them.  The registration also lets
a layer bind another as a module without running it: ``orders``'
``from . import lp`` takes the registered module, whose code runs only
when the first function is read from it, so a system of monomials, whose
classes need no cone program, never runs ``lp``.

Each command runs only its own layers: enumeration (``orders``, ``lp``),
then one of the Groebner criterion (``groebner``), the subduction
criterion (``sagbi``, ``toric``), the Hilbert criterion (``hilbert``) or
the ranking (``rank``, which loads ``hilbert`` for 'preferable').  The
completion (``completion``) is library only.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# layer module -> the public names it defines
_EXPORTS = {
    "completion": (
        "DivisionResult",
        "buchberger",
        "normal_form",
        "s_polynomial",
    ),
    "detect": (
        "is_universal_gb",
        "is_universal_sagbi",
        "verdicts",
        "weight_vectors_realizing_gb",
        "weight_vectors_realizing_sagbi",
    ),
    "groebner": ("is_groebner_basis",),
    "hilbert": ("hilbert_vector", "is_sagbi_hilbert"),
    "orders": (
        "OrderClass",
        "cone_feasibility",
        "extract_weight_vectors",
        "leading_tuple",
    ),
    "polyring": (
        "HilbertBoundWarning",
        "Polynomial",
        "PolynomialRing",
        "SubductionLimitError",
        "TermOrder",
        "homogenize_with_t",
        "initial_form",
        "ring",
    ),
    "rank": (
        "LatticePolytope",
        "normalized_volume",
        "polytope_dim",
        "rank_orders",
    ),
    "sagbi": (
        "SubductionResult",
        "is_sagbi_subduction",
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
