"""The benchmark traces basisdetect from outside, by module and function
name (``perfbench/tracing.py``); a renamed or moved function would silently
drop out of its per-layer report, so every traced name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [pair for layer in tracing.LAYERS.values() for pair in layer]
    assert pairs
    for module_name, function_name in pairs:
        module = importlib.import_module("basisdetect." + module_name)
        assert callable(getattr(module, function_name, None)), (
            module_name,
            function_name,
        )
