"""The names the benchmark's tracer patches must exist in the package.

``perfbench/tracing.py`` wraps pairsim functions by module and attribute
name, and replaces the private ``experiments._cell_outcome``. A rename or
deletion there would only fail a benchmark run; this test fails the
suite instead. The tracer is loaded from its file, not installed.
"""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing_module()
_TARGETS = [
    (module, attr)
    for module, attr, _ in _TRACING.SPAN_TARGETS + _TRACING.HOT_TARGETS
] + [("pairsim.experiments", "_cell_outcome")]


@pytest.mark.parametrize("module, attr", _TARGETS, ids=[f"{m}.{a}" for m, a in _TARGETS])
def test_benchmark_hook_resolves(module, attr):
    # an attribute "Class.method" names a method on the class
    target = reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(target)
