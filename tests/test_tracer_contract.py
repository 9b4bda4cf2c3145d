"""The benchmark's tracer wraps ``recrisk.<layer>.<fn>`` by module and name,
and reads the path argument of the readers and writers by position.  A
function renamed, moved or re-signatured here would silently drop out of the
traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, fn) for layer, names in tracer.LAYERS.items() for fn in names]


@pytest.mark.parametrize("layer, fn", _traced_functions())
def test_traced_function_exists(layer, fn):
    target = getattr(importlib.import_module(f"recrisk.{layer}"), fn, None)
    assert callable(target)
    params = list(inspect.signature(target).parameters)
    if fn.startswith("read_"):
        assert params[0] == "path_or_buffer"
    if fn.startswith("write_"):
        assert params[1] == "path_or_buffer"
