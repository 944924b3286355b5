"""The names perfbench/tracer.py wraps must exist on the package.

The tracer swaps (module, attribute) bindings for timing wrappers; a name
removed from the package breaks only its `--trace 1` runs, which the
unit suite does not otherwise exercise. The tracer is loaded by path, so
no perfbench code runs beyond defining its tables.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TABLES = _tracer()
BINDINGS = sorted({(layer, module, attr)
                   for table in (_TABLES.SPANS, _TABLES.COUNTED)
                   for layer, pairs in table.items()
                   for module, attr in pairs})


def test_tracer_binds_names():
    assert BINDINGS


@pytest.mark.parametrize("layer, module, attr", BINDINGS,
                         ids=[f"{m}.{a}" for _, m, a in BINDINGS])
def test_traced_binding_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"{layer}: {module}.{attr} is gone")
