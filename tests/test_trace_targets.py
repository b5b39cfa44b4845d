"""The benchmark's traced run wraps ``lottalora`` functions and methods by
name (``perfbench/trace.py``'s ``TARGETS``).  A rename or deletion in the
package would break that run, so every target must resolve here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE_PY = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PY)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace.TARGETS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in load_targets()])
def test_trace_target_resolves(module, attr):
    home = importlib.import_module("lottalora." + module)
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer patches the method found in the class's own namespace
        assert callable(vars(getattr(home, cls_name)).get(method))
    else:
        assert callable(getattr(home, attr, None))
