"""The benchmark's trace mode patches package functions by name; they must exist."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module,attr,span", _targets())
def test_trace_target_resolves(module, attr, span):
    owner = importlib.import_module(f"twosheet.{module}")
    for name in attr.split("."):
        owner = getattr(owner, name)
    assert callable(owner), span
