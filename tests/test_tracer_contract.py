"""The benchmark tracer in perfbench/tracer.py wraps package functions by
name; every name it lists must exist, or a traced run silently loses a
layer."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from homoeuler import _kernels

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACER = _tracer()


@pytest.mark.parametrize("module,name", [
    pair for funcs in TRACER.LAYERS.values() for pair in funcs])
def test_layer_function_resolves(module, name):
    mod = importlib.import_module(f"{TRACER.Tracer.package}.{module}")
    assert callable(getattr(mod, name))


@pytest.mark.parametrize("name", TRACER.KERNEL_COUNTERS)
def test_kernel_counter_resolves(name):
    assert callable(getattr(_kernels, name))


def test_jit_flag_exists():
    assert isinstance(_kernels.JIT_ENABLED, bool)
