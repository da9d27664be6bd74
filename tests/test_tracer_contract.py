"""The benchmark tracer in perfbench/tracer.py wraps package functions by
name; every name it lists must exist, or a traced run silently loses a
layer."""

import functools
import importlib
import importlib.util
import tokenize
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


def test_kernel_counters_see_every_call(monkeypatch):
    # the tracer counts kernel calls by rebinding these module globals; a
    # caller that inlined them, or kept its own reference, would be missed
    from homoeuler.core import FlowParams
    from homoeuler.orbits import (PhaseState, ReturnToAxis, find_intercepts,
                                  integrate_orbit)
    from homoeuler.periods import span_quadrature

    counts = dict.fromkeys(TRACER.KERNEL_COUNTERS, 0)
    counts["main_dp_steps"] = 0
    depth = [0]

    def counting(name):
        inner = getattr(_kernels, name)

        def wrapper(*args):
            counts[name] += 1
            if name == "_dp_step" and not depth[0]:
                counts["main_dp_steps"] += 1
            depth[0] += name == "_dp_substeps"
            try:
                return inner(*args)
            finally:
                depth[0] -= name == "_dp_substeps"
        return wrapper

    for name in TRACER.KERNEL_COUNTERS:
        monkeypatch.setattr(_kernels, name, counting(name))
    p = FlowParams(3.0, -1.0, 1.0)
    orbit = integrate_orbit(p, PhaseState(find_intercepts(p).x0, 0.0),
                            ReturnToAxis())
    # every accepted step leaves a sample; the axis event adds the last one
    assert counts["main_dp_steps"] >= len(orbit.samples) - 1
    assert counts["_dp_substeps"] > 0
    span_quadrature(3.0, -1.0, 1.0)
    # adaptive_gk evaluates one panel, then two per bisection
    assert counts["_gk_panel"] > 1 and counts["_gk_panel"] % 2 == 1
    # a call that runs out of panels bisects max_panels - 1 times
    counts["_gk_panel"] = 0
    max_panels = 16
    f = functools.partial(_kernels._integrand_hyp, 9.0, 1.0, 4.0 / 3.0)
    _v, _e, status = _kernels.adaptive_gk(f, 0.0, 1.5, 0.0, max_panels)
    assert status == 1
    assert counts["_gk_panel"] == 2 * max_panels - 1


def test_kernels_module_under_parser_step():
    # perfbench/run.py imports homoeuler._kernels, so it compiles this
    # module, and peak_rss_mb reads run.py's high-water mark
    path = Path(_kernels.__file__)
    with tokenize.open(path) as fh:
        n = sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                for tok in tokenize.generate_tokens(fh.readline))
    assert n <= 4096, (
        f"{path.name} has {n} tokens (COMMENT and NL excluded): past 4,096"
        " tokens CPython 3.11's parser peaks about 330 KB higher while"
        " perfbench/run.py compiles it, which moves peak_rss_mb by about"
        " 0.1 MB (ROADMAP item 1)")
