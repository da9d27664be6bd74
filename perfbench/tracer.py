"""In-memory span tracer for the homoeuler package, installed from outside.

`Tracer.install()` wraps the public functions of each layer and rebinds
every module-global reference to them inside the `homoeuler` package: the
modules import each other's names (`from .periods import span_any`), so
patching only the defining module would miss most calls.  `uninstall()`
puts the originals back.

Each wrapped call records a span (function, start, end, parent span, job
id).  The innermost kernels (`_gk_panel`, `_dp_step`, `_dp_substeps`) run
tens of thousands of times per job; they are counted but open no span, so
their time stays in the self time of the span that called them.  Those
counters exist only when the kernels are plain Python: under numba the
compiled callers never reach the module globals, and the counters are
reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> ((module, function), ...); the order of layers is the order of
# the per-layer report
LAYERS = {
    "rootfind": (("orbits", "find_intercepts"), ("_rootfind", "brent")),
    "periods": (("periods", "span_any"), ("periods", "span_quadrature"),
                ("periods", "span_hyperbolic"),
                ("periods", "period_elliptic"),
                ("_kernels", "adaptive_gk")),
    "orbits": (("orbits", "integrate_orbit"), ("_kernels", "rk45_orbit")),
    "classify": (("classify", "solve_elliptic"),
                 ("classify", "solve_all_elliptic"),
                 ("classify", "solve_hyperbolic_span")),
    "assemble.arcs": (("assemble", "hyperbolic_arc"),
                      ("assemble", "elliptic_arc"),
                      ("assemble", "elliptic_global"),
                      ("_kernels", "cumulative_theta")),
    "assemble.stitch": (("assemble", "stitch"),),
    "assemble.diagnostics": (("assemble", "energy_flux"),
                             ("assemble", "h1_seminorm"),
                             ("assemble", "weak_residuals"),
                             ("assemble", "residual_max"),
                             ("assemble", "bernoulli_drift"),
                             ("assemble", "global_profile")),
    "assemble.field": (("assemble", "export_grid"), ("assemble", "field_at")),
    "cli": (("cli", "main"), ("cli", "serialize_solution"),
            ("cli", "solution_to_json"), ("cli", "parse_solution"),
            ("cli", "field_csv")),
}

# Kernels counted without a span.  Only present in pure-Python mode.
KERNEL_COUNTERS = ("_gk_panel", "_dp_step", "_dp_substeps")

# metrics that only the pure-Python kernels can produce
KERNEL_METRICS = ("periods.gk_panels", "orbits.dp_steps",
                  "orbits.event_dp_steps", "assemble.theta_gk_panels")

# Calls to adaptive_gk from cumulative_theta accumulate an arc's theta mesh;
# they belong to the arc layer and are not span evaluations.
_INLINE_UNDER = {"adaptive_gk": "cumulative_theta"}

# layers that evaluate on behalf of a caller; a periods call is attributed
# to its nearest ancestor outside them
_HELPER_LAYERS = ("periods", "rootfind")

# span record fields
NAME, START, END, PARENT, JOB, CHILD, FAILED = range(7)


class Tracer:
    """Spans and counters of one worker process, kept in memory."""

    package = "homoeuler"

    def __init__(self):
        self.layer_of = {}
        for layer, funcs in LAYERS.items():
            for _mod, name in funcs:
                self.layer_of[name] = layer
        self.spans = []
        self.stack = []
        self.job = -1
        self.counts = dict.fromkeys(
            ("gk_panels", "theta_gk_panels", "dp_steps", "event_dp_steps",
             "gk_budget_hits", "roots", "samples"), 0)
        self._in_event = 0
        self._hits_by_job = {}
        self._patches = []
        self.kernels_counted = False

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.job, 0.0, False]
        self.spans.append(rec)
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        rec = self.spans[idx]
        rec[END] = time.perf_counter()
        rec[FAILED] = failed
        self.stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    def _span_wrapper(self, name: str, fn):
        inline_under = _INLINE_UNDER.get(name)
        on_result = _RESULT_HOOKS.get(name)

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if (inline_under is not None and self.stack
                    and self.spans[self.stack[-1]][NAME] == inline_under):
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if on_result is not None:
                on_result(self, out)
            return out

        return traced

    def _kernel_wrapper(self, name: str, fn):
        counts = self.counts
        if name == "_gk_panel":
            spans, stack = self.spans, self.stack

            def counted(*args):
                if stack and spans[stack[-1]][NAME] == "cumulative_theta":
                    counts["theta_gk_panels"] += 1
                else:
                    counts["gk_panels"] += 1
                return fn(*args)
        elif name == "_dp_step":
            def counted(*args):
                counts["dp_steps"] += 1
                if self._in_event:
                    counts["event_dp_steps"] += 1
                return fn(*args)
        else:  # _dp_substeps: every step inside it is an event-bisection step
            def counted(*args):
                self._in_event += 1
                try:
                    return fn(*args)
                finally:
                    self._in_event -= 1
        return functools.wraps(fn, updated=())(counted)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        kernels = sys.modules[f"{self.package}._kernels"]
        replace = {}
        for layer, funcs in LAYERS.items():
            for mod, name in funcs:
                fn = getattr(sys.modules[f"{self.package}.{mod}"], name)
                replace[id(fn)] = (fn, self._span_wrapper(name, fn))
        self.kernels_counted = not kernels.JIT_ENABLED
        if self.kernels_counted:
            for name in KERNEL_COUNTERS:
                fn = getattr(kernels, name)
                replace[id(fn)] = (fn, self._kernel_wrapper(name, fn))
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package
                                   or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def layer_summary(self) -> dict:
        """Per-layer counts and self times over every span recorded."""
        spans = self.spans
        layer_of = self.layer_of
        out = {}
        for layer in LAYERS:
            out[layer] = {"self_s": 0.0, "calls": 0, "failed": 0}
        fn_calls = {}
        parents = [s[PARENT] for s in spans]
        layers = [layer_of[s[NAME]] for s in spans]
        owner_evals = {}
        roots_evals = []
        for i, s in enumerate(spans):
            layer = layers[i]
            agg = out[layer]
            agg["self_s"] += (s[END] - s[START]) - s[CHILD]
            fn_calls[s[NAME]] = fn_calls.get(s[NAME], 0) + 1
            p = parents[i]
            entry = p < 0 or layers[p] != layer
            if entry:
                agg["calls"] += 1
                if s[FAILED]:
                    agg["failed"] += 1
            if entry and layer == "periods":
                # attribute the evaluation to its nearest non-helper caller
                while p >= 0 and layers[p] in _HELPER_LAYERS:
                    p = parents[p]
                if p >= 0:
                    owner_evals[p] = owner_evals.get(p, 0) + 1
        evals_by_fn = {}
        for p, n in owner_evals.items():
            evals_by_fn[spans[p][NAME]] = evals_by_fn.get(spans[p][NAME],
                                                          0) + n
            if spans[p][NAME] == "solve_elliptic" and not spans[p][FAILED]:
                roots_evals.append(n)
        repairs = sum(1 for i, s in enumerate(spans)
                      if s[NAME] == "solve_hyperbolic_span"
                      and parents[i] >= 0
                      and spans[parents[i]][NAME] == "stitch")
        return {
            "layers": out,
            "fn_calls": fn_calls,
            "evals_by_owner": evals_by_fn,
            "evals_per_solved_root": roots_evals,
            "repairs": repairs,
            "counts": dict(self.counts),
            "budget_hits_by_job": dict(self._hits_by_job),
            "kernels_counted": self.kernels_counted,
        }

    def dump(self, fh) -> None:
        """Write the spans as JSON lines: name, start, end, parent index,
        job index, raised."""
        for s in self.spans:
            fh.write(json.dumps([s[NAME], s[START], s[END], s[PARENT],
                                 s[JOB], s[FAILED]]) + "\n")


def _gk_result(tracer: Tracer, out) -> None:
    if out[2] == 1:
        tracer.counts["gk_budget_hits"] += 1
        tracer._hits_by_job[tracer.job] = (
            tracer._hits_by_job.get(tracer.job, 0) + 1)


def _root_result(tracer: Tracer, out) -> None:
    if out.status == "root":
        tracer.counts["roots"] += 1


def _orbit_result(tracer: Tracer, out) -> None:
    tracer.counts["samples"] += len(out.samples)


_RESULT_HOOKS = {
    "adaptive_gk": _gk_result,
    "solve_elliptic": _root_result,
    "integrate_orbit": _orbit_result,
}
