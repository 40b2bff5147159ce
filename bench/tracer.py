"""Spans and counts at landau's public function boundaries, installed from
outside the package.

`Tracer.install()` replaces each traced function or method by a wrapper
that records a span (name, start, end, parent span).  Module-level
functions are replaced under every name that refers to them in any
`landau.*` module, because the package imports functions by name
(`from .operator import apply_L2`), so a call site only sees a wrapper
installed in its own module.  Counts are the number of spans per name,
plus a few payload counts (distinct abar radii, bytes written).

Spans stay in memory; `layer_metrics()` reduces them to the per-layer
metrics of BENCHMARK.json and `summary()` gives inclusive and self time
per span name.
"""

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# span name -> (module, attribute); "Class.method" attributes are methods
TARGETS = {
    "kernel.build": ("kernel", "build_coefficients"),
    "kernel.abar": ("kernel", "abar_profiles_at"),
    "kernel.tables": ("kernel", "tabulate_fft_kernels"),
    "kernel.crosscheck": ("kernel", "crosscheck_c2"),
    "operator.engine_init": ("operator", "ConvolutionEngine.__init__"),
    "operator.fft_forward": ("operator", "ConvolutionEngine.forward"),
    "operator.fft_inverse": ("operator", "ConvolutionEngine.inverse"),
    "operator.apply_L": ("operator", "apply_L"),
    "operator.apply_L1": ("operator", "apply_L1"),
    "operator.apply_L2": ("operator", "apply_L2"),
    "evolution.evolve": ("evolution", "evolve"),
    "evolution.step": ("evolution", "step"),
    "evolution.ladder": ("evolution", "derivative_ladder"),
    "field.a_norm": ("field", "a_norm_sq"),
    "field.inner_product": ("field", "inner_product"),
    "field.gradient": ("field", "gradient"),
    "field.random_field": ("field", "random_field"),
    "verify.ensemble": ("verify", "make_ensemble"),
    "verify.coercivity": ("verify", "estimate_coercivity"),
    "verify.coercivity_quotient": ("verify", "coercivity_quotient"),
    "verify.bilinear": ("verify", "estimate_bilinear_constants"),
    "verify.recheck": ("verify", "recheck_bilinear"),
    "verify.l3": ("verify", "check_l3_embedding"),
    "verify.energy_convergence": ("verify", "energy_identity_convergence"),
    "verify.smoothing_fit": ("verify", "smoothing_fit"),
    "verify.coefficient_bounds": ("verify", "check_coefficient_bounds"),
    "verify.convolution_bound": ("verify", "check_convolution_bound"),
    "suites.run_suite": ("suites", "run_suite"),
    "persist.write": ("persist", "save_field_snapshot"),
    "persist.write_energy": ("persist", "write_energy_csv"),
    "persist.write_ladder": ("persist", "write_ladder_csv"),
    "persist.write_report": ("persist", "write_report_json"),
}

SUITE_NAMES = ("kernel", "coefficients", "convolution", "inequalities",
               "energy", "smoothing")

# metric -> (kind, span names); kind is calls, total seconds or mean ms
LAYER_METRICS = {
    "kernel.build_calls": ("calls", ["kernel.build"]),
    "kernel.build_s": ("total_s", ["kernel.build"]),
    "kernel.abar_s": ("total_s", ["kernel.abar"]),
    "kernel.tables_calls": ("calls", ["kernel.tables"]),
    "kernel.tables_s": ("total_s", ["kernel.tables"]),
    "kernel.crosscheck_s": ("total_s", ["kernel.crosscheck"]),
    "operator.engine_inits": ("calls", ["operator.engine_init"]),
    "operator.engine_init_s": ("total_s", ["operator.engine_init"]),
    "operator.apply_L_calls": ("calls", ["operator.apply_L"]),
    "operator.apply_L_ms": ("mean_ms", ["operator.apply_L"]),
    "operator.apply_L1_calls": ("calls", ["operator.apply_L1"]),
    "operator.apply_L1_ms": ("mean_ms", ["operator.apply_L1"]),
    "operator.apply_L2_calls": ("calls", ["operator.apply_L2"]),
    "operator.apply_L2_ms": ("mean_ms", ["operator.apply_L2"]),
    "operator.fft_forward_calls": ("calls", ["operator.fft_forward"]),
    "operator.fft_inverse_calls": ("calls", ["operator.fft_inverse"]),
    "evolution.evolve_calls": ("calls", ["evolution.evolve"]),
    "evolution.evolve_s": ("total_s", ["evolution.evolve"]),
    "evolution.rk4_steps": ("calls", ["evolution.step"]),
    "evolution.step_ms": ("mean_ms", ["evolution.step"]),
    "evolution.ladder_calls": ("calls", ["evolution.ladder"]),
    "evolution.ladder_s": ("total_s", ["evolution.ladder"]),
    "field.a_norm_calls": ("calls", ["field.a_norm"]),
    "field.a_norm_ms": ("mean_ms", ["field.a_norm"]),
    "field.inner_product_calls": ("calls", ["field.inner_product"]),
    "field.gradient_calls": ("calls", ["field.gradient"]),
    "field.random_field_calls": ("calls", ["field.random_field"]),
    "field.random_field_s": ("total_s", ["field.random_field"]),
    "verify.ensemble_s": ("total_s", ["verify.ensemble"]),
    "verify.coercivity_s": ("total_s", ["verify.coercivity"]),
    "verify.coercivity_quotient_calls": ("calls", ["verify.coercivity_quotient"]),
    "verify.bilinear_s": ("total_s", ["verify.bilinear"]),
    "verify.recheck_s": ("total_s", ["verify.recheck"]),
    "verify.l3_s": ("total_s", ["verify.l3"]),
    "verify.energy_convergence_s": ("total_s", ["verify.energy_convergence"]),
    "verify.smoothing_fit_s": ("total_s", ["verify.smoothing_fit"]),
    "verify.coefficient_bounds_s": ("total_s", ["verify.coefficient_bounds"]),
    "verify.convolution_bound_s": ("total_s", ["verify.convolution_bound"]),
    **{f"suites.{s}_s": ("total_s", [f"suites.{s}"]) for s in SUITE_NAMES},
    "persist.write_s": ("total_s", ["persist.write", "persist.write_energy",
                                    "persist.write_ladder", "persist.write_report"]),
}


def _resolve(module, attr):
    """(owner, attribute name, original) for 'func' or 'Class.method'."""
    if "." in attr:
        cls_name, meth = attr.split(".")
        owner = getattr(module, cls_name)
        return owner, meth, owner.__dict__[meth]
    return module, attr, getattr(module, attr)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, after=None):
        """Wrapper recording a span per call.  `name` may be a callable of
        the call arguments; `after(args, kwargs)` adds payload counts."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(*args, **kwargs) if callable(name) else name,
                    clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if after is not None:
                    after(args, kwargs)

        return traced

    def _after_hooks(self):
        counts = self.counts

        def radii(args, kwargs):
            counts["kernel.abar_radii"] += len(args[0])

        def written(args, kwargs):
            counts["persist.bytes_written"] += os.path.getsize(args[0])

        def written_report(args, kwargs):
            counts["persist.bytes_written"] += os.path.getsize(args[1])

        return {"kernel.abar": radii, "persist.write": written,
                "persist.write_energy": written,
                "persist.write_ladder": written,
                "persist.write_report": written_report}

    def install(self, package="landau"):
        """Wrap every target; returns self.  Undo with `uninstall()`."""
        for mod_name in sorted({m for m, _ in TARGETS.values()}):
            importlib.import_module(f"{package}.{mod_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == package or n.startswith(package + "."))
                   and m is not None]
        hooks = self._after_hooks()
        for span_name, (mod_name, attr) in TARGETS.items():
            module = sys.modules[f"{package}.{mod_name}"]
            owner, key, original = _resolve(module, attr)
            name = span_name
            if span_name == "suites.run_suite":
                name = lambda suite, *a, **k: f"suites.{suite}"  # noqa: E731
            wrapper = self.wrap(name, original, hooks.get(span_name))
            if owner is not module:  # a method: one binding on the class
                self._patch(owner, key, wrapper)
                continue
            for m in modules:
                for key_m, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key_m, wrapper)
        return self

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def summary(self):
        """{name: {"calls", "inclusive_s", "self_s"}} over all spans."""
        out = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["inclusive_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def layer_metrics(self):
        """The per-layer metrics, as {name: (value, unit)}."""
        summ = self.summary()
        metrics = {}
        for metric, (kind, names) in LAYER_METRICS.items():
            calls = sum(summ.get(n, {}).get("calls", 0) for n in names)
            total = sum(summ.get(n, {}).get("inclusive_s", 0.0) for n in names)
            if kind == "calls":
                metrics[metric] = (calls, "count")
            elif kind == "total_s":
                metrics[metric] = (total, "s")
            else:
                metrics[metric] = (1e3 * total / calls if calls else 0.0, "ms")
        metrics["kernel.abar_radii"] = (self.counts["kernel.abar_radii"], "count")
        metrics["persist.bytes_written"] = (self.counts["persist.bytes_written"], "bytes")
        return metrics
