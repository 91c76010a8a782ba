"""In-memory span tracer installed from outside the certkit package.

The tracer wraps the public functions of the certkit modules, every module
binding that refers to them (``from .exactcore import ...`` copies a name
into the importing module, so each copy is wrapped), and the methods in
``CLASS_TARGETS``.
Each call records one span: a key, start, end, parent span and an optional
extra number.  Spans stay in memory until :meth:`Tracer.write`, and
:meth:`Tracer.aggregate` turns them into per-module metrics using self time
(a span's duration minus the time its direct child spans cover).
"""

from __future__ import annotations

import gzip
import inspect
import json
import math
import time
from fractions import Fraction

MODULES = ("exactcore", "schubert", "toric", "veronese", "hodge", "numerology",
           "certify_cli")

# methods wrapped on their class: (module, class, method)
CLASS_TARGETS = (("toric", "Fan", "__init__"),
                 ("exactcore", "RationalFunction", "__eq__"))

# certify_cli has many public helpers (encode_value recurses through every
# value); only these entry points get spans, the rest counts as glue.
CLI_TRACED = ("main", "run_suite", "render_json", "render_text", "check_fan",
              "render_fan_check")

# key -> metric group; functions not named here fall into "<module>.other"
# except in hodge and numerology, which report one figure per module.
GROUPS = {
    "veronese.find_smooth_conic_details": "veronese.conic_search",
    "veronese.find_smooth_conic": "veronese.conic_search",
    "veronese.exhaustive_smooth_conic": "veronese.conic_oracle",
    "veronese.is_smooth_conic": "veronese.smooth_check",
    "veronese.smooth_conic_closed_form": "veronese.smooth_check",
    "veronese.projection_kernel_certificate": "veronese.kernel_cert",
    "veronese.projection_kernel_principal_certificate": "veronese.kernel_cert",
    "veronese.quotient_hilbert_comparison": "veronese.kernel_cert",
    "veronese.split_hyperplane_certificate": "veronese.split",
    "exactcore.rank_q": "exactcore.rank_q",
    "exactcore.rank_f2": "exactcore.rank_f2",
    "exactcore.rank_f4": "exactcore.rank_f4",
    "exactcore.ideal_graded_dimension": "exactcore.graded_dim",
    "exactcore.span_dimension": "exactcore.span_dim",
    "exactcore.poly_substitute": "exactcore.substitute",
    "exactcore.int_determinant": "exactcore.int_det",
    "exactcore.RationalFunction.__eq__": "exactcore.rf_equal",
    "toric.Fan.__init__": "toric.fan_build",
    "toric.cone_contains": "toric.cone_contains",
    "toric.fibration_to_p1": "toric.fibration",
    "toric.enumerate_qfactorializations": "toric.qfact",
    "toric.load_fan": "toric.load",
    "toric.fan_from_dict": "toric.load",
    "schubert.mul": "schubert.mul",
    "schubert.mul_via_pieri": "schubert.mul",
    "schubert.pieri": "schubert.mul",
    "schubert.v5_separability_details": "schubert.v5",
    "schubert.v5_separability_certificate": "schubert.v5",
    "certify_cli.main": "certify_cli.main",
    "certify_cli.run_suite": "certify_cli.run_suite",
    "certify_cli.render_json": "certify_cli.render",
    "certify_cli.render_text": "certify_cli.render",
    "certify_cli.render_fan_check": "certify_cli.render",
    "certify_cli.check_fan": "certify_cli.check_fan",
}

SELF_TIME_GROUPS = ("certify_cli.main", "certify_cli.run_suite", "certify_cli.check_fan")

DEGREES = range(1, 11)

# every per-layer metric the traced run reports, in output order
METRIC_NAMES = (
    "veronese.conic_search.calls", "veronese.conic_search.s",
    "veronese.conic_search.constructive_ratio",
    "veronese.conic_oracle.calls", "veronese.conic_oracle.s",
    "veronese.smooth_check.calls", "veronese.smooth_check.s",
    "veronese.kernel_cert.s", "veronese.split.s", "veronese.other.s",
    *(f"exactcore.rank_{f}.{m}" for f in ("q", "f2", "f4")
      for m in ("calls", "s", "cells")),
    "exactcore.graded_dim.calls", "exactcore.graded_dim.s",
    "exactcore.graded_dim.max_cols",
    *(f"exactcore.graded_dim.incl_s.d{d}" for d in DEGREES),
    "exactcore.span_dim.calls", "exactcore.span_dim.s",
    "exactcore.substitute.calls", "exactcore.substitute.s",
    "exactcore.substitute.in_terms",
    "exactcore.int_det.calls", "exactcore.int_det.s",
    "exactcore.rf_equal.calls", "exactcore.rf_equal.s", "exactcore.other.s",
    "toric.fan_build.calls", "toric.fan_build.s", "toric.fan_build.rays",
    "toric.cone_contains.calls", "toric.cone_contains.s",
    "toric.fibration.calls", "toric.fibration.s",
    "toric.qfact.s", "toric.load.s", "toric.other.s",
    "schubert.mul.calls", "schubert.mul.s", "schubert.v5.s", "schubert.other.s",
    "hodge.s", "numerology.s",
    "certify_cli.main.self_s", "certify_cli.run_suite.self_s",
    "certify_cli.render.s", "certify_cli.check_fan.self_s",
)


def _is_seconds(name: str) -> bool:
    return name.endswith(".s") or name.endswith("_s") or ".incl_s." in name


def unit(name: str) -> str:
    if _is_seconds(name):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def is_self_time(name: str) -> bool:
    """Metrics that partition the traced time: summed, they give the time
    of the outermost spans."""
    return name.endswith(".s") or name.endswith(".self_s")


def _group(key: str) -> str:
    if key in GROUPS:
        return GROUPS[key]
    module = key.split(".", 1)[0]
    return module if module in ("hodge", "numerology") else module + ".other"


def _rank_key(mat, exactcore) -> tuple:
    """Span key by entry type, and the cell count rows x cols."""
    rows = len(mat) if mat else 0
    cols = len(mat[0]) if rows else 0
    entry = mat[0][0] if cols else None
    if isinstance(entry, exactcore.F4):
        field = "f4"
    elif isinstance(entry, exactcore.Fp):
        field = "f2" if entry.p == 2 else "fp"
    else:
        field = "q"
    return "exactcore.rank_" + field, rows * cols


def _graded_cols(args) -> int | None:
    gens, d = args[0], args[1]
    if not isinstance(gens, (list, tuple)) or not gens:
        return None
    n = len(gens[0].variables)
    return math.comb(d + n - 1, n - 1) if d >= 0 else 0


class Tracer:
    """Wraps certkit's public functions while installed (use as a context
    manager); restores every original binding on exit."""

    def __init__(self, certkit_modules: dict, observers: dict | None = None):
        self.modules = certkit_modules          # short name -> module object
        self.observers = observers or {}        # key -> fn(args, result)
        self.spans: list = []                   # [key, start, end, parent, extra]
        self._stack: list = []
        self._patched: list = []                # (owner, name, original)

    # -- installation ----------------------------------------------------

    def targets(self) -> list:
        """(key, owner, attribute, is_method) for every function to wrap."""
        out = []
        for short in MODULES:
            mod = self.modules[short]
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if short == "certify_cli" and name not in CLI_TRACED:
                    continue
                out.append((f"{short}.{name}", mod, name, False))
        for short, cls, name in CLASS_TARGETS:
            owner = getattr(self.modules[short], cls)
            out.append((f"{short}.{cls}.{name}", owner, name, True))
        return out

    def __enter__(self):
        exactcore = self.modules["exactcore"]
        owners = [self.modules[m] for m in MODULES] + [self.modules["package"]]
        for key, owner, name, is_method in self.targets():
            original = vars(owner)[name]
            wrapper = self._wrap(key, original, exactcore)
            # a method is bound once; a function in every module that imported it
            for mod in [owner] if is_method else owners:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, key, fn, exactcore):
        spans, stack, observer = self.spans, self._stack, self.observers.get(key)
        is_rank = key in ("exactcore.matrix_rank", "exactcore.kernel_dimension")
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_key, extra = key, None
            if is_rank:
                span_key, extra = _rank_key(args[0], exactcore)
            elif key == "exactcore.ideal_graded_dimension":
                extra = (args[1], _graded_cols(args))
            elif key == "exactcore.poly_substitute":
                extra = len(args[0].terms)
            elif key == "toric.Fan.__init__":
                extra = len(args[2]) if hasattr(args[2], "__len__") else None
            span = [span_key, 0.0, 0.0, stack[-1] if stack else -1, extra]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if key == "veronese.find_smooth_conic_details":
                span[4] = result.path
            if observer is not None:
                observer(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    # -- output ----------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def aggregate(self) -> dict:
        """Per-layer metrics: calls, self seconds and size counters."""
        metrics = {name: 0.0 if _is_seconds(name) else 0 for name in METRIC_NAMES}
        searches = constructive = 0
        for (key, start, end, _, extra), self_s in zip(self.spans, self.self_times()):
            group = _group(key)
            time_name = group + (".self_s" if group in SELF_TIME_GROUPS else ".s")
            if time_name in metrics:
                metrics[time_name] += self_s
            if group + ".calls" in metrics:
                metrics[group + ".calls"] += 1
            if group.startswith("exactcore.rank_") and group + ".cells" in metrics:
                metrics[group + ".cells"] += extra
            elif group == "exactcore.graded_dim":
                d, cols = extra
                if cols is not None:
                    metrics[group + ".max_cols"] = max(metrics[group + ".max_cols"], cols)
                # inclusive time per degree: the degree-bound scaling curve
                if f"{group}.incl_s.d{d}" in metrics:
                    metrics[f"{group}.incl_s.d{d}"] += end - start
            elif group == "exactcore.substitute":
                metrics[group + ".in_terms"] += extra
            elif group == "toric.fan_build" and extra is not None:
                metrics[group + ".rays"] += extra
            if key == "veronese.find_smooth_conic_details":
                searches += 1
                constructive += extra not in ("exhaustive-fallback", "exhausted-none")
        metrics["veronese.conic_search.constructive_ratio"] = (
            constructive / searches if searches else 0.0)
        return metrics

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path: str):
        """Write every span once, as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for key, start, end, parent, extra in self.spans:
                if isinstance(extra, Fraction):
                    extra = str(extra)
                fh.write(json.dumps([key, start, end, parent, extra]) + "\n")
