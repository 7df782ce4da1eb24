"""Span recorder for the traced benchmark pass.

The recorder wraps public functions of the roughcalc modules from outside
the package: nothing under ``src/`` knows it is traced.  Every wrapped call
records one span (name, start, end, parent, run id).  Spans stay in memory
and are written once, when the pass ends.

``experiments``, ``malliavin``, ``mixed`` and ``cli`` import functions by
name, so a function is replaced at every roughcalc module (and every
module-level dict entry, such as the CLI's experiment table) that holds it,
not only where it is defined.  The vector fields returned by
``clark_integrand`` and ``mixed_clark_fields`` get their ``coeff_fn`` and
``grad_dot`` wrapped too, so Clark evaluation and its divergence
correction have spans of their own.

Counters named ``*.normals``, ``*_bytes``, ``*_flops``, ``*.node_evals``
and ``clark_slot_evals`` are *computed* from argument and result shapes,
not measured.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# Traced functions per module.  "Class.method" entries are patched on the
# class, so every instance sees the wrapper.
TRACED = {
    "models": ("build_gram",),
    "energy": ("project_adapted", "GramContext.solve_leading"),
    "functionals": ("CylindricalFunctional.values",
                    "CylindricalFunctional.gradient"),
    "gaussian": ("sample_ensemble", "sample_ensemble_circulant",
                 "write_ensemble", "read_ensemble", "conditional_law",
                 "regression_coefficients", "expect_scalar"),
    "malliavin": ("clark_integrand", "innovation_directions", "divergence",
                  "derivative_pairing", "field_norm_sq", "conditional_value",
                  "conditional_gradient"),
    "mixed": ("mixed_clark_fields", "sample_mixed", "mixed_divergence",
              "mixed_pairing"),
    "experiments": ("run_adjointness", "run_factorization",
                    "run_remainder_scaling", "run_gubinelli_compare",
                    "run_isometry_defect", "run_projection_lemma",
                    "run_simulate", "run_mixed", "run_increment_identity",
                    "verify_all"),
    "reporting": ("write_report",),
    "config": ("load_config",),
}

# Spans created for the fields returned by the two Clark constructors.
FIELD_SPANS = ("malliavin.clark_coeff", "malliavin.clark_grad_dot",
               "mixed.clark_coeff", "mixed.clark_grad_dot")

SAMPLERS = ("gaussian.sample_ensemble", "gaussian.sample_ensemble_circulant")


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def all_span_names() -> list[str]:
    names = [span_name(mod, q) for mod, quals in TRACED.items() for q in quals]
    return names + list(FIELD_SPANS)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Recorder:
    """Collects spans and counters for one traced pass."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        # (span name, seconds, args, kwargs) of top-level sampler calls,
        # replayed single-threaded after the pass
        self.sampler_calls: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, post=None):
        """fn with a span around every call; ``post(span, args, kwargs,
        out)`` runs after the span has closed and returns the result the
        caller sees."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), name, 0.0, 0.0,
                        stack[-1].id if stack else None, self.run_id)
            stack.append(span)
            span.start = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
                self.spans.append(span)
            return out if post is None else post(span, args, kwargs, out)

        return traced

    def spans_payload(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


# --- installation ------------------------------------------------------------


def _rebind(modules, original, wrapper, undo: list) -> None:
    """Replace ``original`` by ``wrapper`` in every module global and in
    module-level dicts whose values are the function or tuples holding it."""
    for mod in modules:
        namespace = vars(mod)
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(mod, attr, wrapper)
                undo.append((setattr, mod, attr, original))
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper
                        undo.append((dict.__setitem__, value, key, original))
                    elif isinstance(item, tuple) and any(x is original for x in item):
                        value[key] = tuple(wrapper if x is original else x
                                           for x in item)
                        undo.append((dict.__setitem__, value, key, item))


def install(rec: Recorder):
    """Wrap every function in TRACED; the roughcalc package must already be
    imported.  Returns a callable that restores the originals."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "roughcalc" or name.startswith("roughcalc."))]
    undo: list = []
    for mod_name, quals in TRACED.items():
        mod = sys.modules[f"roughcalc.{mod_name}"]
        for qual in quals:
            name = span_name(mod_name, qual)
            post = _POST.get(name)
            post = functools.partial(post, rec) if post else None
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, rec.wrap(original, name, post))
                undo.append((setattr, cls, meth, original))
            else:
                original = getattr(mod, qual)
                _rebind(modules, original, rec.wrap(original, name, post), undo)

    def restore() -> None:
        for op, target, key, value in reversed(undo):
            op(target, key, value)

    return restore


# --- computed counters -------------------------------------------------------


def _post_expect_scalar(rec, span, args, kwargs, out):
    mu, sd = args[1], args[2]
    default = sys.modules["roughcalc.gaussian"].DEFAULT_NODES
    nodes = args[3] if len(args) > 3 else kwargs.get("nodes", default)
    rows = np.broadcast(np.asarray(mu), np.asarray(sd)).size
    rec.counters["gaussian.expect_scalar.node_evals"] += rows * nodes
    return out


def _post_sampler(rec, span, args, kwargs, out):
    stack = rec._stack()  # the caller's open span, if any
    if not stack or stack[-1].name not in SAMPLERS:
        rec.sampler_calls.append((span.name, span.end - span.start, args, kwargs))
    if span.name == "gaussian.sample_ensemble_circulant":
        rec.counters["gaussian.circulant_calls"] += 1
        if out.fallback:
            # the dense sampler it fell back to has counted the draws
            rec.counters["gaussian.circulant_fallbacks"] += 1
            return out
        rec.counters[span.name + ".normals"] += out.paths.size * 2
    else:
        rec.counters[span.name + ".normals"] += out.paths.size
    rec.counters["gaussian.ensemble_bytes"] += out.paths.nbytes
    return out


def _post_sample_mixed(rec, span, args, kwargs, out):
    rec.counters["gaussian.ensemble_bytes"] += (
        out.paths_b.nbytes + out.paths_h.nbytes + out.paths_x.nbytes)
    return out


def _post_build_gram(rec, span, args, kwargs, out):
    rec.counters["models.factor_flops"] += out.n ** 3 / 3.0
    rec.counters["models.jitter_builds"] += float(out.jitter > 0.0)
    return out


def _post_write_report(rec, span, args, kwargs, out):
    rec.counters["reporting.bytes_written"] += sum(os.path.getsize(p) for p in out)
    return out


def _wrap_field(rec, field, prefix: str):
    def post_coeff(span, args, kwargs, out):
        if prefix == "malliavin":
            rec.counters["malliavin.clark_slot_evals"] += np.size(out)
        return out

    def post_grad(span, args, kwargs, out):
        if prefix == "malliavin":
            rec.counters["malliavin.clark_slot_evals"] += np.size(out)
            if np.size(out):
                key = "malliavin.clark_grad_dot.max_abs"
                rec.counters[key] = max(rec.counters[key], float(np.max(np.abs(out))))
        return out

    return dataclasses.replace(
        field,
        coeff_fn=rec.wrap(field.coeff_fn, f"{prefix}.clark_coeff",
                          post_coeff),
        grad_dot=rec.wrap(field.grad_dot, f"{prefix}.clark_grad_dot",
                          post_grad),
    )


def _post_clark_integrand(rec, span, args, kwargs, out):
    return _wrap_field(rec, out, "malliavin")


def _post_mixed_clark_fields(rec, span, args, kwargs, out):
    return tuple(_wrap_field(rec, f, "mixed") for f in out)


_POST = {
    "gaussian.expect_scalar": _post_expect_scalar,
    "gaussian.sample_ensemble": _post_sampler,
    "gaussian.sample_ensemble_circulant": _post_sampler,
    "mixed.sample_mixed": _post_sample_mixed,
    "models.build_gram": _post_build_gram,
    "reporting.write_report": _post_write_report,
    "malliavin.clark_integrand": _post_clark_integrand,
    "mixed.mixed_clark_fields": _post_mixed_clark_fields,
}


# --- aggregation -------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered_length(children[s.id], s.start, s.end)
            for s in spans}


def layer_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass of ``wall_s`` seconds.

    Every traced span name gets ``.calls``, ``.self_s`` and ``.incl_s``
    (zero when not called); counters and derived ratios are added on top.
    """
    selfs = self_times(rec.spans)
    out: dict[str, float] = {}
    for name in all_span_names():
        out[f"{name}.calls"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.incl_s"] = 0.0
    for s in rec.spans:
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += selfs[s.id]
        out[f"{s.name}.incl_s"] += s.end - s.start
    for key in ("gaussian.sample_ensemble.normals",
                "gaussian.sample_ensemble_circulant.normals",
                "gaussian.ensemble_bytes", "models.factor_flops",
                "models.jitter_builds", "gaussian.expect_scalar.node_evals",
                "malliavin.clark_slot_evals", "reporting.bytes_written",
                "malliavin.clark_grad_dot.max_abs"):
        out[key] = float(rec.counters.get(key, 0.0))
    calls = rec.counters.get("gaussian.circulant_calls", 0.0)
    out["gaussian.circulant_fallback_ratio"] = (
        rec.counters.get("gaussian.circulant_fallbacks", 0.0) / calls if calls else 0.0)
    out["experiments.self_s"] = sum(
        v for k, v in out.items()
        if k.startswith("experiments.") and k.endswith(".self_s"))
    top = [(s.start, s.end) for s in rec.spans if s.parent is None]
    out["bench.trace_coverage"] = (sum(b - a for a, b in top) / wall_s
                                   if wall_s > 0 else 0.0)
    return out


def replay_samplers_single_thread(rec: Recorder) -> tuple[float, float]:
    """Re-run each top-level sampler call of the pass at workers=1, with
    the wrappers already removed.

    Returns (seconds at workers=1, seconds the same calls took in the
    pass); their ratio is the sampler speed-up at the pass's worker count.
    """
    from roughcalc import gaussian

    single_s = pass_s = 0.0
    for name, duration, args, kwargs in rec.sampler_calls:
        fn = getattr(gaussian, name.rsplit(".", 1)[-1])
        start = time.perf_counter()
        fn(*args[:4], **dict(kwargs, workers=1))
        single_s += time.perf_counter() - start
        pass_s += duration
    return single_s, pass_s
