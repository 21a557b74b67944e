"""Span tracing for the benchmark's traced run.

The tracer wraps barydeg's layer functions from outside the package, under
the names the calling modules bound them to (``barydeg.aaa`` calls
``solve_constrained_weights`` through its own module global, so that is the
binding replaced).  No file of the package changes.  Spans are aggregated in
memory per layer: calls, total seconds, seconds covered by child spans (so
self time is the difference), the largest tracemalloc peak of the layers
that own the big allocations, and a few counters read off arguments or
results.
"""

import functools
import importlib
import statistics
import time
import tracemalloc
from collections import Counter

import numpy as np

# (owner, attribute, layer).  An owner "module:Class" names a class attribute.
BINDINGS = [
    # calls the benchmark makes itself, through the package namespace
    ("barydeg", "identify", "identify"),
    ("barydeg", "aaa", "aaa"),
    ("barydeg", "make_piecewise", "asymptotic.make_piecewise"),
    ("barydeg", "eval_piecewise", "asymptotic.eval_piecewise"),
    ("barydeg", "mass_chain_samples", "benchmarks.sample_gen"),
    ("barydeg", "forward_tf", "benchmarks.reference"),
    ("barydeg", "inverse_tf", "benchmarks.reference"),
    ("barydeg", "save_samples", "benchmarks.save_samples"),
    ("barydeg", "load_samples", "benchmarks.load_samples"),
    ("barydeg.cli", "model_to_json", "cli.model_to_json"),
    ("barydeg.cli", "model_from_json", "cli.model_from_json"),
    # calls between the package's modules
    ("barydeg.identify", "aaa", "aaa"),
    ("barydeg.identify", "vf_adaptive", "vf.vf_adaptive"),
    ("barydeg.identify", "make_piecewise", "identify.make_piecewise"),
    ("barydeg.aaa", "solve_constrained_weights", "core.solve_constrained_weights"),
    ("barydeg.aaa", "nullspace_basis", "core.nullspace_basis"),
    ("barydeg.aaa", "vandermonde", "core.vandermonde"),
    ("barydeg.aaa", "degree_diagnostics", "core.degree_diagnostics"),
    ("barydeg.aaa", "relative_errors", "util.relative_errors"),
    ("barydeg.vf", "vf_solve", "vf.vf_solve"),
    ("barydeg.vf", "nullspace_basis", "core.nullspace_basis"),
    ("barydeg.vf", "vandermonde", "core.vandermonde"),
    ("barydeg.vf", "degree_diagnostics", "core.degree_diagnostics"),
    ("barydeg.vf", "relative_errors", "util.relative_errors"),
    ("barydeg.vf", "eval_general", "core.eval"),
    ("barydeg.asymptotic", "moments", "asymptotic.moments"),
    ("barydeg.asymptotic", "evaluate", "core.eval"),
    ("barydeg.asymptotic", "eval_asymptotic", "asymptotic.asym_branch"),
    ("barydeg.asymptotic", "relative_errors", "util.relative_errors"),
    ("barydeg.core:BarycentricModel", "from_weights", "core.from_weights"),
    ("barydeg.core:GeneralBarycentricModel", "from_weights", "core.from_weights"),
]

# A model evaluation inside eval_piecewise is its barycentric branch.
RENAME_UNDER = {("core.eval", "asymptotic.eval_piecewise"): "asymptotic.bary_branch"}

# Layers that allocate the O(M^2) / O(M m) matrices; their tracemalloc peak is
# recorded when tracemalloc is running.
PEAK_LAYERS = {"core.solve_constrained_weights", "vf.vf_solve"}


def _count_fit(counters, args, result):
    _, report = result
    counters["terms"] += report.terms
    counters["converged"] += report.converged


def _count_candidates(counters, args, result):
    counters["candidates"] += len(result.candidates)


def _count_points(counters, args, result):
    counters["points"] += np.size(args[1])


HOOKS = {
    "aaa": _count_fit,
    "vf.vf_adaptive": _count_fit,
    "identify": _count_candidates,
    "asymptotic.bary_branch": _count_points,
    "asymptotic.asym_branch": _count_points,
}


class LayerStats:
    """Aggregate of every span of one layer."""

    __slots__ = ("calls", "s", "child_s", "peak_mb", "counters")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.child_s = 0.0
        self.peak_mb = 0.0
        self.counters = Counter()

    @property
    def self_s(self):
        return self.s - self.child_s

    def merged(self, other):
        out = LayerStats()
        out.calls = self.calls + other.calls
        out.s = self.s + other.s
        out.child_s = self.child_s + other.child_s
        out.peak_mb = max(self.peak_mb, other.peak_mb)
        out.counters = self.counters + other.counters
        return out


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Context manager that installs the span wrappers while it is entered."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, layer in BINDINGS:
            obj = _resolve(owner)
            raw = vars(obj)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__))
            else:
                wrapped = self._wrap(layer, raw)
            self._saved.append((obj, attr, raw))
            setattr(obj, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for obj, attr, raw in reversed(self._saved):
            setattr(obj, attr, raw)
        self._saved.clear()
        return False

    def take(self):
        """Return the stats gathered so far and start afresh."""
        stats, self.stats = self.stats, {}
        return stats

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            return self._call(layer, fn, args, kwargs)
        return span

    def _call(self, layer, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            layer = RENAME_UNDER.get((layer, parent[0]), layer)
        peak = layer in PEAK_LAYERS and tracemalloc.is_tracing()
        if peak:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        frame = [layer, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            st = self.stats.setdefault(layer, LayerStats())
            st.calls += 1
            st.s += dt
            st.child_s += frame[1]
            if parent is not None:
                parent[1] += dt
            if peak:
                st.peak_mb = max(st.peak_mb, (tracemalloc.get_traced_memory()[1] - base) / 1e6)
        hook = HOOKS.get(layer)
        if hook is not None:
            hook(st.counters, args, result)
        return result


def merge(a, b):
    """Layer-wise sum of two stats dicts."""
    return {k: a.get(k, LayerStats()).merged(b.get(k, LayerStats())) for k in a.keys() | b.keys()}


def _ratio(num, den):
    return num / den if den else 0.0


def _layer_metrics(S, peaks):
    """Per-layer metric values: name -> (value, unit).

    Times and counts come from ``S``, tracemalloc peaks from ``peaks``.
    """
    z = LayerStats()

    def g(name):
        return S.get(name, z)

    def peak_mb(name):
        return peaks.get(name, z).peak_mb

    solve, aaa, vfa, vfs = (g("core.solve_constrained_weights"), g("aaa"),
                            g("vf.vf_adaptive"), g("vf.vf_solve"))
    ident, ident_pw = g("identify"), g("identify.make_piecewise")
    bary, asym = g("asymptotic.bary_branch"), g("asymptotic.asym_branch")
    return {
        "core.solve_constrained_weights.calls": (solve.calls, "count"),
        "core.solve_constrained_weights.s": (solve.s, "s"),
        "core.solve_constrained_weights.peak_mb": (peak_mb("core.solve_constrained_weights"), "MB"),
        "aaa.calls": (aaa.calls, "count"),
        "aaa.s": (aaa.s, "s"),
        "aaa.self_s": (aaa.self_s, "s"),
        "aaa.steps": (solve.calls, "count"),
        "aaa.terms_mean": (_ratio(aaa.counters["terms"], aaa.calls), "count"),
        "vf.vf_adaptive.calls": (vfa.calls, "count"),
        "vf.vf_adaptive.s": (vfa.s, "s"),
        "vf.vf_solve.calls": (vfs.calls, "count"),
        "vf.vf_solve.s": (vfs.s, "s"),
        "vf.vf_solve.peak_mb": (peak_mb("vf.vf_solve"), "MB"),
        "vf.terms_mean": (_ratio(vfa.counters["terms"], vfa.calls), "count"),
        "vf.converged_frac": (_ratio(vfa.counters["converged"], vfa.calls), "ratio"),
        "identify.candidates": (_ratio(ident.counters["candidates"], ident.calls), "count"),
        "identify.fit_s": (ident.child_s - ident_pw.s, "s"),
        "identify.make_piecewise_s": (ident_pw.s, "s"),
        "identify.self_s": (ident.self_s, "s"),
        "core.nullspace_basis.calls": (g("core.nullspace_basis").calls, "count"),
        "core.nullspace_basis.s": (g("core.nullspace_basis").s, "s"),
        "core.vandermonde.s": (g("core.vandermonde").s, "s"),
        "core.from_weights.s": (g("core.from_weights").s, "s"),
        "core.degree_diagnostics.s": (g("core.degree_diagnostics").s, "s"),
        "core.eval.s": (g("core.eval").s + bary.s, "s"),
        "util.relative_errors.s": (g("util.relative_errors").s, "s"),
        "asymptotic.moments.s": (g("asymptotic.moments").s, "s"),
        "asymptotic.eval_piecewise.s": (g("asymptotic.eval_piecewise").s, "s"),
        "asymptotic.bary_branch.s": (bary.s, "s"),
        "asymptotic.asym_branch.s": (asym.s, "s"),
        "asymptotic.far_frac": (
            _ratio(asym.counters["points"], asym.counters["points"] + bary.counters["points"]),
            "ratio",
        ),
        "benchmarks.sample_gen.s": (g("benchmarks.sample_gen").s, "s"),
        "benchmarks.save_samples.s": (g("benchmarks.save_samples").s, "s"),
        "benchmarks.load_samples.s": (g("benchmarks.load_samples").s, "s"),
        "cli.model_to_json.s": (g("cli.model_to_json").s, "s"),
        "cli.model_from_json.s": (g("cli.model_from_json").s, "s"),
    }


def layer_metrics(setup, passes, peaks, overhead_s):
    """Per-layer metrics of a traced run: set-up once plus one pass of the ops.

    Each value is the median over the traced passes (counts repeat exactly
    from pass to pass, so for them the median is that count).  ``peaks``
    holds the stats of a set-up and pass traced under tracemalloc.
    """
    per_pass = [_layer_metrics(merge(setup, p), peaks) for p in passes]
    out = {
        name: {"value": statistics.median(m[name][0] for m in per_pass), "unit": unit}
        for name, (_, unit) in per_pass[0].items()
    }
    out["trace.overhead"] = {"value": overhead_s, "unit": "s"}
    return out


def profile_lines(stats, peaks):
    """Human-readable per-layer table, largest self time first."""
    rows = sorted(stats.items(), key=lambda kv: kv[1].self_s, reverse=True)
    lines = [f"  {'layer':36s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'peak_MB':>8s}"]
    for name, st in rows:
        peak = peaks.get(name, st).peak_mb
        lines.append(f"  {name:36s} {st.calls:8d} {st.s:10.4f} {st.self_s:10.4f} {peak:8.2f}")
    return lines
