"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of every darbouxkit module from
outside the library.  Each call records a span ``(name, start, end,
parent)`` in memory; per-layer self times, call counts and the kernel
counters below are derived from the spans after the run.

The library imports its functions by name (``from .expr import
normalize``), so every wrapper is rebound in each ``darbouxkit`` module
namespace that holds the original, and in ``golden.CHECKS``, which maps
check names to the check functions.  ``expr.evaluate`` (about 1.6M calls
in one numeric pass) and the ``GaussRat`` methods are left unwrapped:
counting those belongs inside the program.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = (
    "expr", "linsys", "sympow", "darboux", "tensordt",
    "susyqm", "apps", "numverify", "golden", "cli",
)

# Public names deliberately left unwrapped (hot leaf calls).
UNWRAPPED = {"expr.evaluate"}

# Methods wrapped in addition to the module-level functions.
METHODS = {"linsys": {"ExprMatrix": ("det", "inverse", "__matmul__")}}

# Per-layer self-time metrics: metric name -> span names summed.
SELF_GROUPS = {
    "expr.normalize.self_s": ("expr.normalize",),
    "expr.differentiate.self_s": ("expr.differentiate",),
    "expr.substitute.self_s": ("expr.substitute",),
    "expr.parse.self_s": ("expr.parse_infix", "expr.parse_sexpr"),
    "expr.print.self_s": ("expr.to_sexpr", "expr.to_pretty"),
    "linsys.det.self_s": ("linsys.ExprMatrix.det",),
    "linsys.inverse.self_s": ("linsys.ExprMatrix.inverse",),
    "linsys.gauge.self_s": ("linsys.gauge",),
    "sympow.sym_system.self_s": ("sympow.sym_system",),
    "sympow.sym_group.self_s": ("sympow.sym_group",),
    "darboux.make_seed.self_s": ("darboux.make_seed",),
    "darboux.darboux_potential.self_s": ("darboux.darboux_potential",),
    "darboux.darboux_gauge.self_s": ("darboux.darboux_gauge",),
    "tensordt.lift.self_s": tuple(
        f"tensordt.{m}_{kind}"
        for m in ("p1", "p2", "t1", "t2")
        for kind in ("matrix", "explicit", "factors", "gauge")
    ),
    "tensordt.fundamental_matrices.self_s": ("tensordt.fundamental_matrices",),
    "tensordt.flow_derivative.self_s": ("tensordt.flow_derivative",),
    "susyqm.self_s": (
        "susyqm.partner_potentials", "susyqm.matrix_formalism",
        "susyqm.oscillator_states",
    ),
    "apps.build.self_s": ("apps.frenet_family", "apps.rigid_family"),
    "apps.application_chain.self_s": ("apps.application_chain",),
    "numverify.integrate.self_s": ("numverify.integrate",),
    "numverify.residual_sweep.self_s": ("numverify.residual_sweep",),
    "numverify.drift.self_s": ("numverify.drift",),
}

# Call-count metrics: metric name -> span name counted.
CALL_COUNTS = {
    "expr.normalize.calls": "expr.normalize",
    "linsys.matmul.calls": "linsys.ExprMatrix.__matmul__",
}


def _term_count(e, add_type) -> int:
    return len(e.terms) if isinstance(e, add_type) else 1


class Tracer:
    """Wraps darbouxkit's public functions and records call spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self._seen_normalize: set[int] = set()
        self.normalize_repeats = 0
        self.max_num_terms = 0
        self.max_den_terms = 0
        self.rk4_steps = 0

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_normalize(self, args, result) -> None:
        key = hash(args[0])
        if key in self._seen_normalize:
            self.normalize_repeats += 1
        else:
            self._seen_normalize.add(key)
        if isinstance(result, self._div):
            num, den = result.num, result.den
            self.max_den_terms = max(self.max_den_terms, _term_count(den, self._add))
        else:
            num = result
        self.max_num_terms = max(self.max_num_terms, _term_count(num, self._add))

    def _after_integrate(self, args, result) -> None:
        self.rk4_steps += len(result.xs) - 1

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Rebind every public darbouxkit function to a recording wrapper."""
        modules = {layer: importlib.import_module(f"darbouxkit.{layer}") for layer in LAYERS}
        self._add, self._div = modules["expr"].Add, modules["expr"].Div
        hooks = {
            "expr.normalize": self._after_normalize,
            "numverify.integrate": self._after_integrate,
        }
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._set(cls, method, original,
                              self._wrap(f"{layer}.{cls_name}.{method}", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "darbouxkit" and not mod_name.startswith("darbouxkit."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(module, attr, obj, entry[1])
        checks = modules["golden"].CHECKS
        for check, fn in list(checks.items()):
            checks[check] = self._wrap(f"golden.{check}", fn)
            self._restore.append((checks, check, fn, True))

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original, False))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original, is_item = self._restore.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# -- analysis -------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_n, start, end, _p) in enumerate(spans)]


def covered_time(spans) -> float:
    """Length of the union of all span intervals, ignoring parent links."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted((s, e) for _n, s, e, _p in spans):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(spans, wall_s: float, counters: dict, checks) -> dict:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds.

    ``counters`` carries the tracer's kernel counters and the number of
    artifact bytes the pass emitted; ``checks`` names the verify checks
    reported as ``golden.<check>.s``.  Raises ``ValueError`` if the self
    times fail to reconcile with the spans' coverage of the pass.
    """
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    inclusive: dict[str, float] = {}
    for (name, start, end, parent), own in zip(spans, selfs):
        by_name[name] = by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    covered = covered_time(spans)
    total_self = sum(selfs)
    if abs(total_self - covered) > 1e-6 * max(1.0, covered) + 1e-9 * len(spans):
        raise ValueError(f"self times sum to {total_self} s but spans cover {covered} s")

    out: dict[str, float] = {}
    module_self = {layer: 0.0 for layer in LAYERS}
    for name, own in by_name.items():
        module_self[name.split(".", 1)[0]] += own
    for layer, own in module_self.items():
        out[f"{layer}.module_self_s"] = own
    for metric, names in SELF_GROUPS.items():
        out[metric] = sum(by_name.get(n, 0.0) for n in names)
    for metric, name in CALL_COUNTS.items():
        out[metric] = calls.get(name, 0)
    n_normalize = calls.get("expr.normalize", 0)
    out["expr.normalize.repeat_ratio"] = (
        counters["normalize_repeats"] / n_normalize if n_normalize else 0.0
    )
    out["expr.max_num_terms"] = counters["max_num_terms"]
    out["expr.max_den_terms"] = counters["max_den_terms"]
    out["expr.share"] = module_self["expr"] / wall_s
    out["numverify.rk4_steps"] = counters["rk4_steps"]
    integrate_s = inclusive.get("numverify.integrate", 0.0)
    out["numverify.steps_per_s"] = counters["rk4_steps"] / integrate_s if integrate_s else 0.0
    out["numverify.share"] = module_self["numverify"] / wall_s
    for check in checks:
        out[f"golden.{check}.s"] = inclusive.get(f"golden.{check}", 0.0)
    out["cli.main.s"] = inclusive.get("cli.main", 0.0)
    out["cli.artifact_bytes"] = counters["artifact_bytes"]
    out["trace.unwrapped_s"] = wall_s - covered
    return out
