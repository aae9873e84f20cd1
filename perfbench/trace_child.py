"""Run one ``qpartitions`` command with per-layer hooks and write its trace.

Usage: python perfbench/trace_child.py TRACE.json CLI-ARGUMENTS...

The hooks live here, outside the package: every public function of the
layer modules is wrapped, and every module binding (``from ... import``) and
closure cell that holds the original is pointed at the wrapper, so calls
made through any of them are seen.  ``lru_cache`` functions are wrapped
outside the cache, so hits count as calls too.  Hot ``LaurentSeries``
methods are not kept as one span per call: every call adds to a record per
(layer, function, context), where the context is the identity being
verified or else the CLI command.  A hook point that no longer exists is
listed under ``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import sys
import time
import types

LAYERS = ("cli", "identities", "closed_forms", "enumeration", "qobjects", "series", "dsl")
# private functions that carry the enumeration counters
PRIVATE_HOOKS = {"enumeration": ("_sweep_plain", "_sweep_diff")}
# functions that some per-layer metric is read from
HOOK_POINTS = {
    "cli": ("main",),
    "identities": ("verify", "registry"),
    "qobjects": ("poch_infinite", "q_hyper_sum"),
    "dsl": ("parse", "evaluate"),
    "enumeration": PRIVATE_HOOKS["enumeration"],
}
# LaurentSeries methods that return a series
SERIES_METHODS = ("add", "sub", "neg", "scale", "mul", "inverse", "shift", "truncate",
                  "extend", "mul_binomial", "div_binomial", "pos_part", "nonpos_part")


class Tracer:
    def __init__(self, context: str) -> None:
        self.context = context
        self.stack: list[float] = []  # seconds spent in traced children, per open call
        self.agg: dict[tuple[str, str, str], list] = {}  # -> [calls, self_s, incl_s]
        self.counters = dict.fromkeys(
            ("sweeps", "tallied", "useful", "gen_yielded", "mul_terms", "max_window"), 0)
        self.queried: set = set()
        self.caches: dict[str, object] = {}
        self.missing: set[str] = set()
        self.identity_ids: list[str] = []

    # -- wrappers ---------------------------------------------------------

    def timed(self, layer: str, name: str, fn, after=None):
        """Wrap fn so its self and inclusive time add to (layer, name, context).

        ``after(args, kwargs, result)`` updates counters; its own time is
        charged to no layer.
        """
        stack, agg, clock, tracer = self.stack, self.agg, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                key = (layer, name, tracer.context)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur - child
                rec[2] += dur
            if after is not None:
                h0 = clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1] += clock() - h0
            return result

        return wrapper

    def counting(self, fn):
        """Wrap a generator function to count the items it yields."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters["gen_yielded"] += 1
                yield item

        return wrapper

    def in_context(self, fn):
        """Make the first argument (an identity id) the context of inner calls."""
        @functools.wraps(fn)
        def wrapper(identity_id, *args, **kwargs):
            outer, self.context = self.context, identity_id
            try:
                return fn(identity_id, *args, **kwargs)
            finally:
                self.context = outer

        return wrapper

    def guarded(self, metric: str, hook):
        """Run a counter hook; if the program's shapes changed, mark it missing."""
        def run(args, kwargs, result):
            if metric in self.missing:
                return
            try:
                hook(args, kwargs, result)
            except (AttributeError, TypeError, KeyError):
                self.missing.add(metric)

        return run

    # -- counter hooks ----------------------------------------------------

    def _after_sweep(self, args, kwargs, result):
        self.counters["sweeps"] += 1
        self.counters["tallied"] += sum(sum(h.values()) for h in result)

    def _after_series(self, args, kwargs, result):
        window = result.trunc_order - result.min_exp
        if window > self.counters["max_window"]:
            self.counters["max_window"] = window

    def _after_mul(self, args, kwargs, result):
        self._after_series(args, kwargs, result)
        a, b = args[0].coeffs, args[1].coeffs
        n, lb = len(result.coeffs), len(b)
        self.counters["mul_terms"] += sum(
            min(lb, n - i) for i, ai in enumerate(a[:n]) if ai)

    def _hist_get(self, get):
        """Record the tallies of each distinct (filter, n) a counter reads."""
        signature = inspect.signature(get)
        counters, queried, missing = self.counters, self.queried, self.missing

        @functools.wraps(get)
        def wrapper(*args, **kwargs):
            result = get(*args, **kwargs)
            if "enumeration.read_ratio" not in missing:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    key = tuple(bound.arguments.values())[1:]  # drop self
                    if key not in queried:
                        queried.add(key)
                        counters["useful"] += sum(result.values())
                except (AttributeError, TypeError):
                    missing.add("enumeration.read_ratio")
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"qpartitions.{layer}")
            except ImportError:
                self.missing.add(layer)
        # closures to re-point, taken before any wrapper (itself a closure) exists
        closures = [
            f for f in gc.get_objects()
            if isinstance(f, types.FunctionType) and f.__closure__
            and (f.__module__ or "").startswith("qpartitions")
        ]
        plan: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if hasattr(obj, "cache_info"):
                    self.caches[f"{layer}.{name}"] = obj
                private = name.startswith("_")
                if private and name not in PRIVATE_HOOKS.get(layer, ()):
                    continue
                if inspect.isgeneratorfunction(obj):
                    plan[id(obj)] = self.counting(obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    after = None
                    if private:  # a sweep
                        after = self.guarded("enumeration.sweeps", self._after_sweep)
                    wrapper = self.timed(layer, name, obj, after)
                    if (layer, name) == ("identities", "verify"):
                        wrapper = self.in_context(wrapper)
                    plan[id(obj)] = wrapper
            for name in HOOK_POINTS.get(layer, ()):
                if name not in vars(mod):
                    self.missing.add(f"{layer}.{name}")
        self._install_classes(modules)
        self._rebind(plan, closures)
        ident = modules.get("identities")
        try:
            self.identity_ids = [i.id for i in ident.registry()]
        except AttributeError:
            self.missing.add("identities.registry")

    def _install_classes(self, modules) -> None:
        series_cls = getattr(modules.get("series"), "LaurentSeries", None)
        for name in SERIES_METHODS:
            method = getattr(series_cls, name, None)
            if method is None:
                self.missing.add(f"series.LaurentSeries.{name}")
                continue
            if name == "mul":
                after = self.guarded("series.mul_terms", self._after_mul)
            else:
                after = self.guarded("series.max_window", self._after_series)
            setattr(series_cls, name, self.timed("series", name, method, after))
        hist_cls = getattr(modules.get("enumeration"), "_HistCache", None)
        if getattr(hist_cls, "get", None) is None:
            self.missing.add("enumeration._HistCache.get")
        else:
            hist_cls.get = self._hist_get(hist_cls.get)

    @staticmethod
    def _rebind(plan, closures) -> None:
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "qpartitions" and not name.startswith("qpartitions."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in plan:
                    setattr(mod, attr, plan[id(value)])
        for f in closures:
            for cell in f.__closure__:
                try:
                    contents = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                if id(contents) in plan:
                    cell.cell_contents = plan[id(contents)]

    def dump(self, path: str) -> None:
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        data = {
            "agg": [[*key, *rec] for key, rec in self.agg.items()],
            "counters": self.counters,
            "caches": caches,
            "identity_ids": self.identity_ids,
            "missing": sorted(self.missing),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(context=argv[0] if argv else "")
    tracer.install()
    cli = importlib.import_module("qpartitions.cli")
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
