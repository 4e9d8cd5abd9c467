"""Span recorder for the traced run.

Wraps the public methods of each layer's live instances (plus three
module-level factories and two recall classes) so every call becomes a
span.  A span's self time is its duration minus the child spans it
covers.  The recorder only observes: arguments and return values pass
through untouched, which the traced run proves by comparing simulated
stats with an untraced run of the same work.
"""

from __future__ import annotations

import functools
import inspect
import time
import types

#: Every layer boundary the traced run reports, in report order.
LAYERS = (
    "workloads.make_trace", "uncore.build", "core.run", "uncore.hierarchy",
    "vm.mmu", "vm.walker", "cache.l1d", "cache.l2c", "cache.llc",
    "cache.replacement", "memsys.mshr", "memsys.dram", "prefetch.atp",
    "prefetch.tempo", "stats.recall", "experiments.figure",
    "service.submit", "service.store.get", "service.store.put",
)

_POLICY_METHODS = ("victim", "on_hit", "on_fill", "on_evict")
_MSHR_METHODS = ("lookup", "admission_delay", "allocate",
                 "allocate_prefetch", "occupancy")


class SpanRecorder:
    """Per-layer call counts, self time and inclusive time."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.total_s = dict.fromkeys(LAYERS, 0.0)
        # One [child_seconds] cell per open span, innermost last.
        self._stack = []
        self._undo = []

    # -- span bookkeeping ------------------------------------------------
    def _close(self, layer: str, frame: list, start: float) -> None:
        duration = time.perf_counter() - start
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {layer} closed out of order")
        if self._stack:
            self._stack[-1][0] += duration
        self.calls[layer] += 1
        self.self_s[layer] += duration - frame[0]
        self.total_s[layer] += duration

    def span(self, layer: str, fn):
        """``fn`` wrapped so each call is one span of ``layer``."""
        if layer not in self.calls:
            raise KeyError(layer)
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                frame = [0.0]
                self._stack.append(frame)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(layer, frame, start)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer, frame, start)
        return traced

    # -- patching --------------------------------------------------------
    def patch(self, owner, attr: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a live instance, a class or a module; ``close()``
        puts back the originals of classes and modules (instances are
        discarded after their run).  ``after(result)`` runs on each
        result outside the span (used to instrument freshly built
        objects).
        """
        if isinstance(owner, (type, types.ModuleType)):
            self._undo.append((owner, attr, owner.__dict__[attr]))
        wrapped = self.span(layer, getattr(owner, attr))
        if after is not None:
            inner = wrapped

            def wrapped(*args, **kwargs):
                result = inner(*args, **kwargs)
                after(result)
                return result
        setattr(owner, attr, wrapped)

    def close(self) -> None:
        """Restore every patched class and module, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- layer wiring ----------------------------------------------------
    def instrument_hierarchy(self, hierarchy) -> None:
        """Wrap one freshly built ``MemoryHierarchy`` and its parts."""
        self.patch(hierarchy, "load", "uncore.hierarchy")
        self.patch(hierarchy, "store", "uncore.hierarchy")
        self.patch(hierarchy.mmu, "translate", "vm.mmu")
        self.patch(hierarchy.mmu.walker, "walk", "vm.walker")
        for level in ("l1d", "l2c", "llc"):
            cache = getattr(hierarchy, level)
            self.patch(cache, "access", f"cache.{level}")
            for name in _POLICY_METHODS:
                self.patch(cache.policy, name, "cache.replacement")
            for name in _MSHR_METHODS:
                self.patch(cache.mshr, name, "memsys.mshr")
            # ATP installs bound-method hooks at attach(); wrapping the
            # hook attribute (not the class method) is what catches them.
            if cache.on_leaf_translation_hit is not None:
                self.patch(cache, "on_leaf_translation_hit",
                           "prefetch.atp")
        self.patch(hierarchy.dram, "access", "memsys.dram")
        if hierarchy.dram.on_leaf_translation is not None:
            self.patch(hierarchy.dram, "on_leaf_translation",
                       "prefetch.tempo")

    def instrument_core(self, core) -> None:
        self.patch(core, "run", "core.run")

    def instrument_program(self, runner_module, api_module,
                           recall_module) -> None:
        """Wrap the run module's factories, the figure entry point and
        the recall classes (recall trackers are rebuilt at the warmup
        boundary, so their class methods are wrapped, not instances)."""
        self.patch(runner_module, "make_trace", "workloads.make_trace")
        self.patch(runner_module, "MemoryHierarchy", "uncore.build",
                   after=self.instrument_hierarchy)
        self.patch(runner_module, "make_core", "uncore.build",
                   after=self.instrument_core)
        self.patch(api_module, "figure", "experiments.figure")
        self.patch(recall_module.RecallPair, "on_access", "stats.recall")
        self.patch(recall_module.RecallTracker, "on_access", "stats.recall")
        self.patch(recall_module.RecallTracker, "on_evict", "stats.recall")

    def instrument_service(self, service) -> None:
        self.patch(service, "submit_spec", "service.submit")
        self.patch(service.store, "get_payload", "service.store.get")
        self.patch(service.store, "contains", "service.store.get")
        self.patch(service.store, "put_payload", "service.store.put")

    # -- report ----------------------------------------------------------
    def metrics(self, accesses: int) -> dict:
        """``<layer>.calls``/``.calls_per_access``/``.self_s`` plus the
        share of ``core.run`` time inside no child span."""
        out = {}
        for layer in LAYERS:
            calls = self.calls[layer]
            out[f"{layer}.calls"] = (calls, "count")
            out[f"{layer}.calls_per_access"] = (
                calls / accesses if accesses else 0.0, "calls/access")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        core_total = self.total_s["core.run"]
        out["unattributed_share"] = (
            self.self_s["core.run"] / core_total if core_total else 0.0,
            "ratio")
        return out
