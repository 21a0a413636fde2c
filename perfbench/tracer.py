"""Per-layer attribution from outside the program.

:class:`Tracer` wraps the public functions of each simulator layer in
place (module functions, class methods, and the overrides in every
subclass) and records a span around each call: the time it took, the
part of that time its child spans covered, and a call count. Nothing in
``src/`` is edited; uninstalling puts every original back.

* A function's **self time** is its spans' duration minus their child
  spans'; a layer's self time sums its functions'. Time in no span at
  all is what the caller reports as ``other_s``.
* A function's **inclusive time** counts only its outermost spans, as
  :mod:`cProfile`'s cumulative time does for recursive functions, so the
  two can be compared call for call (``tests/test_attribution.py``).
* Generator functions (blocking MPI calls) are timed per resumption: the
  call returns a proxy generator whose every step is a span.

Spans are folded into per-function totals as they close rather than
kept, because the long workloads close millions of them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "Tracer", "FnStats"]


@dataclass(frozen=True)
class Layer:
    """One row of the wrap table: which callables belong to *name*."""

    name: str
    module: str
    targets: tuple[str, ...]         # "func" or "Class.method"
    #: also wrap each subclass's own override of a "Class.method" target
    subclasses: bool = False
    #: calls may return generators whose resumptions are timed
    generators: bool = False


_DIRECTORY = ("locations_of", "bytes_missing_at", "bytes_present_at",
              "present_bytes_for", "record_copy_in", "record_write",
              "bytes_missing_home", "record_pull_home", "drop_node",
              "nodes_with_any_copy")
_RANKCOMM = ("isend", "irecv", "send", "recv", "sendrecv", "iprobe",
             "waitall", "barrier", "bcast", "reduce", "allreduce", "gather",
             "allgather", "scatter", "alltoall", "scan", "exscan",
             "reduce_scatter")

#: The layers the benchmark attributes host time to.
LAYERS: tuple[Layer, ...] = (
    Layer("sim.queue", "repro.sim.queue", ("EventQueue.push", "EventQueue.pop")),
    Layer("sim.queue", "repro.sim.engine",
          ("Simulator.schedule", "Simulator.schedule_at", "Simulator.cancel")),
    Layer("apps.generator", "repro.apps.synthetic",
          ("task_durations", "apprank_loads", "emulated_durations")),
    Layer("nanos.scheduler", "repro.nanos.scheduler",
          ("AppRankScheduler.on_ready", "AppRankScheduler.drain",
           "AppRankScheduler.steal_for")),
    Layer("nanos.dependencies", "repro.nanos.dependencies",
          ("DependencyTracker.register", "DependencyTracker.notify_finished")),
    Layer("nanos.directory", "repro.nanos.locality",
          tuple(f"DataDirectory.{m}" for m in _DIRECTORY)),
    Layer("nanos.regions", "repro.nanos.regions",
          ("IntervalMap.overlapping", "IntervalMap.apply", "IntervalMap.gaps")),
    Layer("nanos.worker", "repro.nanos.worker",
          ("Worker.enqueue", "Worker.try_start", "Worker.start_next_on")),
    Layer("dlb.arbiter", "repro.dlb.shmem",
          ("NodeArbiter.acquire_core", "NodeArbiter.lend_idle_cores",
           "NodeArbiter.release_core", "NodeArbiter.set_ownership")),
    Layer("balance.lp", "repro.balance.global_policy",
          ("solve_edge_allocation", "solve_core_allocation",
           "solve_partitioned_allocation")),
    Layer("policies.offload", "repro.policies.base",
          ("OffloadPolicy.choose_worker", "OffloadPolicy.drain_order"),
          subclasses=True),
    Layer("policies.lend", "repro.policies.lewi",
          ("LendPolicy.lend_count", "LendPolicy.lend_released",
           "ReclaimPolicy.grant_order"), subclasses=True),
    Layer("policies.realloc", "repro.policies.reallocation",
          ("ClusterReallocationPolicy.allocate",
           "NodeReallocationPolicy.allocate_node"), subclasses=True),
    Layer("mpisim", "repro.mpisim.comm",
          tuple(f"RankComm.{m}" for m in _RANKCOMM), generators=True),
    Layer("mpisim", "repro.mpisim.message", ("payload_nbytes",)),
    Layer("graph", "repro.graph.cache", ("get_graph",)),
    Layer("jobs.profile", "repro.jobs.profile", ("profile_job",)),
    Layer("jobs.decide", "repro.jobs.arbiter", ("JobsArbiter.decide",)),
    Layer("jobs.curve", "repro.jobs.profile", ("JobProfile.throughput_curve",)),
)


class FnStats:
    """Running totals for one wrapped callable."""

    __slots__ = ("layer", "name", "code", "calls", "outer", "self_s",
                 "incl_s", "depth")

    def __init__(self, layer: str, name: str, code: Any) -> None:
        self.layer = layer
        self.name = name
        #: the original's code object (how cProfile names the function)
        self.code = code
        self.calls = 0
        #: calls not nested in another call of the same callable
        self.outer = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


def _even_split(result: Any) -> bool:
    """Whether a ``task_durations`` result is the even-split fallback:
    every rank but the worst gets the same share (a Dirichlet draw over
    two or more ranks never repeats a value)."""
    return len(set(result.tolist())) <= 2


class Tracer:
    """Wraps the :data:`LAYERS` callables and accumulates their spans."""

    def __init__(self) -> None:
        self.functions: list[FnStats] = []
        #: outcome counters observed at the wrapped calls
        self.counters: dict[str, float] = {}
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[Any, str, Any]] = []
        self._profiled: set = set()
        self._observers: dict[str, Callable[..., None]] = {
            "task_durations": self._on_task_durations,
            "NodeArbiter.acquire_core": self._on_acquire,
            "NodeArbiter.lend_idle_cores": self._on_lend,
            "payload_nbytes": self._on_nbytes,
            "profile_job": self._on_profile,
        }
        self.reset()

    # -- counters ------------------------------------------------------

    @property
    def spanned_s(self) -> float:
        """Time inside outermost spans since the last :meth:`reset`; the
        layers' self times sum to it."""
        return self._stack[0]

    def reset(self) -> None:
        """Zero every total (call between set-up and the timed run)."""
        self._stack[0] = 0.0
        for st in self.functions:
            st.calls, st.outer, st.self_s, st.incl_s = 0, 0, 0.0, 0.0
        self.counters = dict.fromkeys(
            ("apps.fallbacks", "dlb.acquire_hits", "dlb.lent_cores",
             "mpisim.bytes", "jobs.profile_misses"), 0)

    def _on_task_durations(self, _st: FnStats, result: Any,
                           *_call: Any) -> None:
        if _even_split(result):
            self.counters["apps.fallbacks"] += 1

    def _on_acquire(self, _st: FnStats, result: Any, *_call: Any) -> None:
        if result is not None:
            self.counters["dlb.acquire_hits"] += 1

    def _on_lend(self, _st: FnStats, result: Any, *_call: Any) -> None:
        self.counters["dlb.lent_cores"] += result

    def _on_nbytes(self, st: FnStats, result: Any, *_call: Any) -> None:
        if st.depth == 0:           # nested payloads are already summed
            self.counters["mpisim.bytes"] += result

    def _on_profile(self, _st: FnStats, _result: Any, args: tuple,
                    kwargs: dict) -> None:
        spec = args[0] if args else kwargs["spec"]
        scale = args[1] if len(args) > 1 else kwargs["scale"]
        key = (spec, scale.name)        # profile_job's memo key
        if key not in self._profiled:
            self._profiled.add(key)
            self.counters["jobs.profile_misses"] += 1

    # -- wrapping ------------------------------------------------------

    def install(self, layers: Optional[tuple[str, ...]] = None) -> "Tracer":
        """Wrap the :data:`LAYERS` callables, or only those of the named
        *layers* (imports their modules)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            if layers is not None and layer.name not in layers:
                continue
            module = importlib.import_module(layer.module)
            for target in layer.targets:
                if "." not in target:
                    self._wrap_function(module, layer, target)
                    continue
                cls_name, method = target.split(".")
                classes = [getattr(module, cls_name)]
                if layer.subclasses:
                    classes += _all_subclasses(classes[0])
                for cls in classes:
                    if method in cls.__dict__:
                        self._wrap_method(cls, layer, method, target)
        return self

    def uninstall(self) -> None:
        """Put every original callable back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap_function(self, module: types.ModuleType, layer: Layer,
                       name: str) -> None:
        original = getattr(module, name)
        wrapped = self._wrapper(original, layer, name)
        # ``from x import f`` copies bind the name elsewhere: patch every
        # repro module holding this very function object.
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, name, None) is original):
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapped)

    def _wrap_method(self, cls: type, layer: Layer, method: str,
                     target: str) -> None:
        raw = cls.__dict__[method]
        name = f"{cls.__name__}.{method}"
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrapper(raw.__func__, layer, target,
                                                 name))
        else:
            wrapped = self._wrapper(raw, layer, target, name)
        self._patches.append((cls, method, raw))
        setattr(cls, method, wrapped)

    def _wrapper(self, fn: Callable, layer: Layer, target: str,
                 name: Optional[str] = None) -> Callable:
        st = FnStats(layer.name, name or target, fn.__code__)
        self.functions.append(st)
        stack = self._stack
        clock = perf_counter
        observe = self._observers.get(target)
        steps = self._steps if layer.generators else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.depth -= 1
                st.self_s += dt - stack.pop()
                stack[-1] += dt
                st.calls += 1
                if st.depth == 0:
                    st.outer += 1
                    st.incl_s += dt
            if observe is not None:
                observe(st, result, args, kwargs)
            if steps is not None and isinstance(result, types.GeneratorType):
                return steps(result, st)
            return result

        return functools.update_wrapper(traced, fn)

    def _steps(self, gen: types.GeneratorType, st: FnStats):
        """Proxy for *gen*: each resumption is a span of *st*'s layer."""
        stack = self._stack
        clock = perf_counter
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            stack.append(0.0)
            st.depth += 1
            t0 = clock()
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                dt = clock() - t0
                st.depth -= 1
                st.self_s += dt - stack.pop()
                stack[-1] += dt
                if st.depth == 0:
                    st.incl_s += dt
            try:
                value, error = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:   # forwarded into gen, not lost
                value, error = None, exc

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals per layer and per function, plus the counters."""
        layers: dict[str, dict] = {}
        for st in self.functions:
            entry = layers.setdefault(st.layer, {"calls": 0, "self_s": 0.0,
                                                 "incl_s": 0.0})
            entry["calls"] += st.calls
            entry["self_s"] += st.self_s
            entry["incl_s"] += st.incl_s
        return {
            "spanned_s": self.spanned_s,
            "layers": layers,
            "functions": {st.name: {"layer": st.layer, "calls": st.calls,
                                    "self_s": st.self_s, "incl_s": st.incl_s}
                          for st in self.functions},
            "counters": dict(self.counters),
        }


def _all_subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found
