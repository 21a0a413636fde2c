"""The ``python -m repro bench`` harness: pinned workloads, measured.

Each target is one representative workload (the same configurations
``python -m repro trace`` records, minus the instrumentation) run with
nothing armed — no obs, no trace, no validation — and timed from
outside: ``setup`` is ``ClusterRuntime`` construction, ``event_loop`` is
``run_app``, ``teardown`` is reading the simulated outcome, and events
come from ``Simulator.events_fired``. Building the app (workload
generation) is not timed. A bench run:

1. executes the target ``repeat`` times at a pinned scale/seed,
2. runs it once more under :mod:`cProfile` (``run_app`` only) and
   attributes the loop to subsystems by module
   (:func:`~repro.perf.recorder.profile_buckets`),
3. asserts the *simulated* outcome (makespan, events, tasks, messages)
   is identical across all of those runs — determinism is part of the
   measurement contract, a drifting simulation makes the wall-clock
   numbers garbage,
4. writes a schema-versioned, environment-stamped ``BENCH_<target>.json``
   next to the repo root (or ``--bench-dir``), the committed perf
   trajectory that ``tools/compare_bench.py`` diffs against.

:func:`write_profile` exports that same profiler run as a pstats dump
plus collapsed stacks (``caller;callee microseconds`` folded lines) for
flamegraph tooling.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import platform
import pstats
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

from .. import __version__
from ..apps.micropp.workload import MicroppSpec, make_micropp_app
from ..apps.nbody.workload import NBodySpec, make_nbody_app
from ..apps.synthetic import SyntheticSpec, make_synthetic_app
from ..cluster.machine import MARENOSTRUM4, NORD3
from ..cluster.topology import ClusterSpec
from ..errors import ExperimentError
from ..experiments.base import SMALL, Scale
from ..nanos.config import RuntimeConfig
from ..nanos.runtime import ClusterRuntime
from .recorder import PERF_PHASES, PerfRecorder, peak_rss_bytes, profile_buckets

__all__ = ["BENCH_SCHEMA", "BENCH_TARGETS", "BenchResult", "run_bench",
           "bench_path", "write_profile"]

#: Schema identifier stamped into every BENCH file; bump on breaking
#: changes so the comparator can refuse cross-schema diffs.
BENCH_SCHEMA = "repro-bench/2"

#: workloads ``python -m repro bench`` can measure
BENCH_TARGETS = ("headline", "synthetic", "nbody")


@dataclass(frozen=True)
class _Workload:
    """What one bench run builds: the cluster, the config and the app."""

    cluster: ClusterSpec
    num_appranks: int
    config: RuntimeConfig
    app: Callable[[], Any]


def _workload(name: str, scale: Scale) -> _Workload:
    """The named pinned workload."""
    if name == "headline":
        machine = scale.machine(MARENOSTRUM4)
        nodes = 8
        spec = MicroppSpec(
            num_appranks=nodes, cores_per_apprank=machine.cores_per_node,
            subdomains_per_core=scale.micropp_subdomains_per_core,
            iterations=scale.iterations, seed=7)
        return _Workload(ClusterSpec.homogeneous(machine, nodes), nodes,
                         scale.tune(RuntimeConfig.offloading(4, "global")),
                         lambda: make_micropp_app(spec))
    if name == "synthetic":
        machine = scale.machine(MARENOSTRUM4)
        synth = SyntheticSpec(num_appranks=8, imbalance=2.0,
                              cores_per_apprank=machine.cores_per_node,
                              tasks_per_core=scale.tasks_per_core,
                              iterations=scale.iterations)
        return _Workload(ClusterSpec.homogeneous(machine, 8), 8,
                         scale.tune(RuntimeConfig.offloading(4, "global")),
                         lambda: make_synthetic_app(synth))
    if name == "nbody":
        nord = scale.machine(NORD3)
        nodes, per_node = 8, 2
        body = NBodySpec(
            num_appranks=nodes * per_node,
            cores_per_apprank=nord.cores_per_node // per_node,
            bodies_per_apprank=(64 * scale.tasks_per_core
                                * (nord.cores_per_node // per_node) // 2),
            bodies_per_task=64, timesteps=scale.iterations)
        cluster = ClusterSpec.homogeneous(nord, nodes).with_slow_nodes(
            {0: 1.8 / NORD3.base_freq_ghz})
        return _Workload(cluster, nodes * per_node,
                         scale.tune(RuntimeConfig.offloading(3, "global")),
                         lambda: make_nbody_app(body))
    raise ExperimentError(f"unknown bench target {name!r} "
                          f"(choose from {BENCH_TARGETS})")


def _measure(work: _Workload, profiler: Optional[cProfile.Profile] = None
             ) -> tuple[PerfRecorder, dict[str, Any]]:
    """Run *work* once, timing its phases from outside.

    With *profiler*, only ``run_app`` runs under it. The cyclic garbage
    collector is paused for the run (a full collection runs first): the
    simulator allocates heavily on the event hot path, and generational
    collections firing mid-loop would make the measurement depend on
    allocator history rather than on the event core. This is
    measurement hygiene only; it cannot affect the simulated outcome.
    """
    rec = PerfRecorder()
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        runtime = ClusterRuntime(work.cluster, work.num_appranks, work.config)
        t1 = perf_counter()
        main = work.app()
        events_before = runtime.sim.events_fired
        t2 = perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            runtime.run_app(main)
        finally:
            if profiler is not None:
                profiler.disable()
        t3 = perf_counter()
        fingerprint = _simulated_fingerprint(runtime)
        t4 = perf_counter()
    finally:
        if gc_was_enabled:
            gc.enable()
    rec.add_phase("setup", t1 - t0)
    rec.add_phase("event_loop", t3 - t2)
    rec.add_phase("teardown", t4 - t3)
    rec.events_processed = runtime.sim.events_fired - events_before
    return rec, fingerprint


def _environment() -> dict[str, Any]:
    """The reproducibility stamp: where these wall-clock numbers came from."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "host": platform.node(),
        "repro_version": __version__,
    }


def _simulated_fingerprint(runtime: ClusterRuntime) -> dict[str, Any]:
    """The deterministic outcome of one run (identical across repeats)."""
    stats = runtime.stats()
    return {
        "elapsed": stats["elapsed"],
        "events": stats["events"],
        "tasks": stats["tasks"],
        "executed": stats["executed"],
        "offloaded": stats["offloaded"],
        "mpi_messages": stats["mpi_messages"],
    }


def _spread(values: list[float]) -> dict[str, float]:
    return {"mean": sum(values) / len(values),
            "min": min(values), "max": max(values)}


@dataclass
class BenchResult:
    """One bench measurement: repeats of one target at one scale, plus
    the profiled run its subsystem attribution comes from."""

    target: str
    scale: str
    repeat: int
    simulated: dict[str, Any]
    recorders: list[PerfRecorder]
    #: the extra run under cProfile; its buckets are filled
    profiled: PerfRecorder
    profiler: cProfile.Profile

    def record(self) -> dict[str, Any]:
        """The schema-versioned JSON document for ``BENCH_<target>.json``."""
        totals = [sum(r.phases.values()) for r in self.recorders]
        loops = [r.loop_seconds() for r in self.recorders]
        rates = [r.events_per_sec() for r in self.recorders]
        phases = {name: _spread([r.phases.get(name, 0.0)
                                 for r in self.recorders])
                  for name in PERF_PHASES}
        return {
            "schema": BENCH_SCHEMA,
            "target": self.target,
            "scale": self.scale,
            "repeat": self.repeat,
            "environment": _environment(),
            "simulated": self.simulated,
            "wall_clock": {
                "total_s": _spread(totals),
                "event_loop_s": _spread(loops),
                "phases_s": phases,
                "events_per_sec": _spread(rates),
                "events_processed": self.recorders[0].events_processed,
                "peak_rss_bytes": peak_rss_bytes(),
                "profiled_loop_s": self.profiled.loop_seconds(),
                "subsystems": self.profiled.attribution(),
            },
        }

    def format(self) -> str:
        """The CLI report: throughput, phases, and the attribution table."""
        rec = self.record()
        wall = rec["wall_clock"]
        lines = [
            f"Bench '{self.target}' (scale={self.scale}, "
            f"repeat={self.repeat}):",
            f"  events/sec      {wall['events_per_sec']['mean']:>12,.0f}  "
            f"(min {wall['events_per_sec']['min']:,.0f}, "
            f"max {wall['events_per_sec']['max']:,.0f})",
            f"  wall total      {wall['total_s']['mean']:>12.4f}s  "
            f"over {wall['events_processed']:,} events",
        ]
        for name in PERF_PHASES:
            lines.append(f"    {name:<13} {wall['phases_s'][name]['mean']:>12.4f}s")
        if wall["peak_rss_bytes"] is not None:
            lines.append(
                f"  peak RSS        {wall['peak_rss_bytes'] / 2**20:>12.1f} MiB")
        lines.append("  subsystem attribution (cProfile self time, share of "
                     f"the {wall['profiled_loop_s']:.4f}s profiled loop):")
        for name, entry in sorted(wall["subsystems"].items(),
                                  key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"    {name:<20} {entry['self_s']:>9.4f}s "
                         f"{entry['share']:>7.1%}  calls={entry['calls']:,}")
        return "\n".join(lines)


def bench_path(target: str, bench_dir: "Path | str" = ".") -> Path:
    """Where the committed baseline for *target* lives."""
    return Path(bench_dir) / f"BENCH_{target}.json"


def run_bench(target: str, scale: Scale = SMALL, repeat: int = 3,
              progress: Optional[Callable[[str], None]] = None) -> BenchResult:
    """Measure *target* ``repeat`` times plus one profiled run.

    Raises :class:`~repro.errors.ExperimentError` if the simulated
    outcome differs between any two of those runs (a determinism break).
    """
    if repeat < 1:
        raise ExperimentError(f"repeat must be >= 1, got {repeat}")
    if target not in BENCH_TARGETS:
        raise ExperimentError(f"unknown bench target {target!r} "
                              f"(choose from {BENCH_TARGETS})")
    fingerprint: Optional[dict[str, Any]] = None

    def measure(label: str, profiler: Optional[cProfile.Profile] = None
                ) -> PerfRecorder:
        nonlocal fingerprint
        if progress is not None:
            progress(f"bench {target}: {label}")
        rec, current = _measure(_workload(target, scale), profiler)
        if fingerprint is None:
            fingerprint = current
        elif current != fingerprint:
            raise ExperimentError(
                f"bench {target!r}: simulated outcome drifted between "
                f"repeats: {fingerprint} != {current}")
        return rec

    recorders = [measure(f"run {i + 1}/{repeat}") for i in range(repeat)]
    profiler = cProfile.Profile()
    profiled = measure("profiled run", profiler)
    profiler.create_stats()
    profiled.buckets, profiled.calls = profile_buckets(profiler.stats)
    return BenchResult(target=target, scale=scale.name, repeat=repeat,
                       simulated=fingerprint, recorders=recorders,
                       profiled=profiled, profiler=profiler)


def write_record(result: BenchResult, bench_dir: "Path | str" = ".") -> Path:
    """Write ``BENCH_<target>.json`` atomically; returns the path."""
    from ..ioutil import atomic_write_text
    path = bench_path(result.target, bench_dir)
    atomic_write_text(path, json.dumps(result.record(), indent=2,
                                       sort_keys=True) + "\n")
    return path


# -- profile export ------------------------------------------------------------

def write_profile(result: BenchResult,
                  bench_dir: "Path | str" = ".") -> tuple[Path, Path]:
    """Export the profiled run of *result*.

    Writes ``BENCH_<target>.pstats`` (binary, for ``pstats``/snakeviz)
    and ``BENCH_<target>.folded`` (collapsed ``caller;callee`` stacks,
    one per line with sample weights in microseconds — flamegraph
    input). Returns both paths.
    """
    base = Path(bench_dir)
    base.mkdir(parents=True, exist_ok=True)
    pstats_path = base / f"BENCH_{result.target}.pstats"
    folded_path = base / f"BENCH_{result.target}.folded"
    result.profiler.dump_stats(pstats_path)
    stats = pstats.Stats(result.profiler, stream=sys.stderr)
    folded_path.write_text("".join(_folded_lines(stats)), encoding="utf-8")
    return pstats_path, folded_path


def _frame_name(func: tuple) -> str:
    filename, lineno, name = func
    if filename.startswith("~"):
        return name  # builtins
    return f"{Path(filename).name}:{lineno}:{name}"


def _folded_lines(stats: pstats.Stats) -> list[str]:
    """Two-deep collapsed stacks from the pstats caller graph.

    cProfile records a caller->callee edge matrix, not full stacks, so
    the export folds each edge as ``caller;callee weight`` (plus a root
    line per function's self time). That is enough for a flamegraph to
    show where loop time concentrates and who calls the hot frames.
    """
    lines = []
    for func, (_cc, _nc, tottime, _cumtime, callers) in sorted(
            stats.stats.items(), key=lambda kv: _frame_name(kv[0])):
        name = _frame_name(func)
        self_us = int(round(tottime * 1e6))
        if self_us > 0 and not callers:
            lines.append(f"{name} {self_us}\n")
        for caller, entry in sorted(callers.items(),
                                    key=lambda kv: _frame_name(kv[0])):
            # entry = (cc, nc, tottime, cumtime) attributed to this edge
            edge_us = int(round(entry[3] * 1e6))
            if edge_us > 0:
                lines.append(f"{_frame_name(caller)};{name} {edge_us}\n")
    return lines
