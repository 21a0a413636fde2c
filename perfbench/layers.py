"""Per-layer metrics: what a traced run's spans and counters add up to.

Every ``*_s`` metric is a layer's self time in the timed call (the span
duration its child spans do not cover); ``*_calls`` count the layer's
wrapped calls; ``*_frac`` are useful outcomes over attempts. Graph and
job-profile work happens in set-up, so ``graph.get_graph_s``,
``jobs.profiles`` and ``jobs.profile_s`` are taken from set-up instead.
A metric whose layer made no calls on a workload reads 0.
"""

from __future__ import annotations

__all__ = ["PER_LAYER", "layer_metrics"]

#: (name, unit, better) for every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.queue_s", "s", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("sim.cancelled_frac", "ratio", "lower"),
    ("apps.generator_calls", "count", "lower"),
    ("apps.generator_s", "s", "lower"),
    ("apps.generator_fallback_frac", "ratio", "lower"),
    ("nanos.tasks", "count", "higher"),
    ("nanos.offloaded_frac", "ratio", "higher"),
    ("nanos.scheduler_calls", "count", "lower"),
    ("nanos.scheduler_s", "s", "lower"),
    ("nanos.dependencies_calls", "count", "lower"),
    ("nanos.dependencies_s", "s", "lower"),
    ("nanos.directory_calls", "count", "lower"),
    ("nanos.directory_s", "s", "lower"),
    ("nanos.regions_calls", "count", "lower"),
    ("nanos.regions_s", "s", "lower"),
    ("nanos.worker_s", "s", "lower"),
    ("dlb.arbiter_calls", "count", "lower"),
    ("dlb.arbiter_s", "s", "lower"),
    ("dlb.lent_cores", "count", "higher"),
    ("dlb.drom_moved_cores", "count", "lower"),
    ("dlb.acquire_hit_frac", "ratio", "higher"),
    ("balance.lp_solves", "count", "lower"),
    ("balance.lp_s", "s", "lower"),
    ("balance.lp_ms_per_solve", "ms", "lower"),
    ("policies.offload_calls", "count", "lower"),
    ("policies.offload_s", "s", "lower"),
    ("policies.lend_calls", "count", "lower"),
    ("policies.lend_s", "s", "lower"),
    ("policies.realloc_calls", "count", "lower"),
    ("policies.realloc_s", "s", "lower"),
    ("mpisim.messages", "count", "lower"),
    ("mpisim.bytes", "B", "lower"),
    ("mpisim.s", "s", "lower"),
    ("graph.get_graph_s", "s", "lower"),
    ("jobs.profiles", "count", "lower"),
    ("jobs.profile_s", "s", "lower"),
    ("jobs.decide_calls", "count", "lower"),
    ("jobs.decide_s", "s", "lower"),
    ("jobs.curve_calls", "count", "lower"),
    ("jobs.curve_s", "s", "lower"),
    ("jobs.grant_change_frac", "ratio", "lower"),
    ("other_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: dict, untraced_run_s: float) -> dict[str, float]:
    """Per-layer metric values from one traced child's JSON report;
    *untraced_run_s* is the median timed call of the set's plain runs."""
    traced_run_s = traced["run_s"]
    run, setup = traced["trace"], traced["trace_setup"]
    layer, fn, count = run["layers"], run["functions"], run["counters"]
    outcome = traced["outcome"]
    stats = outcome.get("stats", {})   # single-app runtime stats

    def calls(name: str) -> int:
        return layer[name]["calls"]

    def self_s(name: str) -> float:
        return layer[name]["self_s"]

    events = fn["EventQueue.pop"]["calls"]
    schedules = (fn["Simulator.schedule"]["calls"]
                 + fn["Simulator.schedule_at"]["calls"])
    acquires = fn["NodeArbiter.acquire_core"]["calls"]
    lp = layer["balance.lp"]
    tasks = stats.get("tasks", 0)
    values = {
        "sim.events": events,
        "sim.queue_s": self_s("sim.queue"),
        "sim.us_per_event": _ratio(untraced_run_s * 1e6, events),
        "sim.cancelled_frac": _ratio(fn["Simulator.cancel"]["calls"],
                                     schedules),
        "apps.generator_calls": calls("apps.generator"),
        "apps.generator_s": self_s("apps.generator"),
        "apps.generator_fallback_frac": _ratio(
            count["apps.fallbacks"], fn["task_durations"]["calls"]),
        "nanos.tasks": tasks,
        "nanos.offloaded_frac": _ratio(stats.get("offloaded", 0), tasks),
        "dlb.lent_cores": count["dlb.lent_cores"],
        "dlb.drom_moved_cores": stats.get("drom_cores_moved", 0),
        "dlb.acquire_hit_frac": _ratio(count["dlb.acquire_hits"], acquires),
        "balance.lp_solves": lp["calls"],
        "balance.lp_s": lp["self_s"],
        "balance.lp_ms_per_solve": _ratio(lp["incl_s"] * 1e3, lp["calls"]),
        "mpisim.messages": stats.get("mpi_messages", 0),
        "mpisim.bytes": count["mpisim.bytes"],
        "mpisim.s": self_s("mpisim"),
        "graph.get_graph_s": setup["layers"]["graph"]["self_s"],
        "jobs.profiles": setup["counters"]["jobs.profile_misses"],
        "jobs.profile_s": setup["layers"]["jobs.profile"]["self_s"],
        "jobs.grant_change_frac": _ratio(outcome.get("reallocations", 0),
                                         calls("jobs.decide")),
        "other_s": traced_run_s - sum(v["self_s"] for v in layer.values()),
        "trace_overhead": _ratio(traced_run_s, untraced_run_s),
    }
    for name in ("nanos.scheduler", "nanos.dependencies", "nanos.directory",
                 "nanos.regions", "dlb.arbiter", "jobs.decide", "jobs.curve"):
        values[f"{name}_calls"] = calls(name)
        values[f"{name}_s"] = self_s(name)
    values["nanos.worker_s"] = self_s("nanos.worker")
    for short, name in (("offload", "policies.offload"),
                        ("lend", "policies.lend"),
                        ("realloc", "policies.realloc")):
        values[f"policies.{short}_calls"] = calls(name)
        values[f"policies.{short}_s"] = self_s(name)
    return {name: values[name] for name, _unit, _better in PER_LAYER}
