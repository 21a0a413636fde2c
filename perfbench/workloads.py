"""The four benchmark workloads: how each is set up, run and judged.

A workload's :func:`setup` does everything a CLI user pays before the
simulation starts (imports, spec or trace generation, the expander-graph
load, ``ClusterRuntime`` construction, and for ``jobs-*`` one
``profile_job`` per distinct ``JobSpec``) and returns a :class:`Prepared`
whose ``run`` is the one timed call: ``ClusterRuntime.run_app`` for the
single-app workloads, ``repro.jobs.run_trace`` for the jobs workloads.

The seed is the only input that varies: the synthetic seed, the MicroPP
seed or the trace ``seed=``. ``default_seed`` is the one the workload is
tuned on; ``heldout_seed`` is kept back so a later claim can be
rechecked on a seed nobody looked at while writing it.

This module imports nothing from ``repro`` at import time, so the child
process times those imports as part of set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["WORKLOADS", "Workload", "Prepared", "setup"]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "synthetic", "micropp" or "jobs"
    default_seed: int
    heldout_seed: int
    why: str
    nodes: int = 0         # single-app: nodes, one apprank per node
    policy: str = "global"
    jobs: int = 0          # jobs: trace length


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("synthetic-64n", "synthetic", 1234, 4321, nodes=64,
             why="Figure 8's 64-node cell: the paper's largest apprank "
                 "count; heavy on scheduler and DLB, one access per task, "
                 "synthetic generator fallback on every apprank"),
    Workload("micropp-32n", "micropp", 7, 11, nodes=32,
             why="headline MicroPP run: several accesses per task, so "
                 "dependencies, directory and regions dominate; never "
                 "calls the synthetic generator"),
    Workload("jobs-gavel", "jobs", 1, 2, policy="gavel", jobs=4000,
             why="4000-job poisson trace under gavel: the jobs arbiter and "
                 "throughput curves dominate; nanos runs only in set-up "
                 "profiling"),
    Workload("jobs-global", "jobs", 1, 2, policy="global", jobs=500,
             why="500-job poisson trace under global: LP solves dominate, "
                 "so balance is measured and a jobs change that helps "
                 "gavel but costs global shows"),
)}


@dataclass
class Prepared:
    """A workload ready to run: ``run()`` is the timed call."""

    run: Callable[[], Any]
    #: simulated outcome of ``run``'s result (JSON-serialisable, floats as
    #: ``repr`` strings so equality is bit-identity)
    outcome: Callable[[Any], dict]
    #: problems with the result that make the run a failure
    problems: Callable[[Any], list]


def setup(name: str, seed: int, check: bool = False) -> Prepared:
    """Build workload *name* at *seed*; *check* arms the sanitizer."""
    workload = WORKLOADS[name]
    if workload.kind == "jobs":
        return _setup_jobs(workload, seed, check)
    return _setup_app(workload, seed, check)


def _setup_app(workload: Workload, seed: int, check: bool) -> Prepared:
    from repro.cluster.machine import MARENOSTRUM4
    from repro.cluster.topology import ClusterSpec
    from repro.experiments.base import MEDIUM, SMALL
    from repro.nanos.config import RuntimeConfig
    from repro.nanos.runtime import ClusterRuntime

    nodes = workload.nodes
    if workload.kind == "synthetic":
        from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
        scale = SMALL
        machine = scale.machine(MARENOSTRUM4)
        app = make_synthetic_app(SyntheticSpec(
            num_appranks=nodes, imbalance=2.0,
            cores_per_apprank=machine.cores_per_node,
            tasks_per_core=scale.tasks_per_core,
            iterations=scale.iterations, seed=seed))
    else:
        from repro.apps.micropp.workload import MicroppSpec, make_micropp_app
        scale = MEDIUM
        machine = scale.machine(MARENOSTRUM4)
        app = make_micropp_app(MicroppSpec(
            num_appranks=nodes, cores_per_apprank=machine.cores_per_node,
            subdomains_per_core=scale.micropp_subdomains_per_core,
            iterations=scale.iterations, seed=seed))
    config = scale.tune(RuntimeConfig.offloading(4, workload.policy,
                                                 validate=check))
    runtime = ClusterRuntime(ClusterSpec.homogeneous(machine, nodes), nodes,
                             config)

    def outcome(results: list) -> dict:
        stats = runtime.stats()
        iterations = [max(r["iteration_times"][i] for r in results)
                      for i in range(len(results[0]["iteration_times"]))]
        return {"stats": _canonical(stats),
                "iteration_maxima": [repr(t) for t in iterations]}

    def problems(_results: list) -> list:
        stats = runtime.stats()
        if stats["executed"] != stats["tasks"]:
            return [f"{stats['tasks'] - stats['executed']} of "
                    f"{stats['tasks']} tasks left unexecuted"]
        return []

    return Prepared(run=lambda: runtime.run_app(app), outcome=outcome,
                    problems=problems)


def _setup_jobs(workload: Workload, seed: int, check: bool) -> Prepared:
    from repro.experiments.base import SMALL
    from repro.jobs import JobTrace, profile_job, run_trace

    trace = JobTrace.parse(f"poisson:seed={seed},rate=0.5,n={workload.jobs}")
    for spec in sorted({job.spec for job in trace},
                       key=lambda s: (s.kind, s.nodes, s.seed, s.imbalance)):
        profile_job(spec, SMALL)

    def outcome(result: Any) -> dict:
        return {"fingerprint": result.fingerprint(),
                "jobs": len(result.records),
                "makespan": repr(result.makespan),
                "mean_slowdown": repr(result.mean_slowdown),
                "utilization": repr(result.utilization),
                "reallocations": result.reallocations}

    def problems(result: Any) -> list:
        if len(result.records) != len(trace):
            return [f"{len(trace) - len(result.records)} of {len(trace)} "
                    "jobs unfinished"]
        return []

    return Prepared(
        run=lambda: run_trace(trace, policy=workload.policy, scale=SMALL,
                              check=check),
        outcome=outcome, problems=problems)


def _canonical(value: Any) -> Any:
    """*value* with every float as its ``repr`` (exact, JSON-safe)."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return repr(value)
    return value
