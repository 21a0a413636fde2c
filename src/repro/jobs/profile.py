"""Per-job runtime profiles: one real run, memoized, drives the fluid model.

Co-simulating several full :class:`~repro.nanos.runtime.ClusterRuntime`
instances on one clock is impractical (each runtime owns its simulator),
so the multi-job engine uses the standard two-level design: every
distinct :class:`~repro.jobs.trace.JobSpec` is executed **once** on the
real single-application stack at its natural allocation — the same
:func:`repro.experiments.base.run_workload` path every figure uses —
and the measured makespan becomes the job's work volume
(``makespan x natural cores`` core-seconds) for the fluid layer.

The profile run's configuration mirrors the campaign cells: one node is
the single-node-DLB reference (``RuntimeConfig.dlb_single_node``),
larger jobs offload at degree 2 under the ``global`` policy, and the
scale's policy periods apply. Profiles are cached in-process per
``(spec, scale)``, so a trace full of recurring job shapes profiles
each shape once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..cluster.machine import MARENOSTRUM4, MachineSpec
from ..experiments.base import Scale
from ..nanos.config import RuntimeConfig
from .trace import JobSpec

__all__ = ["JobProfile", "profile_job", "clear_profile_cache"]

#: In-process memo: (spec, scale name) -> JobProfile.
_CACHE: dict[tuple[JobSpec, str], "JobProfile"] = {}
#: In-process memo: (profile, total cores) -> throughput curve.
_CURVES: dict[tuple["JobProfile", int], tuple[float, ...]] = {}


@dataclass(frozen=True)
class JobProfile:
    """What one real run at natural allocation measured."""

    #: makespan at the natural allocation (the job's ideal turnaround)
    makespan: float
    #: natural core count (nodes x cores per node)
    cores: int
    nodes: int
    iterations: int
    tasks: int
    executed: int
    offloaded: int
    mpi_messages: int

    @property
    def core_seconds(self) -> float:
        """The job's total work volume for the fluid layer."""
        return self.makespan * self.cores

    def throughput_curve(self, total_cores: int) -> tuple[float, ...]:
        """Modelled throughput (iterations/s) at 1..total_cores cores.

        Linear up to the natural parallelism, flat beyond it — the
        fluid model's speedup assumption, handed to curve-driven
        reallocation policies (``gavel``). Built once per
        ``(profile, total_cores)``.
        """
        key = (self, total_cores)
        curve = _CURVES.get(key)
        if curve is None:
            per_core = self.iterations / self.core_seconds
            curve = _CURVES[key] = tuple(per_core * min(c, self.cores)
                                         for c in range(1, total_cores + 1))
        return curve


def profile_config(nodes: int, scale: Scale) -> RuntimeConfig:
    """The single-application config a job of *nodes* nodes profiles with."""
    if nodes == 1:
        config = RuntimeConfig.dlb_single_node()
    else:
        config = RuntimeConfig.offloading(min(2, nodes), "global")
    return scale.tune(config)


def _app_factory(spec: JobSpec, scale: Scale,
                 cores_per_node: int) -> Callable[[], Any]:
    if spec.kind == "synthetic":
        from ..apps.synthetic import SyntheticSpec, make_synthetic_app
        sspec = SyntheticSpec(num_appranks=spec.nodes,
                              imbalance=spec.imbalance,
                              cores_per_apprank=cores_per_node,
                              tasks_per_core=scale.tasks_per_core,
                              iterations=scale.iterations, seed=spec.seed)
        return lambda: make_synthetic_app(sspec)
    if spec.kind == "micropp":
        from ..apps.micropp.workload import MicroppSpec, make_micropp_app
        mspec = MicroppSpec(
            num_appranks=spec.nodes, cores_per_apprank=cores_per_node,
            subdomains_per_core=scale.micropp_subdomains_per_core,
            iterations=scale.iterations, seed=spec.seed)
        return lambda: make_micropp_app(mspec)
    from ..apps.nbody.workload import NBodySpec, make_nbody_app
    nspec = NBodySpec(num_appranks=spec.nodes,
                      cores_per_apprank=cores_per_node,
                      bodies_per_apprank=256 * cores_per_node,
                      timesteps=scale.iterations, seed=spec.seed)
    return lambda: make_nbody_app(nspec)


def profile_job(spec: JobSpec, scale: Scale,
                machine: MachineSpec = MARENOSTRUM4) -> JobProfile:
    """Measure (or recall) one job shape at its natural allocation."""
    key = (spec, scale.name)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    from ..experiments.base import run_workload
    scaled = scale.machine(machine)
    config = profile_config(spec.nodes, scale)
    result = run_workload(scaled, spec.nodes, 1, config,
                          _app_factory(spec, scale, scaled.cores_per_node))
    stats = result.runtime.stats()
    profile = JobProfile(
        makespan=result.elapsed,
        cores=spec.nodes * scaled.cores_per_node,
        nodes=spec.nodes,
        iterations=len(result.iteration_maxima),
        tasks=int(stats["tasks"]),
        executed=int(stats["executed"]),
        offloaded=result.offloaded_tasks,
        mpi_messages=int(stats["mpi_messages"]),
    )
    _CACHE[key] = profile
    return profile


def clear_profile_cache() -> None:
    """Drop all memoized profiles and their throughput curves (tests and
    long-lived processes)."""
    _CACHE.clear()
    _CURVES.clear()
