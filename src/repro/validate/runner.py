"""``python -m repro check <target>`` — validated conformance runs.

Each check target re-runs a known workload with the invariant sanitizer
armed (``config.validate``) and, where a metamorphic relation applies,
executes the paired-run oracles from :mod:`repro.validate.metamorphic`.
A passing check returns a :class:`CheckReport` of what was verified; any
violation raises :class:`~repro.errors.ValidationError` out of the run.

Targets (:data:`CHECK_TARGETS`):

* ``headline`` — the paper's headline table (MicroPP, n-body with a slow
  node, synthetic sweep: 7 runs) under full invariant checking;
* ``synthetic`` — the §6.2 synthetic benchmark, plus the faster-network
  metamorphic relation (two validated runs);
* ``nbody`` — the distributed Barnes–Hut on a standalone MPI world, plus
  the slow-node physics-invariance relation;
* ``resilience`` — the fault-injection sweep (crashes, message faults,
  solver failures) with conservation checks relaxed to fault semantics;
  honours ``--faults`` for a custom plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ExperimentError
from ..experiments.base import SMALL, Scale, force_config
from .sanitizer import Sanitizer

__all__ = ["CHECK_TARGETS", "CheckReport", "run_check"]

#: experiment targets ``python -m repro check`` accepts
CHECK_TARGETS = ("headline", "synthetic", "nbody", "resilience")


@dataclass
class CheckReport:
    """What one check target verified (all runs passed)."""

    target: str
    scale: str
    runs: int
    #: summed sanitizer counters across all validated runs
    checked: dict[str, int] = field(default_factory=dict)
    #: metamorphic relations that held, as human-readable lines
    metamorphic: list[str] = field(default_factory=list)

    def format(self) -> str:
        """Human-readable pass report (what the CLI prints)."""
        lines = [f"check {self.target} (scale={self.scale}): "
                 f"OK — {self.runs} validated run(s)"]
        lines += [f"  {name:<16} {count:>12,}"
                  for name, count in self.checked.items()]
        lines += [f"  metamorphic: {note}" for note in self.metamorphic]
        return "\n".join(lines)


def _merge(sanitizers: list[Sanitizer]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for sanitizer in sanitizers:
        for name, count in sanitizer.summary().items():
            totals[name] = totals.get(name, 0) + count
    return totals


def run_check(target: str, scale: Scale = SMALL,
              faults: Optional[str] = None,
              fault_seed: int = 0) -> CheckReport:
    """Run one check target; raises ``ValidationError`` on any violation."""
    if target not in CHECK_TARGETS:
        raise ExperimentError(
            f"unknown check target {target!r}; one of "
            f"{', '.join(CHECK_TARGETS)}")
    if faults is not None and target != "resilience":
        raise ExperimentError("a custom fault plan needs the 'resilience' "
                              "check target")
    checker = {"headline": _check_headline, "synthetic": _check_synthetic,
               "nbody": _check_nbody, "resilience": _check_resilience}[target]
    return checker(scale, faults, fault_seed)


def _check_headline(scale: Scale, faults: Optional[str],
                    fault_seed: int) -> CheckReport:
    from ..experiments import headline
    with force_config(validate=True) as runtimes:
        headline.run(scale=scale, seed=7)
    sanitizers = [runtime.validator for runtime in runtimes]
    return CheckReport(target="headline", scale=scale.name,
                       runs=len(sanitizers), checked=_merge(sanitizers))


def _check_synthetic(scale: Scale, faults: Optional[str],
                     fault_seed: int) -> CheckReport:
    from ..apps.synthetic import SyntheticSpec, make_synthetic_app
    from ..cluster.machine import MARENOSTRUM4
    from ..experiments.base import run_workload
    from ..nanos.config import RuntimeConfig
    from .metamorphic import assert_network_speedup_helps

    machine = scale.machine(MARENOSTRUM4)
    config = scale.tune(RuntimeConfig.offloading(4, "global"))
    spec = SyntheticSpec(num_appranks=8, imbalance=1.5,
                         cores_per_apprank=machine.cores_per_node,
                         tasks_per_core=scale.tasks_per_core,
                         iterations=scale.iterations)

    with force_config(validate=True) as runtimes:
        base, fast = assert_network_speedup_helps(
            lambda m: run_workload(m, 8, 1, config,
                                   lambda: make_synthetic_app(spec)).elapsed,
            machine, factor=4.0)
    sanitizers = [runtime.validator for runtime in runtimes]
    report = CheckReport(target="synthetic", scale=scale.name,
                         runs=len(sanitizers), checked=_merge(sanitizers))
    verdict = "not increased" if fast <= base else "within anomaly slack"
    report.metamorphic.append(
        f"4x faster network: makespan {base:.4f}s -> {fast:.4f}s "
        f"({verdict})")
    return report


def _check_nbody(scale: Scale, faults: Optional[str],
                 fault_seed: int) -> CheckReport:
    from ..apps.nbody import (DistributedNBodyConfig, plummer_sphere,
                              run_distributed_nbody)
    from ..cluster import Cluster, ClusterSpec, GENERIC_SMALL
    from ..mpisim import MpiWorld
    from ..sim import Simulator
    from .metamorphic import assert_slow_node_physics_invariant

    bodies = plummer_sphere(96, seed=11)
    config = DistributedNBodyConfig(timesteps=max(2, scale.iterations - 1))
    sanitizers: list[Sanitizer] = []

    def run_fn(slow: Optional[dict[int, float]]) -> list[dict]:
        sim = Simulator()
        spec = ClusterSpec.homogeneous(GENERIC_SMALL, 2)
        if slow:
            spec = spec.with_slow_nodes(slow)
        world = MpiWorld(sim, Cluster(spec), [r % 2 for r in range(4)])
        sanitizer = Sanitizer(sim)
        sim.validator = sanitizer
        world.validator = sanitizer
        results = run_distributed_nbody(world, bodies, config,
                                        node_speeds=slow)
        sanitizer.finish()
        sanitizers.append(sanitizer)
        return results

    ranks = assert_slow_node_physics_invariant(run_fn, {0: 0.5})
    report = CheckReport(target="nbody", scale=scale.name,
                         runs=len(sanitizers), checked=_merge(sanitizers))
    report.metamorphic.append(
        f"slow node 0 at 0.5x: positions/velocities bit-identical "
        f"across {ranks} ranks")
    return report


def _check_resilience(scale: Scale, faults: Optional[str],
                      fault_seed: int) -> CheckReport:
    from ..experiments import resilience
    with force_config(validate=True) as runtimes:
        resilience.run(scale=scale, faults=faults, fault_seed=fault_seed)
    sanitizers = [runtime.validator for runtime in runtimes]
    report = CheckReport(target="resilience", scale=scale.name,
                         runs=len(sanitizers), checked=_merge(sanitizers))
    if faults is not None:
        report.metamorphic.append(f"custom fault plan: {faults}")
    return report
