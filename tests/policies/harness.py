"""Golden-run harness for the default-policy parity guarantee.

The policy-kernel refactor (decision logic extracted from the scheduler,
LeWI arbiter and DROM policies into :mod:`repro.policies`) promises that
the *default* registered policies reproduce the pre-refactor behaviour
bit-identically: same makespans, same per-iteration times, same simulator
event counts. This module produces a canonical JSON-able snapshot of a
handful of seeded runs; ``tools/capture_policy_golden.py`` recorded it
once against the pre-refactor tree into ``golden_default.json``, and
``test_golden_parity.py`` re-runs it on every test session and demands
equality. Extends the approach of ``tests/obs/test_zero_overhead.py``
(which proves the same property for instrumentation).
"""

from __future__ import annotations

from typing import Any

from repro.apps.micropp.workload import MicroppSpec, make_micropp_app
from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
from repro.cluster import MARENOSTRUM4
from repro.experiments import Scale, fig05_policies, headline
from repro.experiments.base import run_workload
from repro.nanos import RuntimeConfig

#: Scale used for the golden runs — matches the CLI tests' fast scale.
TINY = Scale(name="tiny", cores_per_node=8, tasks_per_core=5, iterations=2,
             micropp_subdomains_per_core=3, local_period=0.02,
             global_period=0.2)


def _run_snapshot(result: Any) -> dict[str, Any]:
    """The comparable numbers of one :class:`RunResult`."""
    runtime = result.runtime
    return {
        "elapsed": result.elapsed,
        "iteration_maxima": [float(x) for x in result.iteration_maxima],
        "offloaded": result.offloaded_tasks,
        "kept_home": sum(rt.scheduler.tasks_kept_home
                         for rt in runtime.appranks),
        "sim_events_scheduled": runtime.sim._seq,
        "sim_events_fired": runtime.sim.events_fired,
        "lewi": runtime.lewi.stats(),
        "drom_changes": runtime.drom.total_changes,
        "drom_cores_moved": runtime.drom.total_cores_moved,
    }


def micropp_snapshot() -> dict[str, Any]:
    """The zero-overhead harness's headline MicroPP run (deg 2, global)."""
    machine = MARENOSTRUM4.scaled(8)
    spec = MicroppSpec(num_appranks=4, cores_per_apprank=8,
                       subdomains_per_core=4, iterations=2, seed=7)
    config = RuntimeConfig.offloading(2, "global",
                                      local_period=0.02, global_period=0.2)
    return _run_snapshot(run_workload(machine, 4, 1, config,
                                      lambda: make_micropp_app(spec)))


def synthetic_snapshot(validate: bool = False) -> dict[str, Any]:
    """Synthetic imbalance 2.0, degree 4 (exercises KEEP/QUEUE/steal).

    *validate* arms the :mod:`repro.validate` sanitizer; the snapshot
    must stay bit-identical either way (the sanitizer is strictly
    passive).
    """
    machine = MARENOSTRUM4.scaled(8)
    spec = SyntheticSpec(num_appranks=4, imbalance=2.0, cores_per_apprank=8,
                         tasks_per_core=10, iterations=3)
    config = TINY.tune(RuntimeConfig.offloading(4, "global"))
    if validate:
        config = config.with_(validate=True)
    return _run_snapshot(run_workload(machine, 4, 1, config,
                                      lambda: make_synthetic_app(spec)))


def fig05_snapshot() -> dict[str, Any]:
    """Figure 5 (local vs global) rows plus per-run simulator event counts."""
    table = fig05_policies.run(TINY)
    rows = [{k: row[k] for k in table.columns} for row in table.rows]
    events = {
        policy: {"scheduled": runtime.sim._seq,
                 "fired": runtime.sim.events_fired}
        for policy, runtime in table.runtimes.items()  # type: ignore[attr-defined]
    }
    return {"rows": rows, "sim_events": events}


def headline_snapshot() -> dict[str, Any]:
    """The headline claims table, measured strings verbatim."""
    table = headline.run(TINY)
    return {"rows": [{k: row[k] for k in table.columns}
                     for row in table.rows]}


def collect_golden() -> dict[str, Any]:
    """Every golden run, in a stable order."""
    return {
        "micropp": micropp_snapshot(),
        "synthetic": synthetic_snapshot(),
        "fig05": fig05_snapshot(),
        "headline": headline_snapshot(),
    }
