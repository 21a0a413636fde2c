"""The wall-clock measurement stays outside the simulator.

Mirrors ``tests/obs/test_zero_overhead.py`` for the wall-clock side:

* the simulator carries no wall-clock hooks or knob: no
  ``RuntimeConfig.perf``, no recorder on the runtime or the engine;
* the bench's profiled run cannot perturb the simulation — the same
  seeded workload runs bit-identical under :mod:`cProfile` or without;
* a plain run never even imports :mod:`repro.perf` — checked in a
  subprocess because this test session itself imports it freely.
"""

import cProfile
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from tests.policies.harness import TINY, synthetic_snapshot

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


class TestBitIdentical:
    def test_perf_does_not_perturb_the_run(self):
        off = synthetic_snapshot()
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            on = synthetic_snapshot()
        finally:
            profiler.disable()
        assert json.dumps(on, sort_keys=True) == \
            json.dumps(off, sort_keys=True)

    def test_perf_run_actually_recorded(self):
        from repro.perf.bench import run_bench

        result = run_bench("synthetic", scale=TINY, repeat=1)
        rec = result.recorders[0]
        assert rec.loop_seconds() > 0
        assert rec.events_processed == result.simulated["events"]
        assert rec.events_per_sec() > 0
        for phase in ("setup", "event_loop", "teardown"):
            assert rec.phases.get(phase, 0.0) > 0.0, phase
        # every bucketed subsystem but the (unarmed) sanitizer saw calls
        # under the profiler in an offloading run
        calls = result.profiled.calls
        for name in ("engine", "nanos.scheduler", "dlb", "mpisim",
                     "policies"):
            assert calls.get(name, 0) > 0, name
        assert calls["validate"] == 0

    def test_disabled_run_has_no_recorder(self):
        from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
        from repro.cluster import MARENOSTRUM4
        from repro.experiments.base import run_workload
        from repro.nanos import RuntimeConfig

        assert "perf" not in {f.name for f in
                              dataclasses.fields(RuntimeConfig)}
        with pytest.raises(TypeError):
            RuntimeConfig(perf=True)
        machine = MARENOSTRUM4.scaled(4)
        spec = SyntheticSpec(num_appranks=2, imbalance=1.5,
                             cores_per_apprank=4, tasks_per_core=4,
                             iterations=2)
        config = RuntimeConfig.offloading(2, "global", local_period=0.02,
                                          global_period=0.2)
        result = run_workload(machine, 2, 1, config,
                              lambda: make_synthetic_app(spec))
        assert not hasattr(result.runtime, "perf")
        assert not hasattr(result.runtime.sim, "perf")
        assert not any(hasattr(a, "perf")
                       for a in result.runtime.arbiters.values())


class TestNeverImported:
    def _run(self, code: str) -> None:
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": SRC_DIR},
                       timeout=300)

    def test_disabled_run_never_imports_perf(self):
        self._run(
            "import sys\n"
            "from repro.apps.synthetic import SyntheticSpec, "
            "make_synthetic_app\n"
            "from repro.cluster import MARENOSTRUM4, ClusterSpec\n"
            "from repro.nanos import ClusterRuntime, RuntimeConfig\n"
            "machine = MARENOSTRUM4.scaled(4)\n"
            "spec = SyntheticSpec(num_appranks=2, imbalance=1.5,\n"
            "                     cores_per_apprank=4, tasks_per_core=4,\n"
            "                     iterations=2)\n"
            "runtime = ClusterRuntime(\n"
            "    ClusterSpec.homogeneous(machine, 2), 2,\n"
            "    RuntimeConfig.offloading(2, 'global', global_period=0.2))\n"
            "runtime.run_app(make_synthetic_app(spec))\n"
            "assert runtime.elapsed > 0\n"
            "assert 'repro.perf' not in sys.modules, 'perf imported'\n")

    def test_importing_experiments_does_not_import_perf(self):
        self._run(
            "import sys\n"
            "import repro.experiments\n"
            "import repro.cli\n"
            "assert 'repro.perf' not in sys.modules, 'perf imported'\n")
