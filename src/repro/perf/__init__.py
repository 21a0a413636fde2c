"""Wall-clock performance measurement of the simulator itself.

:mod:`repro.obs` makes the *simulated* world observable; this package
measures the **simulator** on the host clock, so the perf trajectory of
the codebase can be tracked across changes against committed baselines.
Nothing in the simulator carries wall-clock hooks: every number here is
taken from outside the run.

Three parts:

* :class:`PerfRecorder` — one run's measurement: phase timers (setup /
  event loop / teardown) read around the public calls, the event count,
  and per-subsystem buckets filled from one :mod:`cProfile` pass by
  module (:data:`~repro.perf.recorder.SUBSYSTEM_MODULES`).
* :mod:`repro.perf.bench` — the ``python -m repro bench`` harness: runs
  pinned workloads, measures events/sec, per-phase wall-clock, peak RSS
  and per-subsystem shares, and writes schema-versioned, environment-
  stamped ``BENCH_<target>.json`` files that accumulate across changes.
* :mod:`repro.perf.compare` — the noise-aware regression comparator
  behind ``tools/compare_bench.py``: diffs a fresh run against a
  committed baseline with improvement / regression / within-noise
  verdicts.

A plain simulation never imports this package.
"""

from .recorder import PERF_SUBSYSTEMS, PerfRecorder

__all__ = ["PerfRecorder", "PERF_SUBSYSTEMS"]
