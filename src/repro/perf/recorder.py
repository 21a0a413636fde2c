"""One bench repeat's wall-clock measurement, taken from outside the run.

The simulator carries no wall-clock hooks. The bench harness
(:mod:`repro.perf.bench`) times each repeat around the public calls and
stores the result in a :class:`PerfRecorder`:

* **phases** — ``setup`` (``ClusterRuntime`` construction),
  ``event_loop`` (``run_app``) and ``teardown`` (reading the simulated
  outcome);
* **events** — ``Simulator.events_fired`` across ``run_app``;
* **subsystem buckets** — filled only for the one profiled repeat:
  :func:`profile_buckets` sums :mod:`cProfile`'s self time per function
  into a bucket chosen by the function's module (:data:`SUBSYSTEM_MODULES`).
  :meth:`PerfRecorder.attribution` charges the rest of the loop to
  ``other``, so the shares sum to 1.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Optional

__all__ = ["PerfRecorder", "PERF_SUBSYSTEMS", "PERF_PHASES",
           "SUBSYSTEM_MODULES", "profile_buckets", "peak_rss_bytes"]

#: Module prefix -> attribution bucket; a function's self time goes to the
#: bucket of the first prefix its module matches, and to ``other`` if none.
SUBSYSTEM_MODULES = (
    ("repro.sim", "engine"),                    # event queue + dispatch
    ("repro.nanos.scheduler", "nanos.scheduler"),
    ("repro.dlb", "dlb"),                       # LeWI/DROM arbitration
    ("repro.mpisim", "mpisim"),                 # message delivery
    ("repro.policies", "policies"),             # pure strategies ...
    ("repro.balance", "policies"),              # ... and their drivers
    ("repro.validate", "validate"),             # sanitizer checks
)

#: The attribution vocabulary. ``other`` is not listed: it is the
#: computed remainder of the loop.
PERF_SUBSYSTEMS = tuple(dict.fromkeys(b for _, b in SUBSYSTEM_MODULES))

#: Phase names in reporting order.
PERF_PHASES = ("setup", "event_loop", "teardown")

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent.parent


def _bucket_of(filename: str) -> Optional[str]:
    """The bucket of the repro module defined in *filename*, if any."""
    try:
        rel = Path(filename).resolve().relative_to(_PACKAGE_ROOT)
    except ValueError:
        return None     # builtins ("~"), stdlib, numpy, ...
    module = ".".join(rel.with_suffix("").parts)
    for prefix, bucket in SUBSYSTEM_MODULES:
        if module == prefix or module.startswith(prefix + "."):
            return bucket
    return None


def profile_buckets(stats: dict[tuple, tuple]
                    ) -> tuple[dict[str, float], dict[str, int]]:
    """Self seconds and call counts per bucket from ``pstats.Stats.stats``.

    Functions outside every bucket are left out; they are what
    :meth:`PerfRecorder.attribution` reports as ``other``.
    """
    buckets = dict.fromkeys(PERF_SUBSYSTEMS, 0.0)
    calls = dict.fromkeys(PERF_SUBSYSTEMS, 0)
    cache: dict[str, Optional[str]] = {}
    for (filename, _line, _name), (_cc, ncalls, tottime, _ct, _callers) \
            in stats.items():
        if filename not in cache:
            cache[filename] = _bucket_of(filename)
        bucket = cache[filename]
        if bucket is not None:
            buckets[bucket] += tottime
            calls[bucket] += ncalls
    return buckets, calls


class PerfRecorder:
    """Phases, events and (when profiled) subsystem buckets of one run."""

    __slots__ = ("phases", "buckets", "calls", "events_processed")

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}
        self.buckets: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.events_processed = 0

    def add_phase(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* of wall clock into phase *name*."""
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def loop_seconds(self) -> float:
        """Wall-clock of the event-loop phase (0.0 before the run)."""
        return self.phases.get("event_loop", 0.0)

    def events_per_sec(self) -> float:
        """Event throughput over the loop phase (0.0 before the run)."""
        loop = self.loop_seconds()
        return self.events_processed / loop if loop > 0 else 0.0

    def attribution(self) -> dict[str, dict[str, float]]:
        """Per-bucket self seconds, shares of the loop and call counts.

        ``other`` is the loop time no bucket holds (unbucketed modules,
        builtins, profiler bookkeeping), so the shares sum to 1.
        """
        loop = self.loop_seconds()
        out: dict[str, dict[str, float]] = {}
        accounted = 0.0
        for name in sorted(self.buckets):
            seconds = self.buckets[name]
            accounted += seconds
            out[name] = {
                "self_s": seconds,
                "share": seconds / loop if loop > 0 else 0.0,
                "calls": self.calls.get(name, 0),
            }
        other = max(0.0, loop - accounted)
        out["other"] = {"self_s": other,
                        "share": other / loop if loop > 0 else 0.0,
                        "calls": 0}
        return out

    def report(self) -> dict[str, Any]:
        """The full JSON-able measurement of one run."""
        return {
            "phases_s": {name: self.phases.get(name, 0.0)
                         for name in PERF_PHASES},
            "total_s": sum(self.phases.values()),
            "events_processed": self.events_processed,
            "events_per_sec": self.events_per_sec(),
            "subsystems": self.attribution(),
        }


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, or None off-POSIX.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalise to
    bytes.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS
        return int(peak)
    return int(peak) * 1024
