"""Unit tests for :mod:`repro.perf.recorder`.

The accounting contract under test: profiler self time lands in the
bucket of the function's module, the computed ``other`` remainder makes
attribution shares sum to exactly 1, and the report shape matches what
the bench schema embeds.
"""

import cProfile
from pathlib import Path

import pytest

import repro.sim.engine
from repro.perf import PERF_SUBSYSTEMS, PerfRecorder
from repro.perf.recorder import PERF_PHASES, peak_rss_bytes, profile_buckets


class TestProfileBuckets:
    def test_self_time_lands_in_the_module_bucket(self):
        engine = str(Path(repro.sim.engine.__file__))
        stats = {
            (engine, 1, "step"): (3, 3, 0.25, 0.5, {}),
            ("~", 0, "<built-in method len>"): (9, 9, 0.5, 0.5, {}),
            ("/elsewhere/numpy/core.py", 7, "sum"): (1, 1, 0.125, 0.1, {}),
        }
        buckets, calls = profile_buckets(stats)
        assert set(buckets) == set(PERF_SUBSYSTEMS)
        assert buckets["engine"] == 0.25
        assert calls["engine"] == 3
        # builtins and foreign modules are left for "other"
        assert sum(buckets.values()) == 0.25

    def test_balance_drivers_count_as_policies(self):
        from repro.balance import local_policy
        stats = {(local_policy.__file__, 1, "tick"): (1, 2, 0.5, 0.5, {})}
        buckets, calls = profile_buckets(stats)
        assert buckets["policies"] == 0.5
        assert calls["policies"] == 2

    def test_real_profile_is_bucketed(self):
        from repro.sim import Simulator
        sim = Simulator()
        for i in range(50):
            sim.schedule(float(i), lambda: None)
        profiler = cProfile.Profile()
        profiler.enable()
        sim.run()
        profiler.disable()
        profiler.create_stats()
        buckets, calls = profile_buckets(profiler.stats)
        assert calls["engine"] > 50   # run + 50 pops
        assert calls["dlb"] == 0


class TestPhases:
    def test_phases_accumulate(self):
        rec = PerfRecorder()
        rec.add_phase("setup", 0.5)
        rec.add_phase("setup", 0.25)
        rec.add_phase("event_loop", 2.0)
        assert rec.phases["setup"] == pytest.approx(0.75)
        assert rec.loop_seconds() == pytest.approx(2.0)

    def test_events_per_sec(self):
        rec = PerfRecorder()
        assert rec.events_per_sec() == 0.0  # before the run
        rec.add_phase("event_loop", 2.0)
        rec.events_processed = 1000
        assert rec.events_per_sec() == pytest.approx(500.0)


class TestAttribution:
    def test_shares_sum_to_one_via_other(self):
        rec = PerfRecorder()
        rec.add_phase("event_loop", 1.0)
        rec.buckets = {"engine": 0.3, "policies": 0.2}
        rec.calls = {"engine": 10, "policies": 5}
        out = rec.attribution()
        assert out["other"]["self_s"] == pytest.approx(0.5)
        assert sum(e["share"] for e in out.values()) == pytest.approx(1.0)

    def test_other_never_negative(self):
        rec = PerfRecorder()
        rec.add_phase("event_loop", 0.1)
        rec.buckets = {"engine": 0.2}  # clock-grain overshoot
        assert rec.attribution()["other"]["self_s"] == 0.0

    def test_report_shape(self):
        rec = PerfRecorder()
        rec.add_phase("setup", 0.1)
        rec.add_phase("event_loop", 1.0)
        rec.add_phase("teardown", 0.05)
        rec.events_processed = 42
        report = rec.report()
        assert set(report) == {"phases_s", "total_s", "events_processed",
                               "events_per_sec", "subsystems"}
        assert set(report["phases_s"]) == set(PERF_PHASES)
        assert report["total_s"] == pytest.approx(1.15)
        assert report["events_processed"] == 42
        assert "other" in report["subsystems"]


class TestModuleLevel:
    def test_subsystem_vocabulary(self):
        assert PERF_SUBSYSTEMS == ("engine", "nanos.scheduler", "dlb",
                                   "mpisim", "policies", "validate")
        assert "other" not in PERF_SUBSYSTEMS  # computed, not a module

    def test_peak_rss_positive_on_posix(self):
        peak = peak_rss_bytes()
        if peak is not None:
            assert peak > 2**20  # a Python process exceeds 1 MiB
