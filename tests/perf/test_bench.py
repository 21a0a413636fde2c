"""Bench harness tests: schema shape, determinism, attribution budget.

Runs the cheap ``synthetic`` target at the golden tiny scale — enough
to exercise the full measure -> aggregate -> write path without making
the test session wall-clock heavy.
"""

import json

import pytest

from repro.errors import ExperimentError
from repro.perf.bench import (BENCH_SCHEMA, BENCH_TARGETS, bench_path,
                              run_bench, write_record)
from repro.perf.recorder import PERF_PHASES, PERF_SUBSYSTEMS
from tests.policies.harness import TINY


@pytest.fixture(scope="module")
def result():
    """One shared tiny-scale bench measurement (two repeats)."""
    return run_bench("synthetic", scale=TINY, repeat=2)


class TestRunBench:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ExperimentError, match="repeat"):
            run_bench("synthetic", scale=TINY, repeat=0)
        with pytest.raises(ExperimentError, match="unknown bench target"):
            run_bench("nope", scale=TINY)

    def test_progress_callback_sees_every_repeat(self):
        seen = []
        run_bench("synthetic", scale=TINY, repeat=1, progress=seen.append)
        assert seen == ["bench synthetic: run 1/1",
                        "bench synthetic: profiled run"]

    def test_simulated_outcome_is_deterministic(self, result):
        # run_bench itself raises on drift between its repeats; check the
        # fingerprint is also stable across *separate* bench invocations.
        again = run_bench("synthetic", scale=TINY, repeat=1)
        assert again.simulated == result.simulated

    def test_recorders_are_positive(self, result):
        assert len(result.recorders) == 2
        for rec in result.recorders:
            assert rec.loop_seconds() > 0
            assert rec.events_processed > 0


class TestRecordSchema:
    def test_identity_fields(self, result):
        rec = result.record()
        assert rec["schema"] == BENCH_SCHEMA
        assert rec["target"] == "synthetic"
        assert rec["target"] in BENCH_TARGETS
        assert rec["scale"] == "tiny"
        assert rec["repeat"] == 2

    def test_environment_stamp(self, result):
        env = result.record()["environment"]
        for key in ("python", "implementation", "platform", "machine",
                    "cpu_count", "host", "repro_version"):
            assert key in env, key

    def test_wall_clock_section(self, result):
        wall = result.record()["wall_clock"]
        for spread in ("total_s", "event_loop_s", "events_per_sec"):
            assert set(wall[spread]) == {"mean", "min", "max"}
            assert wall[spread]["min"] <= wall[spread]["mean"] \
                <= wall[spread]["max"]
            assert wall[spread]["mean"] > 0
        assert set(wall["phases_s"]) == set(PERF_PHASES)
        assert wall["events_processed"] > 0

    def test_attribution_sums_to_loop_within_5_percent(self, result):
        wall = result.record()["wall_clock"]
        shares = sum(e["share"] for e in wall["subsystems"].values())
        assert shares == pytest.approx(1.0, abs=0.05)
        accounted = sum(e["self_s"] for e in wall["subsystems"].values())
        loop = wall["profiled_loop_s"]
        assert accounted == pytest.approx(loop, rel=0.05)
        # "other" is time the profiler saw outside the buckets, not time
        # it missed: its self times cover the profiled loop too
        seen = sum(entry[2] for entry in result.profiler.stats.values())
        assert seen == pytest.approx(loop, rel=0.05)

    def test_subsystems_are_the_known_vocabulary(self, result):
        names = set(result.record()["wall_clock"]["subsystems"])
        assert names == set(PERF_SUBSYSTEMS) | {"other"}

    def test_format_is_human_readable(self, result):
        text = result.format()
        assert "events/sec" in text
        assert "subsystem attribution" in text
        assert "nanos.scheduler" in text


class TestWriteRecord:
    def test_round_trip(self, result, tmp_path):
        path = write_record(result, tmp_path)
        assert path == bench_path("synthetic", tmp_path)
        assert path.name == "BENCH_synthetic.json"
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == result.record()

    def test_stable_fields_are_deterministic(self, result, tmp_path):
        """Everything except the wall clock re-serialises identically."""
        write_record(result, tmp_path)
        loaded = json.loads(bench_path("synthetic", tmp_path).read_text())
        fresh = run_bench("synthetic", scale=TINY, repeat=2).record()
        for key in ("schema", "target", "scale", "repeat", "simulated"):
            assert loaded[key] == fresh[key], key
        # call counts are part of the deterministic surface too
        old_calls = {n: e["calls"]
                     for n, e in loaded["wall_clock"]["subsystems"].items()}
        new_calls = {n: e["calls"]
                     for n, e in fresh["wall_clock"]["subsystems"].items()}
        assert old_calls == new_calls


class TestWriteProfile:
    def test_exports_the_profiled_run(self, result, tmp_path):
        import pstats

        from repro.perf.bench import write_profile
        from repro.perf.recorder import profile_buckets

        pstats_path, folded_path = write_profile(result, tmp_path)
        assert pstats_path.name == "BENCH_synthetic.pstats"
        assert folded_path.read_text(encoding="utf-8").strip()
        # the dump is the very run the attribution table came from
        buckets, calls = profile_buckets(pstats.Stats(str(pstats_path)).stats)
        assert buckets == result.profiled.buckets
        assert calls == result.profiled.calls

    def test_cli_profile_flag(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["bench", "synthetic", "--scale", "tiny", "--repeat", "1",
                     "--bench-dir", str(tmp_path), "--profile"])
        assert code == 0
        for suffix in ("json", "pstats", "folded"):
            assert (tmp_path / f"BENCH_synthetic.{suffix}").is_file()
        record = json.loads((tmp_path / "BENCH_synthetic.json").read_text())
        assert record["schema"] == "repro-bench/2"
        assert "subsystem attribution" in capsys.readouterr().out
