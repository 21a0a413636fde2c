"""Self-test of the benchmark's per-layer attribution.

    python3 -m pytest perfbench/tests        # about 15 s

On micropp-32n (the workload that crosses the most layers) the traced
run is profiled with cProfile at the same time, and:

* each layer's inclusive time (the sum over its wrapped functions of
  their outermost spans) matches cProfile's cumulative time for the same
  functions within ``TOLERANCE``, for every layer holding at least
  ``MIN_SHARE`` of the run; smaller layers are dominated by timer grain.
  A span also covers cProfile's own call and return hooks for the
  wrapped function, which cProfile leaves out of that function's time;
  that per-call cost is measured on a wrapped no-op and taken off first;
* the layers' self times sum to the time spent inside spans, and that
  plus ``other_s`` is the traced ``run_s`` with ``other_s >= 0``;
* the traced run's simulated outcome equals the untraced run's.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from layers import PER_LAYER  # noqa: E402
from tracer import Layer, Tracer  # noqa: E402
from workloads import WORKLOADS, setup  # noqa: E402

#: relative agreement required between tracer and cProfile per layer
TOLERANCE = 0.10
#: layers below this share of the traced run are not compared
MIN_SHARE = 0.03
WORKLOAD, SEED = "micropp-32n", 7


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    graphs = tmp_path_factory.mktemp("graphs")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_GRAPH_CACHE", str(graphs))
    try:
        plain = setup(WORKLOAD, SEED)
        untraced = plain.outcome(plain.run())
        tracer = Tracer().install()
        try:
            prepared = setup(WORKLOAD, SEED)
            tracer.reset()
            profiler = cProfile.Profile()
            t0 = perf_counter()
            profiler.enable()
            result = prepared.run()
            profiler.disable()
            run_s = perf_counter() - t0
            traced = prepared.outcome(result)
            snapshot = tracer.snapshot()
            functions = list(tracer.functions)
        finally:
            tracer.uninstall()
    finally:
        mp.undo()
    return {"untraced": untraced, "traced": traced, "run_s": run_s,
            "snapshot": snapshot, "functions": functions,
            "profile": pstats.Stats(profiler).stats}


def _cumulative(profile: dict, code) -> float:
    entry = profile.get((code.co_filename, code.co_firstlineno, code.co_name))
    return entry[3] if entry else 0.0


def _hook_cost(calls: int = 50_000, rounds: int = 5) -> float:
    """Seconds per call a span adds over cProfile's cumulative time
    (median of *rounds*, as the host's speed drifts)."""
    costs = []
    for _ in range(rounds):
        tracer = Tracer()
        noop = tracer._wrapper(lambda _self, _arg: None,
                               Layer("noop", __name__, ()), "noop")
        profiler = cProfile.Profile()
        profiler.enable()
        for i in range(calls):
            noop(tracer, i)
        profiler.disable()
        st = tracer.functions[0]
        profile = pstats.Stats(profiler).stats
        costs.append((st.incl_s - _cumulative(profile, st.code)) / calls)
    return statistics.median(costs)


def test_inclusive_time_matches_cprofile(traced_run):
    profile = traced_run["profile"]
    hook = _hook_cost()
    tracer_s: dict[str, float] = {}
    cprofile_s: dict[str, float] = {}
    for st in traced_run["functions"]:
        tracer_s[st.layer] = (tracer_s.get(st.layer, 0.0) + st.incl_s
                              - hook * st.outer)
        cprofile_s[st.layer] = (cprofile_s.get(st.layer, 0.0)
                                + _cumulative(profile, st.code))
    compared = [layer for layer, seconds in tracer_s.items()
                if seconds >= MIN_SHARE * traced_run["run_s"]]
    assert len(compared) >= 5, compared
    for layer in compared:
        assert tracer_s[layer] == pytest.approx(cprofile_s[layer],
                                                rel=TOLERANCE), layer


def test_self_times_and_other_sum_to_run(traced_run):
    snapshot, run_s = traced_run["snapshot"], traced_run["run_s"]
    self_sum = sum(v["self_s"] for v in snapshot["layers"].values())
    assert all(v["self_s"] >= 0 for v in snapshot["layers"].values())
    assert self_sum == pytest.approx(snapshot["spanned_s"], rel=1e-9)
    other_s = run_s - self_sum
    assert other_s >= 0
    assert self_sum + other_s == pytest.approx(run_s)


def test_traced_outcome_equals_untraced(traced_run):
    assert traced_run["traced"] == traced_run["untraced"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "run_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOAD,
         "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
