"""The repository benchmark: host time, set-up time and memory per workload.

    python3 perfbench/run.py --workload synthetic-64n --seed 1234 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # one row per workload

A single closed-loop client runs one workload run at a time, each in a
fresh single-threaded interpreter (``child.py``), so imports, graph
loads and job profiling cost what a CLI user pays. A set of runs is:

1. one sanitizer-armed twin, untimed; it also compiles the bytecode and
   warms the benchmark's own graph cache before anything is timed;
2. ``--trace 0``: plain runs until ``--seconds`` have passed (at least
   three), reporting the medians of ``run_s`` (the timed call),
   ``setup_s`` (interpreter launch to that call) and ``peak_rss_mb``;
   ``--trace 1``: one traced run plus plain runs, reporting the
   per-layer metrics of :mod:`layers`.

Every run's simulated outcome must equal the set's; a run that raises,
leaves work undone, disagrees, or fails its sanitizer counts as failed.
The set's outcome is also compared with ``reference.json`` (default and
held-out seeds) and reported as changed or unchanged, never as an error.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from layers import PER_LAYER, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench-cache"
REFERENCE = HERE / "reference.json"

#: plain runs per set even when they outlast --seconds
MIN_RUNS = 3
#: a set must end within this many seconds, children included
BUDGET_S = 170.0
#: thread pools numpy/scipy may start; pinned to one, as on a busy node
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (e.g. no source tree)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_GRAPH_CACHE"] = str(CACHE / "graphs")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def environment() -> dict:
    """Where these numbers came from, stamped on every result."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None

    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def spawn(name: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one child to completion; returns its sample."""
    sample = {"mode": mode, "ok": False, "error": None, "outcome": None}
    launched = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), name, str(seed), mode],
            env=child_env(), capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - launched), check=False)
    except subprocess.TimeoutExpired:
        sample["error"] = "timed out"
        return sample
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        sample["error"] = f"exit {done.returncode}: {tail[0]}"
        return sample
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        sample["error"] = f"unreadable report: {lines[-1][:80]}"
        return sample
    sample.update(report=report, outcome=report["outcome"],
                  setup_s=report["t_call"] - launched,
                  run_s=report["run_s"], peak_rss_mb=report["rss_kb"] / 1024)
    if report["problems"]:
        sample["error"] = "; ".join(report["problems"])
    else:
        sample["ok"] = True
    return sample


def judge(samples: list[dict]) -> dict:
    """Fail every run whose outcome differs from the set's majority."""
    keys = [json.dumps(s["outcome"], sort_keys=True) for s in samples
            if s["outcome"] is not None]
    if not keys:
        return {}
    majority = max(set(keys), key=keys.count)
    for sample in samples:
        if (sample["outcome"] is not None and sample["ok"]
                and json.dumps(sample["outcome"], sort_keys=True) != majority):
            sample["ok"] = False
            sample["error"] = "simulated outcome differs from the set's"
    return json.loads(majority)


def run_set(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One set of runs of workload *name* (see the module docstring)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no source tree at {SRC}")
    deadline = time.monotonic() + BUDGET_S
    (CACHE / "graphs").mkdir(parents=True, exist_ok=True)
    samples = [spawn(name, seed, "twin", deadline)]
    if trace:
        samples.append(spawn(name, seed, "timed", deadline))
        samples.append(spawn(name, seed, "traced", deadline))
    started = time.monotonic()
    while (sum(s["mode"] == "timed" for s in samples) < MIN_RUNS
           or time.monotonic() - started < seconds):
        samples.append(spawn(name, seed, "timed", deadline))
        if time.monotonic() >= deadline:
            break
    outcome = judge(samples)
    plain = [s for s in samples if s["mode"] == "timed" and s["ok"]]
    if not plain:
        raise BenchError("no run succeeded: " + "; ".join(
            str(s["error"]) for s in samples))
    metrics = {}
    if trace:
        traced = next(s for s in samples if s["mode"] == "traced")
        if "report" not in traced:
            raise BenchError(f"traced run failed: {traced['error']}")
        values = layer_metrics(traced["report"],
                               statistics.median(s["run_s"] for s in plain))
        metrics = {n: {"value": values[n], "unit": unit}
                   for n, unit, _better in PER_LAYER}
    else:
        for metric, unit in (("run_s", "s"), ("setup_s", "s"),
                             ("peak_rss_mb", "MB")):
            metrics[metric] = {
                "value": statistics.median(s[metric] for s in plain),
                "unit": unit}
    reference = load_reference().get(name, {}).get(str(seed))
    failed = sum(not s["ok"] for s in samples)
    return {"workload": name, "seed": seed, "samples": samples,
            "outcome": outcome, "reference": reference,
            "correct": failed == 0, "attempted": len(samples),
            "failed": failed, "metrics": metrics}


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def reference_verdict(result: dict) -> str:
    if result["reference"] is None:
        return f"no reference outcome for seed {result['seed']}"
    if result["reference"] == result["outcome"]:
        return "outcome unchanged vs reference"
    return "OUTCOME CHANGED vs reference"


def describe(result: dict) -> list[str]:
    """Human-readable lines for one set: samples, checks, metrics."""
    lines = []
    for s in result["samples"]:
        if s["outcome"] is None:
            lines.append(f"# {s['mode']:<6} FAILED  {s['error']}")
            continue
        status = "ok" if s["ok"] else f"FAILED  {s['error']}"
        lines.append(f"# {s['mode']:<6} setup_s={s['setup_s']:.3f} "
                     f"run_s={s['run_s']:.3f} "
                     f"peak_rss_mb={s['peak_rss_mb']:.1f}  {status}")
    agree = sum(s["ok"] for s in result["samples"])
    twin = result["samples"][0]
    lines.append(f"# outcome check: {agree}/{result['attempted']} runs "
                 "agree and finish all work; sanitizer twin "
                 f"{'passed' if twin['ok'] else 'FAILED'}; "
                 f"{reference_verdict(result)}")
    lines.append(f"# error_rate {result['failed'] / result['attempted']:g} "
                 f"({result['failed']}/{result['attempted']})")
    for metric, entry in result["metrics"].items():
        lines.append(f"# {metric} {entry['value']:.6g} {entry['unit']}")
    return lines


def table(results: list[dict]) -> list[str]:
    """One row per workload: the end-to-end metrics and outcome checks."""
    lines = [f"{'workload':<15} {'seed':>5} {'run_s [s]':>10} "
             f"{'setup_s [s]':>12} {'peak_rss_mb [MB]':>17} "
             f"{'error_rate [ratio]':>19}  outcome check"]
    for r in results:
        m = r["metrics"]
        lines.append(
            f"{r['workload']:<15} {r['seed']:>5} {m['run_s']['value']:>10.3f} "
            f"{m['setup_s']['value']:>12.3f} "
            f"{m['peak_rss_mb']['value']:>17.1f} "
            f"{r['failed'] / r['attempted']:>19.3f}  "
            f"{'runs agree' if r['correct'] else 'RUNS DISAGREE/FAIL'}, "
            f"{reference_verdict(r)}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure plain runs for this long per set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead")
    parser.add_argument("--update-reference", action="store_true",
                        help="store this set's outcome as the reference")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        stamp = environment()
        print(f"# env {json.dumps(stamp, sort_keys=True)}", flush=True)
        for name in names:
            seed = (WORKLOADS[name].default_seed if args.seed is None
                    else args.seed)
            print(f"# {name} seed={seed} seconds={args.seconds:g} "
                  f"trace={args.trace}", flush=True)
            result = run_set(name, seed, args.seconds, bool(args.trace))
            print("\n".join(describe(result)), flush=True)
            results.append(result)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.update_reference:
        reference = load_reference()
        for r in results:
            if r["correct"]:
                reference.setdefault(r["workload"], {})[str(r["seed"])] = \
                    r["outcome"]
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                             + "\n")
    if args.workload == "all":
        if not args.trace:
            print("\n".join(table(results)))
        return 0 if all(r["correct"] for r in results) else 1
    r = results[0]
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": r["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
