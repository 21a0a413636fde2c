"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    repro-experiments <target> [options]

Each target is a subcommand that accepts only the options it honours;
``python -m repro <target> --help`` lists them. Options follow the
target name.

The figure/table targets ``fig05`` … ``fig11``, ``headline``,
``ablation``, ``multijob`` and ``all`` print the paper-style series and
take ``--scale tiny|small|medium|paper`` (default ``medium``) and
``--csv DIR`` (one CSV per table). ``resilience`` also takes
``--faults`` (the :meth:`repro.faults.FaultPlan.parse` syntax) and
``--seed`` to replace the built-in fault sweep with a custom plan::

    python -m repro resilience --faults "crash:apprank=0,node=1,t=0.5" --seed 7

On every figure target, ``--obs`` turns on the :mod:`repro.obs`
instrumentation and reports how much was recorded, ``--check`` arms the
:mod:`repro.validate` invariant sanitizer and reports what was checked,
and ``--policy`` / ``--lend-policy`` swap registered policy-kernel
strategies (:mod:`repro.policies`) into every run. ``policies`` lists
what is registered; ``ablation`` sweeps every offload policy over the
headline MicroPP workload, and ``--policy`` narrows that sweep::

    python -m repro policies
    python -m repro fig08 --policy locality --check
    python -m repro ablation --scale small --policy work-sharing

``trace <experiment>`` records one fully instrumented run instead of a
sweep, prints the critical-path makespan breakdown, and exports a Chrome
trace-event JSON loadable in Perfetto (https://ui.perfetto.dev) and/or a
Paraver triple. It takes ``--check``, ``--policy`` and ``--lend-policy``
like a figure target, and ``--faults`` / ``--seed`` for ``resilience``::

    python -m repro trace headline --out trace.json --paraver trace
    python -m repro trace resilience --scale small --check

``check <experiment>`` runs the invariant sanitizer and differential/
metamorphic oracles over a conformance workload (default ``--scale
small``); ``--faults`` / ``--seed`` apply to ``check resilience``::

    python -m repro check headline --policy locality
    python -m repro check resilience --faults "crash:apprank=0,node=1,t=0.5"

``campaign`` shards a sweep grid across a fault-tolerant master/worker
process pool (:mod:`repro.campaign`) with a crash-safe journal: an
interrupted or killed campaign resumes from the same ``--out`` directory
(default ``campaign-out``), skipping completed cells. ``--chaos`` arms
the built-in self-test (a worker is SIGKILLed, a cell is wedged past its
timeout) to prove the recovery paths::

    python -m repro campaign --grid "app=synthetic;nodes=2,4;seed=0..9" \\
        --out sweep --workers 8
    python -m repro campaign --grid @imbalance-sweep --out sweep8
    python -m repro campaign --grid @smoke --out /tmp/c --chaos --seed 1

On Ctrl-C the campaign terminates its workers, flushes the journal,
prints the exact resume command (every non-default flag), and exits 130.

``jobs`` simulates a whole cluster of jobs arriving over time and
sharing nodes under cross-job DROM reallocation (:mod:`repro.jobs`):
``--trace`` picks a seeded arrival trace (``poisson:...``,
``bursty:...``, ``diurnal:...``, ``single:...``) and
``--realloc-policy`` the arbitration rule (any registered reallocation
policy — ``local``, ``global``, ``gavel``; default ``gavel``).
``--check`` arms the cross-job sanitizer, ``--obs`` the event bus; the
``multijob`` figure target sweeps offered load against all three
policies::

    python -m repro jobs --trace poisson:seed=1,rate=0.5,n=8 \\
        --realloc-policy gavel --check
    python -m repro multijob --scale small

``bench [experiment]`` measures the simulator itself on the wall clock
(:mod:`repro.perf`): events/sec, per-phase timings, peak RSS and
per-subsystem attribution over a pinned workload, written to a
schema-versioned ``BENCH_<experiment>.json`` that
``tools/compare_bench.py`` diffs against the committed trajectory::

    python -m repro bench headline --repeat 3
    python -m repro bench synthetic --profile --bench-dir /tmp/bench
    python tools/compare_bench.py headline --report-only
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from .errors import CampaignError, ExperimentError, FaultError
from .experiments import (CAMPAIGN_GRIDS, MEDIUM, PAPER, SMALL, TINY,
                          ResultTable, Scale, fig05_policies,
                          fig06_applications, fig07_local, fig08_sweep,
                          fig09_traces, fig10_slownode, fig11_convergence,
                          fig_multijob, fig_policies_ablation, force_config,
                          headline, resilience, traced)
from .faults import FaultPlan
from .ioutil import atomic_write_text
from .nanos.config import RuntimeConfig
from .policies import LEND_POLICIES, OFFLOAD_POLICIES

__all__ = ["main"]

_SCALES = {"tiny": TINY, "small": SMALL, "medium": MEDIUM, "paper": PAPER}

#: figure/table targets: name -> runner returning the tables to print
TARGETS: dict[str, Callable[[Scale, argparse.Namespace],
                            list[ResultTable]]] = {
    "fig05": lambda scale, args: [fig05_policies.run(scale)],
    "fig06": lambda scale, args: list(fig06_applications.run(scale)),
    "fig07": lambda scale, args: list(fig07_local.run(scale)),
    "fig08": lambda scale, args: [fig08_sweep.run(scale)],
    "fig09": lambda scale, args: [fig09_traces.run(scale)],
    "fig10": lambda scale, args: [fig10_slownode.run(scale)],
    "fig11": lambda scale, args: [fig11_convergence.run(scale)],
    "headline": lambda scale, args: [headline.run(scale)],
    "resilience": lambda scale, args: [resilience.run(
        scale, faults=args.faults, fault_seed=args.seed)],
    # --policy narrows the ablation's sweep instead of forcing one name
    "ablation": lambda scale, args: [fig_policies_ablation.run(
        scale, policies=[args.policy] if args.policy else None)],
    "multijob": lambda scale, args: [fig_multijob.run(scale)],
}


class _CliError(Exception):
    """A one-line CLI error (no usage dump, no traceback); exits 2."""


def _fault_plan(args) -> Optional[FaultPlan]:
    """Parse (and so validate) ``--faults`` before any experiment runs."""
    if not args.faults:
        return None
    experiment = vars(args).get("experiment", "resilience")
    if experiment != "resilience":
        raise _CliError(f"--faults needs the resilience experiment, not "
                        f"{experiment!r}")
    try:
        return FaultPlan.parse(args.faults, seed=args.seed)
    except FaultError as exc:
        raise _CliError(f"bad --faults spec: {exc}") from None


def _forced(args) -> dict[str, Any]:
    """The ``RuntimeConfig`` overrides this subcommand's flags ask for."""
    flags = vars(args)
    forced = {"obs": flags.get("obs"), "validate": flags.get("check"),
              "offload_policy": flags.get("policy"),
              "lend_policy": flags.get("lend_policy")}
    return {name: value for name, value in forced.items() if value}


def _check_line(runtimes: list) -> str:
    """What the sanitizer verified over a block's runs."""
    checked = {"events": 0, "messages": 0, "tasks": 0, "dlb_checks": 0}
    for runtime in runtimes:
        summary = runtime.validator.summary()
        for key in checked:
            checked[key] += summary[key]
    return (f"# check: {len(runtimes)} runs validated, "
            f"{checked['events']} events, "
            f"{checked['messages']} messages, "
            f"{checked['tasks']} tasks, "
            f"{checked['dlb_checks']} DLB snapshots — all invariants held")


def _run_figures(args) -> int:
    """Figure/table targets and ``all``: print (and CSV) every table."""
    _fault_plan(args)
    scale = _SCALES[args.scale]
    forced = _forced(args)
    for target in TARGETS if args.target == "all" else (args.target,):
        started = time.perf_counter()
        overrides = ({k: v for k, v in forced.items()
                      if k != "offload_policy"}
                     if target == "ablation" else forced)
        with force_config(**overrides) as runtimes:
            tables = TARGETS[target](scale, args)
        elapsed = time.perf_counter() - started
        for i, table in enumerate(tables):
            print(table.format())
            print(f"# wall time: {elapsed:.1f} s")
            print()
            if args.csv is not None:
                suffix = f"_{i}" if len(tables) > 1 else ""
                path = args.csv / f"{target}{suffix}_{scale.name}.csv"
                # temp-file + rename: an interrupted run never leaves a
                # truncated CSV (same discipline as the campaign journal)
                atomic_write_text(path, table.to_csv() + "\n")
                print(f"# wrote {path}")
        if args.obs and runtimes:
            totals = {"spans": 0, "instants": 0, "counter_samples": 0}
            for runtime in runtimes:
                summary = runtime.obs.bus.summary()
                for key in totals:
                    totals[key] += summary[key]
            print(f"# obs: {len(runtimes)} runs instrumented, "
                  f"{totals['spans']} spans, {totals['instants']} instants, "
                  f"{totals['counter_samples']} counter samples")
            print()
        if args.check and runtimes:
            print(_check_line(runtimes))
            print()
    return 0


def _run_trace(args) -> int:
    """``trace``: one fully instrumented run, exported and analysed."""
    plan = _fault_plan(args)
    started = time.perf_counter()
    with force_config(**_forced(args)) as runtimes:
        trace_run = traced.run(args.experiment, _SCALES[args.scale],
                               out=args.out, paraver=args.paraver,
                               faults=plan)
    print(trace_run.format())
    if args.check:
        print(_check_line(runtimes))
    print(f"# wall time: {time.perf_counter() - started:.1f} s")
    return 0


def _run_check(parser: argparse.ArgumentParser, args) -> int:
    """``check``: the sanitizer and oracles over a conformance workload."""
    from .validate import CHECK_TARGETS, run_check
    if args.experiment not in CHECK_TARGETS:
        parser.error("check needs an experiment to validate: "
                     f"one of {', '.join(CHECK_TARGETS)}")
    _fault_plan(args)
    started = time.perf_counter()
    with force_config(**_forced(args)):
        report = run_check(args.experiment, _SCALES[args.scale],
                           faults=args.faults, fault_seed=args.seed)
    print(report.format())
    print(f"# wall time: {time.perf_counter() - started:.1f} s")
    return 0


def _print_policies(args) -> int:
    """``policies``: registered strategies and the defaults."""
    defaults = RuntimeConfig()
    default_by_kind = {
        "offload": defaults.offload_policy,
        "lend": defaults.lend_policy,
        "reallocation": defaults.policy,
    }
    from .policies import _REGISTRIES
    print("Registered policy-kernel strategies (repro.policies):")
    for kind, registry in _REGISTRIES.items():
        names = ", ".join(
            f"{name}*" if name == default_by_kind[kind] else name
            for name in registry.names())
        print(f"  {kind:<12} {names}")
    print("(* = RuntimeConfig default; select with --policy/--lend-policy,"
          " or register more via the repro.<kind>_policies entry points)")
    return 0


def _campaign_progress(event: dict) -> None:
    """Render orchestration events as compact stderr progress lines."""
    kind = event.get("event")
    if kind == "resume":
        print(f"# campaign: resuming — {event['resumed']}/{event['total']} "
              "cells already journalled", file=sys.stderr)
    elif kind == "done":
        pace = ""
        if event.get("cells_per_sec"):
            pace = f", {event['cells_per_sec']:.2f} cells/s"
            if event.get("eta") is not None:
                pace += f", ETA {event['eta']:.0f}s"
        print(f"# [{event['completed']}/{event['total']}] {event['cell']} "
              f"done (attempt {event['attempt']}, {event['wall']:.2f}s"
              f"{pace})", file=sys.stderr)
    elif kind == "failed":
        print(f"# cell {event['cell']} failed (attempt {event['attempt']}): "
              f"{event['error']}", file=sys.stderr)
    elif kind == "requeued":
        print(f"# cell {event['cell']} requeued ({event['reason']})",
              file=sys.stderr)
    elif kind == "quarantined":
        print(f"# cell {event['cell']} QUARANTINED", file=sys.stderr)
    elif kind in ("chaos-kill", "chaos-hang", "kill", "crash"):
        detail = event.get("cell") or f"worker {event.get('worker')}"
        print(f"# {kind}: {detail}", file=sys.stderr)


def _resume_command(parser: argparse.ArgumentParser, args) -> str:
    """The exact invocation that resumes an interrupted campaign: every
    flag of the ``campaign`` subcommand that is not at its default."""
    parts = ["python -m repro campaign"]
    for action in parser._actions:
        value = getattr(args, action.dest, None)
        if (not action.option_strings or value is None
                or value == action.default):
            continue
        flag = action.option_strings[0]
        parts.append(flag if value is True
                     else f"{flag} {shlex.quote(str(value))}")
    return " ".join(parts)


def _run_campaign(parser: argparse.ArgumentParser, args) -> int:
    """``campaign``: shard a grid across a worker pool."""
    from .campaign import CampaignGrid, run_campaign
    if args.grid is None:
        raise _CliError("campaign needs --grid (a sweep spec or @preset; "
                        f"presets: {', '.join(sorted(CAMPAIGN_GRIDS))})")
    spec = args.grid
    if spec.startswith("@"):
        preset = spec[1:]
        if preset not in CAMPAIGN_GRIDS:
            raise _CliError(f"unknown campaign preset {preset!r} "
                            f"(known: {', '.join(sorted(CAMPAIGN_GRIDS))})")
        spec = CAMPAIGN_GRIDS[preset]
        args.grid = spec        # resume command must name the real grid
    try:
        grid = CampaignGrid.parse(spec)
    except CampaignError as exc:
        raise _CliError(str(exc)) from None
    workers = args.workers or max(1, (os.cpu_count() or 2) - 1)
    started = time.perf_counter()
    try:
        report = run_campaign(
            grid, args.out, workers=workers,
            cell_timeout=args.cell_timeout,
            max_failures=args.max_failures,
            max_requeues=args.max_requeues,
            check=args.check, chaos=bool(args.chaos),
            chaos_seed=args.seed, progress=_campaign_progress)
    except CampaignError as exc:
        raise _CliError(str(exc)) from None
    if report.interrupted:
        print("# campaign interrupted — journal flushed; resume with:",
              file=sys.stderr)
        print(f"#   {_resume_command(parser, args)}", file=sys.stderr)
        return 130
    print(report.format())
    print(f"# wall time: {time.perf_counter() - started:.1f} s")
    print(f"# journal: {report.out_dir / 'journal.jsonl'}")
    print(f"# results: {report.csv_path}")
    if args.csv is not None:
        path = args.csv / "campaign.csv"
        atomic_write_text(path, report.table.to_csv() + "\n")
        print(f"# wrote {path}")
    return report.exit_code


def _run_jobs(args) -> int:
    """``jobs``: a multi-job arrival trace on one shared cluster."""
    from .errors import AllocationError, JobsError, ValidationError
    from .jobs import JobTrace, run_trace
    scale = _SCALES[args.scale]
    started = time.perf_counter()
    try:
        result = run_trace(JobTrace.parse(args.trace),
                           policy=args.realloc_policy, scale=scale,
                           cluster_nodes=args.cluster_nodes,
                           check=args.check, obs=args.obs)
    except (JobsError, AllocationError, ValidationError) as exc:
        raise _CliError(str(exc)) from None
    print(result.table().format())
    if result.sanitizer is not None:
        checked = result.sanitizer.summary()
        print(f"# check: {checked['allocations']} allocations, "
              f"{checked['grants']} grants, "
              f"{checked['progress']} progress updates, "
              f"{checked['finishes']} finishes — all cross-job "
              "invariants held")
    if result.obs is not None:
        summary = result.obs.bus.summary()
        print(f"# obs: {summary['spans']} spans, "
              f"{summary['instants']} instants, "
              f"{summary['counter_samples']} counter samples")
    if args.csv is not None:
        path = args.csv / f"jobs_{scale.name}.csv"
        atomic_write_text(path, result.table().to_csv() + "\n")
        print(f"# wrote {path}")
    print(f"# wall time: {time.perf_counter() - started:.1f} s")
    return 0


def _run_bench(parser: argparse.ArgumentParser, args) -> int:
    """``bench``: wall-clock measurement of the simulator itself."""
    from .perf import bench as bench_mod
    if args.experiment not in bench_mod.BENCH_TARGETS:
        parser.error("bench needs a workload to measure: "
                     f"one of {', '.join(bench_mod.BENCH_TARGETS)}")
    started = time.perf_counter()
    try:
        result = bench_mod.run_bench(
            args.experiment, _SCALES[args.scale], repeat=args.repeat,
            progress=lambda msg: print(f"# {msg}", file=sys.stderr))
    except ExperimentError as exc:
        raise _CliError(str(exc)) from None
    path = bench_mod.write_record(result, args.bench_dir)
    print(result.format())
    print(f"# wrote {path}")
    if args.profile:
        pstats_path, folded_path = bench_mod.write_profile(
            result, args.bench_dir)
        print(f"# wrote {pstats_path}")
        print(f"# wrote {folded_path}")
    print(f"# wall time: {time.perf_counter() - started:.1f} s")
    return 0


def _registered(registry) -> Callable[[str], str]:
    """An argparse ``type=`` that accepts only names in *registry*."""
    def check(name: str) -> str:
        if name not in registry:
            raise argparse.ArgumentTypeError(
                f"unknown {registry.kind} policy {name!r}; registered: "
                f"{', '.join(registry.names())}")
        return name
    return check


def _add_scale(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--scale", choices=sorted(_SCALES), default=default,
                   help="experiment sizing; 'paper' uses the published "
                        "parameters (48-core nodes, 100 tasks/core) and is "
                        f"slow (default: {default})")


def _add_csv(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", type=Path, default=None, metavar="DIR",
                   help="also write each table as CSV into DIR")


def _add_obs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--obs", action="store_true",
                   help="instrument every run with the repro.obs event "
                        "bus and report what was recorded")


def _add_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("--check", action="store_true",
                   help="arm the invariant sanitizer on every run and "
                        "report what was checked")


def _add_policies(p: argparse.ArgumentParser) -> None:
    p.add_argument("--policy", type=_registered(OFFLOAD_POLICIES),
                   default=None, metavar="NAME",
                   help="offload placement policy for every run "
                        "(ablation: restrict the sweep to NAME plus the "
                        "tentative reference); see 'policies'")
    p.add_argument("--lend-policy", type=_registered(LEND_POLICIES),
                   default=None, metavar="NAME",
                   help="LeWI lending policy for every run; see 'policies'")


def _add_faults(p: argparse.ArgumentParser) -> None:
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="custom fault plan in the FaultPlan.parse syntax, "
                        "e.g. 'crash:apprank=0,node=1,t=0.5;msg:loss=0.01' "
                        "(resilience experiment only)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the fault plan's stochastic draws")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables/figures of 'Transparent load "
                    "balancing of MPI programs using OmpSs-2@Cluster and "
                    "DLB' (ICPP 2022) on the simulator. Run "
                    "'<target> --help' for a target's options.")
    sub = parser.add_subparsers(dest="target", required=True,
                                metavar="target")

    for name in (*TARGETS, "all"):
        p = sub.add_parser(name, help="every figure/table target in turn"
                           if name == "all" else f"regenerate {name}")
        p.set_defaults(handler=_run_figures)
        _add_scale(p, "medium")
        _add_csv(p)
        _add_obs(p)
        _add_check(p)
        _add_policies(p)
        if name == "resilience":
            _add_faults(p)
        else:   # 'all' runs the built-in resilience sweep
            p.set_defaults(faults=None, seed=0)

    p = sub.add_parser("trace", help="record one instrumented run")
    p.set_defaults(handler=_run_trace)
    p.add_argument("experiment", choices=traced.TRACE_TARGETS,
                   help="which workload to record")
    _add_scale(p, "medium")
    p.add_argument("--out", type=Path, default=None, metavar="PATH",
                   help="write the Chrome trace-event JSON here (load it "
                        "at https://ui.perfetto.dev)")
    p.add_argument("--paraver", type=Path, default=None, metavar="BASE",
                   help="also write BASE.prv/.pcf/.row Paraver files")
    _add_faults(p)
    _add_check(p)
    _add_policies(p)

    p = sub.add_parser("check", help="run the invariant sanitizer and "
                                     "oracles over a conformance workload")
    p.set_defaults(handler=partial(_run_check, p))
    p.add_argument("experiment", nargs="?", default=None,
                   help="headline, synthetic, nbody or resilience")
    _add_scale(p, "small")
    _add_faults(p)
    _add_policies(p)

    p = sub.add_parser("policies",
                       help="list the registered policy-kernel strategies")
    p.set_defaults(handler=_print_policies)

    p = sub.add_parser("campaign", help="shard a sweep grid across a "
                                        "fault-tolerant worker pool")
    p.set_defaults(handler=partial(_run_campaign, p))
    p.add_argument("--grid", default=None, metavar="SPEC",
                   help="the sweep grid, e.g. "
                        "'app=synthetic;nodes=2,4;seed=0..9', or a preset "
                        f"via @name ({', '.join(sorted(CAMPAIGN_GRIDS))})")
    p.add_argument("--out", type=Path, default=Path("campaign-out"),
                   metavar="DIR",
                   help="the output directory holding the journal, "
                        "results.csv and report.json (default: "
                        "campaign-out)")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="worker processes (default: cores - 1)")
    p.add_argument("--chaos", action="store_true",
                   help="arm the chaos self-test (SIGKILL a worker and "
                        "wedge a cell mid-run to prove the recovery paths; "
                        "seeded by --seed)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the chaos self-test")
    p.add_argument("--cell-timeout", type=float, default=300.0,
                   metavar="SEC",
                   help="per-cell wall-clock budget before the worker is "
                        "killed and the cell requeued (default: 300)")
    p.add_argument("--max-failures", type=int, default=3, metavar="N",
                   help="cell errors before quarantine (default: 3)")
    p.add_argument("--max-requeues", type=int, default=10, metavar="N",
                   help="crash/hang interruptions of one cell before "
                        "quarantine (default: 10)")
    p.add_argument("--check", action="store_true",
                   help="arm the invariant sanitizer in every cell")
    _add_csv(p)

    p = sub.add_parser("bench", help="measure the simulator's wall-clock "
                                     "performance, write BENCH_<name>.json")
    p.set_defaults(handler=partial(_run_bench, p))
    p.add_argument("experiment", nargs="?", default="headline",
                   help="headline, synthetic or nbody (default: headline)")
    _add_scale(p, "small")
    p.add_argument("--repeat", type=int, default=3, metavar="N",
                   help="measurement repeats (default: 3); simulated "
                        "outcomes must be identical across them")
    p.add_argument("--profile", action="store_true",
                   help="also write the profiled run behind the "
                        "attribution table as BENCH_<name>.pstats + "
                        ".folded collapsed stacks")
    p.add_argument("--bench-dir", type=Path, default=Path("."),
                   metavar="DIR",
                   help="where to write BENCH_<name>.json (default: "
                        "current directory)")

    p = sub.add_parser("jobs", help="run a multi-job arrival trace under "
                                    "cross-job DROM reallocation")
    p.set_defaults(handler=_run_jobs)
    p.add_argument("--trace", required=True, metavar="SPEC",
                   help="the arrival trace, e.g. "
                        "'poisson:seed=1,rate=0.5,n=8', "
                        "'bursty:seed=2,n=6,burst=3,gap=2.0', "
                        "'diurnal:seed=3,n=8,period=20', or "
                        "'single:app=synthetic,nodes=2'")
    p.add_argument("--realloc-policy", default="gavel", metavar="NAME",
                   help="the cross-job reallocation policy (default: "
                        "gavel); see 'policies'")
    p.add_argument("--cluster-nodes", type=int, default=None, metavar="N",
                   help="nodes in the shared cluster (default: the trace's "
                        "largest job, min 2)")
    _add_scale(p, "small")
    _add_obs(p)
    p.add_argument("--check", action="store_true",
                   help="arm the cross-job sanitizer")
    _add_csv(p)
    return parser


def main(argv: Iterable[str] | None = None) -> int:
    args = _build_parser().parse_args(
        list(argv) if argv is not None else None)
    try:
        return args.handler(args)
    except _CliError as exc:
        print(f"repro-experiments: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # campaign handles its own interrupt (workers reaped, journal
        # flushed, resume command printed); everything else just exits
        # with the conventional SIGINT status.
        print("# interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
