"""Shared experiment harness.

Every figure module builds on the same pieces:

* :class:`Scale` — paper-scale vs scaled-down parameters. The scheduling
  behaviour under study is driven by per-core ratios, so shrinking
  cores/node and tasks/core keeps every *shape* while making a full sweep
  run in seconds instead of hours.
* :func:`run_workload` — wire a cluster + runtime config + app, run it,
  and report times (including the steady-state per-iteration time, which
  is what the paper's long runs measure).
* :class:`ResultTable` — row container with aligned-text formatting, the
  "same rows/series the paper reports".
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

import numpy as np

from ..cluster.machine import MachineSpec
from ..cluster.topology import ClusterSpec
from ..errors import ExperimentError
from ..faults.plan import FaultPlan
from ..nanos.config import RuntimeConfig
from ..nanos.runtime import ClusterRuntime

__all__ = ["Scale", "TINY", "SMALL", "MEDIUM", "PAPER", "RunResult",
           "run_workload", "ResultTable", "reduction_vs", "force_config"]

#: The active :func:`force_config` blocks, outermost first: each block's
#: RuntimeConfig overrides and the list collecting its instrumented runs.
_FORCED: list[tuple[dict[str, Any], list[ClusterRuntime]]] = []


@contextmanager
def force_config(**overrides: Any) -> Iterator[list[ClusterRuntime]]:
    """Apply ``RuntimeConfig`` overrides to every :func:`run_workload`.

    The CLI's ``--obs``, ``--check``, ``--policy`` and ``--lend-policy``
    flags and the ``check`` target use this to switch instrumentation, the
    invariant sanitizer (:mod:`repro.validate`) or a registered policy
    into any existing experiment without the figure modules knowing. Each
    instrumented run's :class:`ClusterRuntime` (one with ``obs`` or a
    ``validator``) is appended to the yielded list in execution order, so
    callers can report what was recorded or checked; uninstrumented runs
    are not kept, so a long sweep under a policy override does not hold
    every finished runtime alive. A violation surfaces as the run raising
    :class:`~repro.errors.ValidationError`.

    Blocks nest: an inner block's overrides are layered over the
    enclosing block's, and a run is appended to every enclosing block's
    list. Override names and values are validated on entry.
    """
    try:
        RuntimeConfig().with_(**overrides)
    except TypeError as exc:
        raise ExperimentError(f"force_config: {exc}") from None
    runtimes: list[ClusterRuntime] = []
    _FORCED.append((overrides, runtimes))
    try:
        yield runtimes
    finally:
        _FORCED.pop()


@dataclass(frozen=True)
class Scale:
    """Experiment sizing. ``paper`` reproduces the published parameters.

    Policy periods scale with the run length: the paper's 2-second solver
    period amortises over minutes-long runs; a scaled run lasting seconds
    needs proportionally faster ticks or the policies never converge
    within the measurement.
    """

    name: str
    cores_per_node: int          # MareNostrum4 has 48; scaled runs use fewer
    tasks_per_core: int          # synthetic benchmark uses 100
    iterations: int
    micropp_subdomains_per_core: int = 12
    local_period: float = 0.1
    global_period: float = 2.0

    def machine(self, base: MachineSpec) -> MachineSpec:
        """The machine preset scaled to this experiment size."""
        if self.cores_per_node == base.cores_per_node:
            return base
        return base.scaled(self.cores_per_node)

    def tune(self, config: RuntimeConfig) -> RuntimeConfig:
        """Apply this scale's policy periods to a runtime config."""
        return config.with_(local_period=self.local_period,
                            global_period=self.global_period)

    def feasible(self, degree: int, appranks_per_node: int) -> bool:
        """Whether a degree leaves DROM room to act at this core count.

        Each worker owns >= 1 core (the DLB floor); below 2 cores per
        worker the floor dominates and the configuration measures the
        artefact, not the mechanism. The paper's largest case (degree 8,
        2 appranks/node, 48 cores) has 3x headroom.
        """
        return 2 * degree * appranks_per_node <= self.cores_per_node


#: Smoke-test scale: single runs finish in tens of milliseconds. Used by
#: the campaign orchestrator's self-tests and CI chaos smoke, where the
#: *orchestration* (not the simulated physics) is under test.
TINY = Scale(name="tiny", cores_per_node=4, tasks_per_core=4, iterations=2,
             micropp_subdomains_per_core=2,
             local_period=0.02, global_period=0.2)
#: Fast CI scale: every shape holds, runs in seconds.
SMALL = Scale(name="small", cores_per_node=8, tasks_per_core=10, iterations=3,
              micropp_subdomains_per_core=4,
              local_period=0.02, global_period=0.2)
#: Default experiment scale used by the bench harness.
MEDIUM = Scale(name="medium", cores_per_node=16, tasks_per_core=25,
               iterations=4, micropp_subdomains_per_core=8,
               local_period=0.05, global_period=0.5)
#: The paper's parameters (48-core nodes, 100 tasks/core, 2 s solver
#: period). Slow in Python — use for spot checks, not full sweeps.
PAPER = Scale(name="paper", cores_per_node=48, tasks_per_core=100,
              iterations=8, micropp_subdomains_per_core=12,
              local_period=0.1, global_period=2.0)


@dataclass
class RunResult:
    """Everything a figure needs from one run."""

    elapsed: float
    iteration_maxima: np.ndarray     # per iteration, max across appranks
    runtime: ClusterRuntime
    rank_results: list[dict]

    @property
    def time_per_iteration(self) -> float:
        """Mean per-iteration time over all iterations."""
        return float(self.iteration_maxima.mean())

    @property
    def steady_time_per_iteration(self) -> float:
        """Per-iteration time excluding the first (policy convergence)
        iteration — the steady state a long paper run measures."""
        if len(self.iteration_maxima) <= 1:
            return self.time_per_iteration
        return float(self.iteration_maxima[1:].mean())

    @property
    def offloaded_tasks(self) -> int:
        return self.runtime.total_offloaded()


def run_workload(machine: MachineSpec, num_nodes: int, appranks_per_node: int,
                 config: RuntimeConfig,
                 app_factory: Callable[[], Any],
                 slow_nodes: Optional[dict[int, float]] = None,
                 faults: Optional[FaultPlan] = None,
                 home_nodes: Optional[int] = None,
                 setup: Optional[Callable[[ClusterRuntime], None]] = None
                 ) -> RunResult:
    """Build the stack, run the app, and collect per-iteration times.

    *faults* injects a :class:`~repro.faults.FaultPlan` (``None`` or an
    empty plan leaves the run untouched). *home_nodes* keeps the apprank
    graph on the first N nodes, leaving the rest as crash-tolerant spares;
    appranks are then counted per *home* node. *setup* runs against the
    wired :class:`ClusterRuntime` before the app starts (e.g. to
    ``add_helper`` onto a spare node).
    """
    spec = ClusterSpec.homogeneous(machine, num_nodes)
    if slow_nodes:
        spec = spec.with_slow_nodes(slow_nodes)
    for overrides, _ in _FORCED:
        config = config.with_(**overrides)
    graph_nodes = num_nodes if home_nodes is None else home_nodes
    num_appranks = graph_nodes * appranks_per_node
    runtime = ClusterRuntime(spec, num_appranks, config, faults=faults,
                             home_nodes=home_nodes)
    if setup is not None:
        setup(runtime)
    results = runtime.run_app(app_factory())
    if runtime.obs is not None or runtime.validator is not None:
        for _, runtimes in _FORCED:
            runtimes.append(runtime)
    iteration_maxima = _iteration_maxima(results)
    return RunResult(elapsed=runtime.elapsed, iteration_maxima=iteration_maxima,
                     runtime=runtime, rank_results=results)


def _iteration_maxima(rank_results: Sequence[dict]) -> np.ndarray:
    times = [r.get("iteration_times") for r in rank_results]
    if any(t is None for t in times):
        raise ExperimentError("app results missing 'iteration_times'")
    lengths = {len(t) for t in times}
    if len(lengths) != 1:
        raise ExperimentError("ranks report different iteration counts")
    return np.asarray(times, dtype=float).max(axis=0)


def reduction_vs(time: float, reference: float) -> float:
    """Percentage reduction of *time* relative to *reference*."""
    if reference <= 0:
        raise ExperimentError("non-positive reference time")
    return 100.0 * (1.0 - time / reference)


@dataclass
class ResultTable:
    """Ordered rows of one experiment, with aligned-text rendering."""

    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **values: Any) -> None:
        """Append one row; every declared column is required."""
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ExperimentError(f"row missing columns {missing}")
        self.rows.append(values)

    def note(self, text: str) -> None:
        """Attach a footnote rendered under the table."""
        self.notes.append(text)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ExperimentError(f"unknown column {name!r}")
        return [row[name] for row in self.rows]

    def find(self, **criteria: Any) -> list[dict[str, Any]]:
        """Rows whose fields equal every given criterion."""
        return [row for row in self.rows
                if all(row.get(k) == v for k, v in criteria.items())]

    def format(self) -> str:
        """Aligned text table (what the CLI prints)."""
        def cell(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.4f}"
            return str(value)

        body = [[cell(row[c]) for c in self.columns] for row in self.rows]
        widths = [max(len(c), *(len(r[i]) for r in body)) if body else len(c)
                  for i, c in enumerate(self.columns)]
        lines = [self.title,
                 "  ".join(c.ljust(w) for c, w in zip(self.columns, widths)),
                 "  ".join("-" * w for w in widths)]
        lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in body]
        lines += [f"# {note}" for note in self.notes]
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The rows as CSV text (header + one line per row)."""
        out = [",".join(self.columns)]
        for row in self.rows:
            out.append(",".join(str(row[c]) for c in self.columns))
        return "\n".join(out)
