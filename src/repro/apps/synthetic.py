"""The paper's synthetic benchmark (§6.2).

"Each iteration of the program has 100 tasks per core, of average duration
50 ms. The task durations are different on the different appranks to meet
the target imbalance. The execution time of the tasks on the worst-case
rank is 50 ms multiplied by the target imbalance. The other execution
times are uniformly distributed over the space of values respecting the
constraints."

The slow-node variant (§7.5) keeps all cluster nodes at full speed and
*emulates* a slow node by multiplying the slow apprank's task durations —
"it is not actually a slow node, just emulated by the task durations".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from ..errors import WorkloadError
from ..mpisim.comm import RankComm
from ..nanos.apprank import AppRankRuntime
from ..nanos.task import AccessType, DataAccess

__all__ = ["SyntheticSpec", "task_durations", "apprank_loads",
           "synthetic_main", "make_synthetic_app"]

#: default task payload: 64 KiB in + out per task (small vs 50 ms of work)
DEFAULT_TASK_BYTES = 64 * 1024


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic run."""

    num_appranks: int
    imbalance: float                    # Eq. 2 target, >= 1
    cores_per_apprank: int              # tasks per iteration = 100 * this
    tasks_per_core: int = 100
    mean_duration: float = 0.050        # seconds
    iterations: int = 3
    seed: int = 1234
    task_bytes: int = DEFAULT_TASK_BYTES
    #: §7.5 emulation: multiply this apprank's durations by slow_factor
    slow_rank: Optional[int] = None
    slow_factor: float = 3.0
    #: where the *application* imbalance puts its heaviest rank relative to
    #: the slow rank: "most" = slow rank has the most work (right side of
    #: Figure 10), "least" = the least (left side)
    slow_has: str = "most"

    def __post_init__(self) -> None:
        if self.num_appranks < 1:
            raise WorkloadError("need at least one apprank")
        if self.imbalance < 1.0:
            raise WorkloadError(f"imbalance must be >= 1.0, got {self.imbalance}")
        if self.imbalance > self.num_appranks:
            raise WorkloadError(
                f"imbalance {self.imbalance} impossible with "
                f"{self.num_appranks} appranks (max is the apprank count)")
        if self.tasks_per_core < 1 or self.cores_per_apprank < 1:
            raise WorkloadError("need at least one task per iteration")
        if self.mean_duration <= 0:
            raise WorkloadError("mean duration must be positive")
        if self.slow_rank is not None and not (
                0 <= self.slow_rank < self.num_appranks):
            raise WorkloadError(f"slow rank {self.slow_rank} out of range")
        if self.slow_has not in ("most", "least"):
            raise WorkloadError(f"slow_has must be 'most' or 'least'")

    @property
    def tasks_per_apprank(self) -> int:
        return self.tasks_per_core * self.cores_per_apprank


#: :func:`task_durations` results, one read-only array per spec. Bounded by
#: the distinct specs a process builds (tens in a campaign).
_DURATIONS: dict[SyntheticSpec, np.ndarray] = {}


def task_durations(spec: SyntheticSpec) -> np.ndarray:
    """Per-apprank *nominal* task duration meeting the target imbalance.

    The worst-case rank gets ``mean * imbalance``; the remaining ranks'
    durations are drawn uniformly (Dirichlet over the constrained simplex)
    so they sum to the remaining budget and never exceed the maximum.
    Deterministic given the spec's seed. The §7.5 slow-factor multiplier is
    NOT included — it emulates hardware, not application work; apply it via
    :func:`emulated_durations`.

    Computed once per spec: every call with an equal spec returns the same
    read-only array.
    """
    durations = _DURATIONS.get(spec)
    if durations is None:
        durations = _draw_durations(spec)
        durations.setflags(write=False)
        _DURATIONS[spec] = durations
    return durations


def _draw_durations(spec: SyntheticSpec) -> np.ndarray:
    """:func:`task_durations`, freshly computed."""
    a = spec.num_appranks
    mean = spec.mean_duration
    if a == 1:
        return np.array([mean])
    worst = mean * spec.imbalance
    budget = a * mean - worst
    rest = a - 1
    if budget < 0:
        raise WorkloadError("imbalance exceeds apprank count")
    # Up to 1000 rejection draws in one batch: the generator is local to
    # the call and fills rows in the order sequential draws would, so the
    # first accepted row is the one a draw-until-accepted loop returns.
    rng = np.random.default_rng(spec.seed)
    draws = rng.dirichlet(np.ones(rest), size=1000) * budget
    accepted = np.flatnonzero((draws <= worst + 1e-12).all(axis=1))
    if accepted.size:
        shares = draws[accepted[0]]
    else:
        # Extremely skewed targets: fall back to an even split (still
        # respects the constraints exactly).
        shares = np.full(rest, budget / rest)
    durations = np.empty(a)
    worst_rank = _worst_rank(spec)
    others = [r for r in range(a) if r != worst_rank]
    durations[worst_rank] = worst
    durations[others] = shares
    if (spec.slow_rank is not None and spec.slow_has == "least"
            and spec.slow_rank != worst_rank):
        # The slow rank must carry the least application work: swap its
        # share with the minimum among the non-worst ranks.
        least = min(others, key=lambda r: durations[r])
        durations[[spec.slow_rank, least]] = durations[[least, spec.slow_rank]]
    return durations


def _worst_rank(spec: SyntheticSpec) -> int:
    """Which apprank carries the maximum load."""
    if spec.slow_rank is not None and spec.slow_has == "most":
        return spec.slow_rank
    if spec.slow_rank is not None and spec.slow_has == "least":
        # Heaviest rank far from the slow rank.
        return (spec.slow_rank + spec.num_appranks // 2) % spec.num_appranks \
            if spec.num_appranks > 1 else 0
    return 0


def emulated_durations(spec: SyntheticSpec) -> np.ndarray:
    """Wall durations including the §7.5 slow-node emulation factor."""
    durations = task_durations(spec)
    if spec.slow_rank is not None:
        durations = durations.copy()
        durations[spec.slow_rank] *= spec.slow_factor
    return durations


def apprank_loads(spec: SyntheticSpec) -> np.ndarray:
    """Per-apprank work per iteration in core·seconds (application work)."""
    return task_durations(spec) * spec.tasks_per_apprank


def emulated_loads(spec: SyntheticSpec) -> np.ndarray:
    """Per-apprank wall work per iteration including slow-node emulation."""
    return emulated_durations(spec) * spec.tasks_per_apprank


def synthetic_main(comm: RankComm, rt: AppRankRuntime,
                   spec: SyntheticSpec) -> Generator[Any, Any, dict]:
    """SPMD main: iterations of independent tasks + taskwait + barrier."""
    durations = emulated_durations(spec)
    my_duration = float(durations[comm.rank])
    bytes_per_task = spec.task_bytes
    iteration_times: list[float] = []
    for _iteration in range(spec.iterations):
        t0 = comm.sim.now
        for i in range(spec.tasks_per_apprank):
            accesses = ()
            if bytes_per_task > 0:
                base = i * bytes_per_task
                accesses = (DataAccess(AccessType.INOUT, base,
                                       base + bytes_per_task),)
            rt.submit(work=my_duration, accesses=accesses,
                      label=f"synthetic-{i}")
        yield from rt.taskwait()
        yield from comm.barrier()
        iteration_times.append(comm.sim.now - t0)
    return {"iteration_times": iteration_times, "stats": rt.stats()}


def make_synthetic_app(spec: SyntheticSpec):
    """Bind *spec* for :meth:`ClusterRuntime.run_app`."""
    def main(comm: RankComm, rt: AppRankRuntime):
        result = yield from synthetic_main(comm, rt, spec)
        return result
    return main
