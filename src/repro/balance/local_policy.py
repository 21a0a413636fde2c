"""Local convergence core-allocation policy (paper §5.4.1).

Each node periodically and independently re-divides its cores among the
workers living there, proportionally to each worker's average busy cores
since the last period, with the DLB minimum of one core per worker. No
global communication, low overhead; converges because a worker given more
cores (and holding more work) measures busier next period.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..dlb.drom import DromModule
from ..errors import AllocationError
from ..policies import (LocalProportionalReallocation, NodeAllocationView,
                        NodeReallocationPolicy)
from ..sim.engine import Simulator
from ..sim.events import Event, EventPriority
from .load import MeterReader

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nanos.worker import Worker

__all__ = ["LocalConvergencePolicy"]


class LocalConvergencePolicy:
    """Per-node proportional ownership, applied through DROM."""

    def __init__(self, sim: Simulator, drom: DromModule,
                 workers_by_node: dict[int, list["Worker"]],
                 node_cores: dict[int, int],
                 period: float,
                 smoothing: float = 0.1,
                 warmup_ticks: int = 3,
                 strategy: Optional[NodeReallocationPolicy] = None) -> None:
        if period <= 0:
            raise AllocationError("local policy period must be positive")
        if not 0 < smoothing <= 1:
            raise AllocationError("smoothing must be in (0, 1]")
        self.sim = sim
        self.drom = drom
        self.workers_by_node = workers_by_node
        self.node_cores = node_cores
        self.period = period
        #: EMA coefficient over per-period busy readings. Ownership is
        #: semi-permanent; reacting to raw per-period readings makes DROM
        #: chase iteration-phase noise (consistently granting cores to the
        #: worker that *was* busy), which LeWI already absorbs. Smoothing
        #: keeps DROM on the persistent component of the load.
        self.smoothing = smoothing
        #: ticks observed before DROM is allowed to act. The very first
        #: readings catch the submission-order transient (whichever rank
        #: submitted first has borrowed every idle core); acting on them
        #: strips ownership from ranks that have not started yet — and a
        #: worker cannot LeWI-reclaim cores it no longer owns.
        self.warmup_ticks = warmup_ticks
        #: what counts a tick requests; the driver owns the EMA, warmup,
        #: zero-load guard and the DROM apply
        self.strategy = strategy if strategy is not None \
            else LocalProportionalReallocation()
        self._ema: dict = {}
        self._readers = {
            worker.key: MeterReader(worker.meter, start_time=sim.now)
            for workers in workers_by_node.values() for worker in workers
        }
        self._event: Optional[Event] = None
        self.ticks = 0
        self.reallocations = 0

    def start(self) -> None:
        """Arm the periodic balancing tick."""
        self._event = self.sim.schedule(self.period, self._tick,
                                        priority=EventPriority.POLICY,
                                        label="local-policy-tick")

    def stop(self) -> None:
        """Cancel the pending tick (idempotent)."""
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    def add_worker(self, worker: "Worker") -> None:
        """Dynamic spreading hook: a helper rank joined at runtime."""
        self.workers_by_node.setdefault(worker.node_id, []).append(worker)
        self._readers[worker.key] = MeterReader(worker.meter,
                                                start_time=self.sim.now)
        self._ema.pop(worker.key, None)

    def remove_worker(self, worker: "Worker") -> None:
        """Fault hook: a worker crashed; stop balancing around it."""
        here = self.workers_by_node.get(worker.node_id)
        if here is not None:
            self.workers_by_node[worker.node_id] = [
                w for w in here if w.key != worker.key]
        self._readers.pop(worker.key, None)
        self._ema.pop(worker.key, None)

    def remove_node(self, node_id: int) -> None:
        """Fault hook: a whole node failed; never balance it again."""
        self.workers_by_node.pop(node_id, None)

    def _tick(self) -> None:
        now = self.sim.now
        self.ticks += 1
        for node_id, workers in self.workers_by_node.items():
            self._balance_node(node_id, workers, now)
        self._event = self.sim.schedule(self.period, self._tick,
                                        priority=EventPriority.POLICY,
                                        label="local-policy-tick")

    def _balance_node(self, node_id: int, workers: list["Worker"],
                      now: float) -> None:
        # Always read every meter so checkpoints advance together.
        raw = {w.key: self._readers[w.key].read(now) for w in workers}
        alpha = self.smoothing
        averages = {}
        for key, value in raw.items():
            previous = self._ema.get(key)
            averages[key] = (value if previous is None
                             else alpha * value + (1 - alpha) * previous)
            self._ema[key] = averages[key]
        if len(workers) < 2 or self.ticks <= self.warmup_ticks:
            return
        if sum(averages.values()) <= 1e-9:
            return  # nothing ran: keep current ownership
        view = NodeAllocationView(
            node_id=node_id, cores=self.node_cores[node_id],
            averages=dict(averages))
        counts = self.strategy.allocate_node(view)
        current = {w.key: w.arbiter.owned_count(w.key) for w in workers}
        if counts != current:
            self.drom.set_node_ownership(node_id, counts)
            self.reallocations += 1
