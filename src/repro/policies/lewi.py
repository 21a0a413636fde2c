"""LeWI lend decision strategies (paper §5.3).

The :class:`~repro.dlb.shmem.NodeArbiter` keeps the core state machine,
counters and DLB invariants, and applies the paper's one grant order to a
released core: owner first (the LeWI reclaim), then the releasing
worker, then the other workers by backlog. *How many idle cores a worker
lends* is decided here. The arbiter enforces the hard rules regardless
of policy: non-owners only ever receive a core when LeWI is enabled, and
the lend/borrow/reclaim counters are classified by the mechanism, so a
policy can change how much is lent but not corrupt accounting.

``eager`` reproduces the seed arbiter bit-identically (the parity-tested
default).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Hashable

__all__ = ["LendView", "LendPolicy", "EagerLend", "HoardLend",
           "ReserveOneLend"]

#: Worker identity as the arbiter knows it (``(apprank, node)`` tuples in
#: the runtime; any sortable hashable in tests).
WorkerKey = Hashable


@dataclass(frozen=True)
class LendView:
    """Snapshot for one voluntary-lend decision (worker ran dry)."""

    node_id: int
    #: the worker offering to lend
    worker_key: WorkerKey
    #: its currently idle, owned, not-yet-lent cores
    idle_owned_cores: int


class LendPolicy(ABC):
    """When and how many idle cores a worker lends."""

    #: registry key (``RuntimeConfig.lend_policy`` / ``--lend-policy``)
    name: ClassVar[str] = ""

    @abstractmethod
    def lend_count(self, view: LendView) -> int:
        """How many of ``view.idle_owned_cores`` to lend right now
        (clamped by the mechanism to ``[0, idle_owned_cores]``)."""

    @abstractmethod
    def lend_released(self) -> bool:
        """Whether a released core nobody could start on should be
        marked lent. Asked only after the core's owner (if still
        registered) was offered it and had nothing ready, and only when
        LeWI is enabled."""


class ReclaimPolicy:
    """An empty name, not a policy kind: the grant order of a released
    core is fixed in :meth:`~repro.dlb.shmem.NodeArbiter.release_core`
    (owner, releaser, others by backlog). It stays importable because
    ``perfbench/tracer.py`` looks it up when wrapping the
    ``policies.lend`` layer; it has no methods, so nothing is wrapped."""


class EagerLend(LendPolicy):
    """The paper's LeWI behaviour (the default): lend everything idle
    immediately, and lend a released core whenever its owner has nothing
    ready."""

    name = "eager"

    def lend_count(self, view: LendView) -> int:
        """Lend every idle owned core."""
        return view.idle_owned_cores

    def lend_released(self) -> bool:
        """Lend: the owner has nothing ready."""
        return True


class HoardLend(LendPolicy):
    """Never lend voluntarily — an ablation baseline isolating the value
    of LeWI's lending half while reclaim stays active."""

    name = "hoard"

    def lend_count(self, view: LendView) -> int:
        """Lend nothing."""
        return 0

    def lend_released(self) -> bool:
        """Keep released cores unlent."""
        return False


class ReserveOneLend(LendPolicy):
    """Lend all idle cores but one, keeping a warm core for the owner's
    next task (trades utilisation for reclaim latency)."""

    name = "reserve-one"

    def lend_count(self, view: LendView) -> int:
        """Lend all but one idle owned core."""
        return max(0, view.idle_owned_cores - 1)

    def lend_released(self) -> bool:
        """Same tail rule as :class:`EagerLend`."""
        return True
