"""LeWI — Lend When Idle (paper §3.3, §5.3).

The mechanics live in :class:`repro.dlb.shmem.NodeArbiter`; this module
provides the module-level facade mirroring DLB's public API surface
(``DLB_Lend`` / ``DLB_Borrow`` / ``DLB_Reclaim``) plus cluster-wide
statistics. Runtime code calls the arbiter directly on the hot path; the
facade exists for explicit use by applications, tests and reporting.
"""

from __future__ import annotations

from ..cluster.node import WorkerKey
from ..errors import DlbError
from .shmem import NodeArbiter

__all__ = ["LewiModule"]


class LewiModule:
    """Cluster-wide view over the per-node LeWI state."""

    def __init__(self, arbiters: dict[int, NodeArbiter], enabled: bool = True) -> None:
        self.arbiters = arbiters
        self.enabled = enabled
        for arbiter in arbiters.values():
            arbiter.lewi_enabled = enabled

    def lend(self, worker_key: WorkerKey) -> int:
        """``DLB_Lend``: lend the worker's idle cores on its node."""
        if not self.enabled:
            return 0
        _apprank, node_id = worker_key
        return self._arbiter(node_id).lend_idle_cores(worker_key)

    def borrowable_cores(self, node_id: int) -> int:
        """``DLB_Borrow`` preflight: currently borrowable cores on a node."""
        if not self.enabled:
            return 0
        return self._arbiter(node_id).lent_idle_count()

    def _arbiter(self, node_id: int) -> NodeArbiter:
        try:
            return self.arbiters[node_id]
        except KeyError:
            raise DlbError(f"no arbiter for node {node_id}") from None

    # -- statistics -------------------------------------------------------

    @property
    def total_lends(self) -> int:
        return sum(a.lends for a in self.arbiters.values())

    @property
    def total_borrows(self) -> int:
        return sum(a.borrows for a in self.arbiters.values())

    @property
    def total_reclaims(self) -> int:
        return sum(a.reclaims for a in self.arbiters.values())

    def stats(self) -> dict[str, int]:
        """Cluster-wide lend/borrow/reclaim counters."""
        return {
            "lends": self.total_lends,
            "borrows": self.total_borrows,
            "reclaims": self.total_reclaims,
        }
