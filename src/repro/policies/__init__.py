"""The policy kernel: scheduling / LeWI / DROM decisions as pure strategies.

The paper's transparent load balancing composes independent decision
layers (§5.5 offload scheduling, §5.3 LeWI arbitration, §5.4 DROM
reallocation). This package extracts each decision from its mechanism
into a pure strategy behind an immutable snapshot view, keyed by name in
three registries:

* :data:`OFFLOAD_POLICIES` — where a ready task runs
  (:class:`OffloadPolicy`; ``RuntimeConfig.offload_policy``/``--policy``)
* :data:`LEND_POLICIES` — when idle cores are lent
  (:class:`LendPolicy`; ``RuntimeConfig.lend_policy``/``--lend-policy``)
* :data:`REALLOCATION_POLICIES` — DROM ownership targets
  (:class:`ClusterReallocationPolicy`/:class:`NodeReallocationPolicy`;
  ``RuntimeConfig.policy``)

Who a released core is offered to is not a policy: the arbiter applies
the paper's one LeWI order (owner, releaser, then others by backlog).
The registered defaults (``tentative``, ``eager``, ``global``/``local``)
reproduce the seed behaviour bit-identically —
see ``tests/policies/test_golden_parity.py`` and DESIGN.md §7 for the
purity contract and how to register a new policy.
"""

from __future__ import annotations

from typing import Any

from .base import (KEEP, QUEUE, Decision, NodeView, OffloadPolicy,
                   SchedulerView, TaskView)
from .lewi import EagerLend, HoardLend, LendPolicy, LendView, ReserveOneLend
from .offload import (BoundedWorkSharingOffload, LocalityWeightedOffload,
                      TentativeImmediateOffload)
from .reallocation import (AllocationView, ClusterReallocationPolicy,
                           GavelMaxThroughputReallocation,
                           GlobalLpReallocation, LocalProportionalReallocation,
                           NodeAllocationView, NodeReallocationPolicy)
from .registry import PolicyRegistry, register_entry_points

__all__ = [
    "KEEP",
    "QUEUE",
    "Decision",
    "TaskView",
    "NodeView",
    "SchedulerView",
    "OffloadPolicy",
    "TentativeImmediateOffload",
    "LocalityWeightedOffload",
    "BoundedWorkSharingOffload",
    "LendView",
    "LendPolicy",
    "EagerLend",
    "HoardLend",
    "ReserveOneLend",
    "AllocationView",
    "NodeAllocationView",
    "ClusterReallocationPolicy",
    "NodeReallocationPolicy",
    "GlobalLpReallocation",
    "LocalProportionalReallocation",
    "GavelMaxThroughputReallocation",
    "PolicyRegistry",
    "register_entry_points",
    "OFFLOAD_POLICIES",
    "LEND_POLICIES",
    "REALLOCATION_POLICIES",
    "available_policies",
    "load_entry_point_policies",
]

#: Registry of :class:`OffloadPolicy` subclasses (``--policy``).
OFFLOAD_POLICIES: PolicyRegistry[OffloadPolicy] = PolicyRegistry("offload")
#: Registry of :class:`LendPolicy` subclasses (``--lend-policy``).
LEND_POLICIES: PolicyRegistry[LendPolicy] = PolicyRegistry("lend")
#: Registry of reallocation strategies (``RuntimeConfig.policy``); holds
#: both cluster-wide and per-node strategies — the runtime dispatches on
#: the ABC the created instance derives from.
REALLOCATION_POLICIES: PolicyRegistry[object] = PolicyRegistry("reallocation")

OFFLOAD_POLICIES.register(TentativeImmediateOffload)
OFFLOAD_POLICIES.register(LocalityWeightedOffload)
OFFLOAD_POLICIES.register(BoundedWorkSharingOffload)
LEND_POLICIES.register(EagerLend)
LEND_POLICIES.register(HoardLend)
LEND_POLICIES.register(ReserveOneLend)
REALLOCATION_POLICIES.register(GlobalLpReallocation)
REALLOCATION_POLICIES.register(LocalProportionalReallocation)
REALLOCATION_POLICIES.register(GavelMaxThroughputReallocation)

#: every registry by kind, for listings and entry-point loading
_REGISTRIES: dict[str, PolicyRegistry[Any]] = {
    "offload": OFFLOAD_POLICIES,
    "lend": LEND_POLICIES,
    "reallocation": REALLOCATION_POLICIES,
}


def available_policies() -> dict[str, tuple[str, ...]]:
    """Registered policy names per kind (what ``repro policies`` prints)."""
    return {kind: registry.names()
            for kind, registry in _REGISTRIES.items()}


def load_entry_point_policies() -> int:
    """Register third-party policies from ``repro.<kind>_policies`` entry
    points across all three registries; returns how many were added."""
    return sum(register_entry_points(registry, f"repro.{kind}_policies")
               for kind, registry in _REGISTRIES.items())
