"""Global LP core-allocation policy (paper §5.4.2).

Every period (2 s in the paper) the policy gathers each apprank's measured
work — busy-core averages summed over its workers — and solves the linear
program of Eq. 1:

    minimise  max_a  (work_a / capacity_a)

recast as the LP ``maximise s`` subject to ``capacity_a >= s * work_a``,
where ``capacity_a = Σ_n speed_n * w_an * c_an`` over the apprank's graph
edges, every worker keeps at least one core, and each node's cores are not
oversubscribed. ``w_an`` applies the paper's offload disincentive: remote
cores count ``1/(1+1e-6)``, so the solver prefers home cores "no matter how
small" the incentive. The continuous optimum is rounded per node (largest
remainder) to integers that use every core.

The paper runs the solver as a separate CVXOPT process on node 0 taking
~57 ms at 32 nodes and growing ~quadratically; we reproduce that latency
model (measurements observed at the tick, allocation applied after the
gather+solve delay) with scipy's HiGHS as the backend.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np
from scipy.optimize import linprog

try:
    # Private HiGHS backend used by ``linprog(method="highs")``. The public
    # wrapper spends more time validating options and packaging marginals
    # than HiGHS spends solving our ~30-variable instances, so the hot
    # path drives highspy directly, replicating the exact model and option
    # assignments ``_linprog_highs``/``_highs_wrapper`` would make (see
    # ``_solve_highs_direct``). Any import failure (scipy relayout) simply
    # disables the fast path; ``linprog`` remains the behavioural oracle.
    import scipy.optimize._highspy._core as _highs_core
    from scipy.optimize._linprog_highs import kHighsInf
    from scipy.sparse import csc_array
except Exception:  # pragma: no cover - exercised only on other scipys
    _highs_core = None

from ..cluster.network import NetworkModel
from ..dlb.drom import DromModule
from ..errors import AllocationError, SolverFallbackWarning
from ..graph.bipartite import BipartiteGraph
from ..graph.placement import WorkerKey
from ..policies import (AllocationView, ClusterReallocationPolicy,
                        GlobalLpReallocation)
from ..sim.engine import Simulator
from ..sim.events import Event, EventPriority
from .load import MeterReader
from .rounding import round_allocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..nanos.worker import Worker

__all__ = ["GlobalLpPolicy", "solve_core_allocation",
           "solve_edge_allocation", "solve_partitioned_allocation"]

#: Paper measurement: 57 ms to solve the 32-node allocation problem.
_SOLVE_SECONDS_AT_32_NODES = 57e-3


#: Lazily-built ``HighsOptions`` shared by every direct solve: exactly the
#: assignments ``_highs_wrapper`` performs for ``linprog(method="highs")``
#: at our tight tolerances (``passOptions`` copies it into each solver
#: instance, so sharing one object across solves is safe).
_highs_options = None


def _direct_highs_options():
    global _highs_options
    if _highs_options is None:
        opts = _highs_core.HighsOptions()
        opts.presolve = "on"
        opts.highs_debug_level = 0          # kHighsDebugLevelNone
        opts.log_to_console = False
        opts.output_flag = False
        opts.primal_feasibility_tolerance = 1e-9
        opts.dual_feasibility_tolerance = 1e-9
        opts.simplex_strategy = \
            _highs_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        _highs_options = opts
    return _highs_options


def _solve_highs_direct(objective: np.ndarray, a_ub: np.ndarray,
                        b_ub: np.ndarray,
                        bounds: list) -> Optional[np.ndarray]:
    """Solve ``min c.x, A_ub x <= b_ub, bounds`` via HiGHS directly.

    Feeds HiGHS the identical model ``linprog(method="highs")`` would
    build for our problem shape (dense float A_ub, no equalities, finite
    rhs, tolerances of 1e-9): same CSC conversion, same ``-inf <= Ax <=
    b_ub`` row encoding, same option assignments — so the chosen vertex is
    bit-identical to the ``linprog`` call it replaces, while skipping the
    wrapper's per-call option validation and marginal extraction. Returns
    None when HiGHS does not reach optimality; the caller then re-solves
    through the public API, keeping its failure semantics (default-
    tolerance retry, then :class:`AllocationError`).
    """
    a_csc = csc_array(a_ub)
    num_rows, num_cols = a_ub.shape
    lp = _highs_core.HighsLp()
    lp.num_col_ = num_cols
    lp.num_row_ = num_rows
    lp.a_matrix_.num_col_ = num_cols
    lp.a_matrix_.num_row_ = num_rows
    lp.a_matrix_.format_ = _highs_core.MatrixFormat.kColwise
    lp.col_cost_ = objective
    lp.col_lower_ = np.array([lo for lo, _hi in bounds])
    lp.col_upper_ = np.array([kHighsInf if hi is None else hi
                              for _lo, hi in bounds])
    lp.row_lower_ = np.full_like(b_ub, -kHighsInf)  # -inf <= A x <= b_ub
    lp.row_upper_ = b_ub
    lp.a_matrix_.start_ = a_csc.indptr
    lp.a_matrix_.index_ = a_csc.indices
    lp.a_matrix_.value_ = a_csc.data
    highs = _highs_core._Highs()
    if highs.passOptions(_direct_highs_options()) == _highs_core.HighsStatus.kError:
        return None
    if highs.passModel(lp) == _highs_core.HighsStatus.kError:
        return None
    if highs.run() == _highs_core.HighsStatus.kError:
        return None
    if highs.getModelStatus() != _highs_core.HighsModelStatus.kOptimal:
        return None
    return np.array(highs.getSolution().col_value)


def _solve_lp(edges: list[WorkerKey], appranks: list[int],
              home_of: dict[int, int], work: dict[int, float],
              node_cores: dict[int, float], node_speed: dict[int, float],
              offload_penalty: float) -> dict[WorkerKey, float]:
    """Continuous Eq. 1 solve over an explicit edge list.

    Shared by the whole-cluster solve and the partitioned per-group solves.
    *node_cores* here is the capacity available to these edges (a group
    solve subtracts the floors reserved for cross-group helpers).
    """
    if not edges:
        return {}
    if all(work.get(a, 0.0) <= 1e-9 for a in appranks):
        # No load signal: the LP is unbounded in s. HiGHS drops matrix
        # coefficients at or below its small_matrix_value (1e-9), so tiny
        # positive loads count as none. Treat every apprank as equally
        # loaded, which yields the home-preferring equal split.
        work = {a: 1.0 for a in appranks}
    edge_index = {e: i for i, e in enumerate(edges)}
    edges_of_apprank: dict[int, list[WorkerKey]] = {a: [] for a in appranks}
    edges_of_node: dict[int, list[WorkerKey]] = {}
    for a, n in edges:
        edges_of_apprank[a].append((a, n))
        edges_of_node.setdefault(n, []).append((a, n))
    num_vars = 1 + len(edges)          # x[0] = s, x[1+i] = cores on edge i

    rows: list[np.ndarray] = []
    ubs: list[float] = []
    # Apprank capacity rows: s*work_a - sum(speed*weight*c_e) <= 0
    for a in appranks:
        row = np.zeros(num_vars)
        row[0] = work.get(a, 0.0)
        for a2, n in edges_of_apprank[a]:
            weight = 1.0 if n == home_of[a] else 1.0 / (1.0 + offload_penalty)
            row[1 + edge_index[(a2, n)]] = -node_speed[n] * weight
        rows.append(row)
        ubs.append(0.0)
    # Node capacity rows: sum(c_e on n) <= available cores
    for n, node_edges in edges_of_node.items():
        row = np.zeros(num_vars)
        for e in node_edges:
            row[1 + edge_index[e]] = 1.0
        rows.append(row)
        ubs.append(float(node_cores[n]))

    objective = np.zeros(num_vars)
    objective[0] = -1.0                # maximise s
    bounds = [(0.0, None)] + [(1.0, float(node_cores[n]))
                              for (_a, n) in edges]
    # The paper's home-core incentive is one part in 1e-6 — below HiGHS's
    # default optimality tolerances, which would leave the solver free to
    # stop at an anti-home vertex of the (near-)optimal face. Tightening
    # the tolerances makes the epsilon decisive, matching the paper's
    # observation that "the solver will tend to take it no matter how
    # small" (their CVXOPT interior-point solver resolves it natively).
    a_ub = np.vstack(rows)
    b_ub = np.asarray(ubs)
    x: Optional[np.ndarray] = None
    if _highs_core is not None:
        x = _solve_highs_direct(objective, a_ub, b_ub, bounds)
    if x is None:
        options = {"primal_feasibility_tolerance": 1e-9,
                   "dual_feasibility_tolerance": 1e-9}
        result = linprog(objective, A_ub=a_ub, b_ub=b_ub,
                         bounds=bounds, method="highs", options=options)
        if not result.success:
            # Large ill-conditioned instances can fail at the tight
            # tolerance; retry at HiGHS defaults — losing only the epsilon
            # tie-break, which matters for cosmetics (gratuitous remote
            # ownership), not balance.
            result = linprog(objective, A_ub=a_ub, b_ub=b_ub,
                             bounds=bounds, method="highs")
        if not result.success:
            raise AllocationError(
                f"core-allocation LP failed: {result.message}")
        x = result.x
    return {e: float(x[1 + edge_index[e]]) for e in edges}


def solve_edge_allocation(edges: list[WorkerKey],
                          home_of: dict[int, int],
                          work: dict[int, float],
                          node_cores: dict[int, int],
                          node_speed: dict[int, float],
                          offload_penalty: float = 1e-6
                          ) -> dict[int, dict[WorkerKey, int]]:
    """Eq. 1 over an explicit worker-edge list (dynamic-spreading path).

    Like :func:`solve_core_allocation` but without a fixed bipartite graph:
    the live worker set defines the adjacency, so helpers added at runtime
    join the allocation problem immediately.
    """
    appranks = sorted({a for a, _n in edges})
    nodes = sorted({n for _a, n in edges})
    continuous = _solve_lp(edges, appranks, home_of, work,
                           {n: float(node_cores[n]) for n in nodes},
                           node_speed, offload_penalty)
    allocation: dict[int, dict[WorkerKey, int]] = {}
    for n in nodes:
        node_values = {(a, nn): v for (a, nn), v in continuous.items()
                       if nn == n}
        allocation[n] = round_allocation(node_values, node_cores[n])
    return allocation


def solve_core_allocation(graph: BipartiteGraph,
                          work: dict[int, float],
                          node_cores: dict[int, int],
                          node_speed: dict[int, float],
                          offload_penalty: float = 1e-6
                          ) -> dict[int, dict[WorkerKey, int]]:
    """Solve Eq. 1 over the whole cluster and round: node → worker → cores.

    Pure function (no simulator state) so it can be tested and property-
    tested directly. *work* may contain zeros; appranks with zero work keep
    their one-core floors and the rest is shared by the loaded ones.
    """
    edges: list[WorkerKey] = [(a, n) for a, n in graph.edges()]
    appranks = list(range(graph.num_appranks))
    home_of = {a: graph.home_node(a) for a in appranks}
    continuous = _solve_lp(edges, appranks, home_of, work,
                           {n: float(c) for n, c in node_cores.items()},
                           node_speed, offload_penalty)
    allocation: dict[int, dict[WorkerKey, int]] = {}
    for n in range(graph.num_nodes):
        node_values = {(a, n): continuous[(a, n)]
                       for a in graph.appranks_on(n)}
        allocation[n] = round_allocation(node_values, node_cores[n])
    return allocation


def solve_partitioned_allocation(graph: BipartiteGraph,
                                 work: dict[int, float],
                                 node_cores: dict[int, int],
                                 node_speed: dict[int, float],
                                 offload_penalty: float = 1e-6,
                                 group_nodes: int = 32
                                 ) -> dict[int, dict[WorkerKey, int]]:
    """§5.4.2 scaling path: partition into node groups and solve per group.

    "Since the time to solve the linear program grows approximately
    quadratically with the size of the graph, larger graphs than 32 nodes
    should be partitioned and solved in parts." Each group solves Eq. 1
    over the appranks homed inside it and their intra-group edges; workers
    whose edge crosses a group boundary keep exactly the one-core DLB
    floor (reserved before the group solve). Groups are contiguous node
    ranges, matching how block-placed appranks cluster.
    """
    if group_nodes < 1:
        raise AllocationError("group_nodes must be >= 1")
    num_nodes = graph.num_nodes
    allocation: dict[int, dict[WorkerKey, int]] = {n: {} for n in range(num_nodes)}
    for start in range(0, num_nodes, group_nodes):
        group = set(range(start, min(start + group_nodes, num_nodes)))
        appranks = [a for a in range(graph.num_appranks)
                    if graph.home_node(a) in group]
        edges: list[WorkerKey] = []
        available: dict[int, float] = {}
        fixed: dict[int, dict[WorkerKey, float]] = {n: {} for n in group}
        for n in group:
            reserved = 0
            for a in graph.appranks_on(n):
                if graph.home_node(a) in group:
                    edges.append((a, n))
                else:
                    # cross-group helper: keep the DLB floor, nothing more
                    fixed[n][(a, n)] = 1.0
                    reserved += 1
            available[n] = float(node_cores[n] - reserved)
            if available[n] < 1:
                raise AllocationError(
                    f"node {n}: cross-group floors leave no capacity")
        home_of = {a: graph.home_node(a) for a in appranks}
        continuous = _solve_lp(edges, appranks, home_of, work, available,
                               node_speed, offload_penalty)
        for n in group:
            # Round only the in-group entries over the unreserved cores, so
            # cross-group helpers keep *exactly* their one-core floor.
            node_values = {(a, n): continuous[(a, n)]
                           for a in graph.appranks_on(n)
                           if graph.home_node(a) in group}
            counts = round_allocation(node_values, int(available[n]))
            counts.update({key: 1 for key in fixed[n]})
            allocation[n] = counts
    return allocation


class GlobalLpPolicy:
    """Periodic global solve applied through DROM."""

    def __init__(self, sim: Simulator, graph: BipartiteGraph,
                 drom: DromModule, workers: dict[WorkerKey, "Worker"],
                 node_cores: dict[int, int], node_speed: dict[int, float],
                 network: NetworkModel, period: float = 2.0,
                 offload_penalty: float = 1e-6,
                 model_solver_cost: bool = True,
                 smoothing: float = 0.4,
                 partition_nodes: Optional[int] = None,
                 strategy: Optional[ClusterReallocationPolicy] = None
                 ) -> None:
        if period <= 0:
            raise AllocationError("global policy period must be positive")
        if not 0 < smoothing <= 1:
            raise AllocationError("smoothing must be in (0, 1]")
        self.sim = sim
        self.graph = graph
        self.drom = drom
        self.workers = workers
        self.node_cores = node_cores
        self.node_speed = node_speed
        self.network = network
        self.period = period
        self.offload_penalty = offload_penalty
        self.model_solver_cost = model_solver_cost
        #: EMA coefficient for the per-tick work readings. Iteration-
        #: synchronised workloads alias the per-period busy averages (a rank
        #: that finished its iteration early reads ~0 in one window and its
        #: full load in the next); smoothing over a few periods recovers the
        #: stable estimate the paper's long windows provide, without which
        #: the allocation flip-flops every solve.
        self.smoothing = smoothing
        #: §5.4.2 scaling: solve in groups of at most this many nodes
        #: (None = one whole-cluster solve). The paper recommends 32.
        self.partition_nodes = partition_nodes
        #: what allocation each tick requests; the driver owns everything
        #: around the decision (EMA, latency model, fallback, DROM apply)
        self.strategy = strategy if strategy is not None \
            else GlobalLpReallocation()
        self._work_ema: Optional[dict[int, float]] = None
        self._readers = {key: MeterReader(w.meter, start_time=sim.now)
                         for key, w in workers.items()}
        self._event: Optional[Event] = None
        self.ticks = 0
        self.solves = 0
        #: fault injection: called before each solve; True = this solve
        #: fails (models a crashed/timed-out solver process)
        self.fault_hook: Optional[Callable[[], bool]] = None
        #: nodes that failed mid-run; they are excluded from applies and
        #: force the edge-based solve (the static graph still names them)
        self.dead_nodes: set[int] = set()
        self._last_good: Optional[dict[int, dict[WorkerKey, int]]] = None
        self.fallbacks = 0

    def start(self) -> None:
        """Arm the periodic solver tick."""
        self._event = self.sim.schedule(self.period, self._tick,
                                        priority=EventPriority.POLICY,
                                        label="global-policy-tick")

    def stop(self) -> None:
        """Cancel the pending tick (idempotent)."""
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    def solver_delay(self) -> float:
        """Gather latency + solve time (quadratic in nodes, §5.4.2)."""
        if not self.model_solver_cost:
            return 0.0
        nodes = self.graph.num_nodes
        gather = 2 * self.network.control_message_time() * max(
            1, math.ceil(math.log2(max(nodes, 2))))
        # Partitioned groups solve concurrently on multiple nodes
        # (§5.4.2), so the latency is one group's quadratic solve time.
        effective = nodes if self.partition_nodes is None else min(
            nodes, self.partition_nodes)
        solve = _SOLVE_SECONDS_AT_32_NODES * (effective / 32.0) ** 2
        return gather + solve

    def _tick(self) -> None:
        now = self.sim.now
        self.ticks += 1
        raw = {a: 0.0 for a in range(self.graph.num_appranks)}
        for key, reader in self._readers.items():
            apprank, _node = key
            raw[apprank] += reader.read(now)
        if self._work_ema is None:
            self._work_ema = dict(raw)
        else:
            alpha = self.smoothing
            self._work_ema = {a: alpha * raw[a] + (1 - alpha) * self._work_ema[a]
                              for a in raw}
        work = self._work_ema
        if sum(work.values()) > 1e-9:
            allocation = self._solve(work)
            if allocation is not None:
                delay = self.solver_delay()
                if delay > 0:
                    self.sim.schedule(delay, lambda: self._apply(allocation),
                                      priority=EventPriority.POLICY,
                                      label="global-policy-apply")
                else:
                    self._apply(allocation)
        self._event = self.sim.schedule(self.period, self._tick,
                                        priority=EventPriority.POLICY,
                                        label="global-policy-tick")

    def _solve(self, work: dict[int, float]
               ) -> Optional[dict[int, dict[WorkerKey, int]]]:
        """One Eq. 1 solve, degrading gracefully on failure.

        A failed or infeasible solve (possible once nodes vanish, or
        injected through :attr:`fault_hook`) falls back to the last
        feasible allocation — a logged degradation, not a crash. Returns
        None when there is nothing to fall back to yet.
        """
        try:
            if self.fault_hook is not None and self.fault_hook():
                raise AllocationError("injected solver failure")
            # Snapshot over the *live* worker set, so helpers added by
            # dynamic spreading join the problem immediately — and dead
            # workers drop out of it just as immediately.
            view = AllocationView(
                work=dict(work),
                node_cores=dict(self.node_cores),
                node_speed=dict(self.node_speed),
                offload_penalty=self.offload_penalty,
                edges=tuple(sorted(self.workers.keys())),
                home_of={a: self.graph.home_node(a)
                         for a in range(self.graph.num_appranks)},
                num_nodes=self.graph.num_nodes,
                partition_nodes=self.partition_nodes,
                dead_nodes=frozenset(self.dead_nodes),
                graph=self.graph)
            allocation = self.strategy.allocate(view)
        except AllocationError as exc:
            self.fallbacks += 1
            warnings.warn(
                f"global LP solve failed ({exc}); reusing last feasible "
                "allocation", SolverFallbackWarning, stacklevel=2)
            return self._last_good
        self.solves += 1
        self._last_good = allocation
        return allocation

    def _apply(self, allocation: dict[int, dict[WorkerKey, int]]) -> None:
        for node_id, counts in allocation.items():
            if node_id in self.dead_nodes:
                continue
            arbiter = self.drom.arbiters[node_id]
            if set(counts) != set(arbiter.workers):
                # Dynamic spreading added a worker between the solve and
                # this (solver-latency-delayed) apply; the stale map no
                # longer covers the node. Skip it — the next tick solves
                # over the grown worker set.
                continue
            self.drom.set_node_ownership(node_id, counts)

    def add_worker(self, worker: "Worker") -> None:
        """Dynamic spreading hook: a helper rank joined at runtime."""
        self.workers[worker.key] = worker
        self._readers[worker.key] = MeterReader(worker.meter,
                                                start_time=self.sim.now)

    def remove_worker(self, worker: "Worker") -> None:
        """Fault hook: a worker crashed; drop it from the problem."""
        self.workers.pop(worker.key, None)
        self._readers.pop(worker.key, None)

    def remove_node(self, node_id: int) -> None:
        """Fault hook: a whole node failed (its workers go separately)."""
        self.dead_nodes.add(node_id)
