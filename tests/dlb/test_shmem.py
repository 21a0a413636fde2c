"""NodeArbiter: acquisition, lending, borrowing, reclaim, DROM transfers."""

import pytest

from repro.cluster import Node
from repro.dlb import NodeArbiter
from repro.errors import DlbError
from repro.obs import Observability
from repro.policies import HoardLend
from repro.sim.engine import Simulator


class FakeWorker:
    """Minimal WorkerPort: a queue of task durations it pretends to run."""

    def __init__(self, key, ready=0):
        self.key = key
        self.ready = ready
        self.started_on = []

    def has_ready(self):
        return self.ready > 0

    def ready_count(self):
        return self.ready

    def start_next_on(self, core):
        if self.ready <= 0:
            return False
        self.ready -= 1
        core.start(self.key)
        self.started_on.append(core)
        return True


def make_arbiter(num_cores=4, lewi=True, workers=("a", "b"), **kwargs):
    node = Node(0, num_cores)
    arbiter = NodeArbiter(node, lewi_enabled=lewi, **kwargs)
    ports = {}
    for name in workers:
        port = FakeWorker((name, 0))
        arbiter.register_worker(port)
        ports[name] = port
    return node, arbiter, ports


class TestRegistration:
    def test_double_registration_rejected(self):
        _, arbiter, ports = make_arbiter()
        with pytest.raises(DlbError):
            arbiter.register_worker(ports["a"])

    def test_initialize_ownership(self):
        node, arbiter, _ = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        assert node.count_owned(("a", 0)) == 3
        assert node.count_owned(("b", 0)) == 1

    def test_initialize_requires_full_coverage(self):
        _, arbiter, _ = make_arbiter()
        with pytest.raises(DlbError):
            arbiter.initialize_ownership({("a", 0): 4})       # b missing
        with pytest.raises(DlbError):
            arbiter.initialize_ownership({("a", 0): 4, ("b", 0): 1})  # sum 5
        with pytest.raises(DlbError):
            arbiter.initialize_ownership({("a", 0): 4, ("b", 0): 0})  # floor

    def test_unknown_worker_rejected(self):
        _, arbiter, _ = make_arbiter()
        with pytest.raises(DlbError):
            arbiter.initialize_ownership({("a", 0): 3, ("zz", 0): 1})


class TestAcquire:
    def test_acquire_own_idle_core(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        core = arbiter.acquire_core(ports["a"])
        assert core.owner == ("a", 0)

    def test_acquire_unlends_own_core(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        arbiter.lend_idle_cores(("a", 0))
        core = arbiter.acquire_core(ports["a"])
        assert core.owner == ("a", 0)
        assert not core.lent

    def test_borrow_lent_core(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        # occupy all of b's cores, then lend a's idle cores
        arbiter.lend_idle_cores(("a", 0))
        ports["b"].ready = 1
        core = arbiter.acquire_core(ports["b"])
        if core.owner == ("b", 0):
            core.start(("b", 0))
            core2 = arbiter.acquire_core(ports["b"])
            assert core2.owner == ("a", 0)       # borrowed
        else:
            assert core.owner == ("a", 0)
        assert arbiter.borrows >= 1

    def test_no_borrow_when_lewi_disabled(self):
        node, arbiter, ports = make_arbiter(lewi=False)
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        assert arbiter.lend_idle_cores(("a", 0)) == 0
        # occupy b's one core
        core = arbiter.acquire_core(ports["b"])
        core.start(("b", 0))
        assert arbiter.acquire_core(ports["b"]) is None

    def test_no_core_when_all_busy(self):
        node, arbiter, ports = make_arbiter(num_cores=2)
        arbiter.initialize_ownership({("a", 0): 1, ("b", 0): 1})
        for c in node.cores:
            c.start(c.owner)
        assert arbiter.acquire_core(ports["a"]) is None


class TestRelease:
    def test_owner_reclaims_on_release(self):
        """LeWI reclaim: borrowed core goes back to its owner at the
        borrower's task boundary (§5.3: 'the lender may reclaim the cores
        as soon as they are needed again')."""
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        arbiter.lend_idle_cores(("a", 0))
        ports["b"].ready = 2
        core = None
        # b borrows one of a's lent cores
        for _ in range(2):
            candidate = arbiter.acquire_core(ports["b"])
            candidate.start(("b", 0))
            if candidate.owner == ("a", 0):
                core = candidate
        assert core is not None
        # now a has work again; b's task on the borrowed core finishes
        ports["a"].ready = 1
        core.stop(("b", 0))
        arbiter.release_core(core, ("b", 0))
        assert arbiter.reclaims == 1
        assert core.occupant == ("a", 0)         # a started on it

    def test_releaser_continues_when_owner_idle(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        arbiter.lend_idle_cores(("a", 0))
        ports["b"].ready = 3
        core = arbiter.acquire_core(ports["b"])
        while core.owner != ("a", 0):
            core.start(("b", 0))
            core = arbiter.acquire_core(ports["b"])
        core.start(("b", 0))
        core.stop(("b", 0))
        remaining = ports["b"].ready
        arbiter.release_core(core, ("b", 0))
        assert ports["b"].ready == remaining - 1  # b kept the borrowed core

    def test_idle_core_lent_when_owner_has_nothing(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        core = node.cores_owned_by(("a", 0))[0]
        core.start(("a", 0))
        core.stop(("a", 0))
        arbiter.release_core(core, ("a", 0))
        assert core.lent

    def test_release_busy_core_rejected(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        core = node.cores[0]
        core.start(core.owner)
        with pytest.raises(DlbError):
            arbiter.release_core(core, core.owner)


class TestGrantOrder:
    """The paper's one LeWI order for a released core: owner, releaser,
    then the other workers by ``(-ready_count, key)``."""

    def _released(self, ready, **kwargs):
        """Four workers owning one core each; b's task just finished on
        the core a owns. *ready* maps worker name to its ready backlog."""
        node, arbiter, ports = make_arbiter(
            workers=("a", "b", "c", "d"), **kwargs)
        arbiter.initialize_ownership({(w, 0): 1 for w in "abcd"})
        core = node.cores_owned_by(("a", 0))[0]
        core.start(("b", 0))
        core.stop(("b", 0))
        for name, count in ready.items():
            ports[name].ready = count
        arbiter.release_core(core, ("b", 0))
        return core, arbiter

    def test_owner_then_releaser_then_others(self):
        core, arbiter = self._released({"a": 1, "b": 1, "c": 5, "d": 2})
        assert core.occupant == ("a", 0)
        assert (arbiter.reclaims, arbiter.borrows) == (1, 0)
        core, arbiter = self._released({"b": 1, "c": 5, "d": 2})
        assert core.occupant == ("b", 0)
        assert (arbiter.reclaims, arbiter.borrows) == (0, 1)
        core, arbiter = self._released({"c": 5, "d": 2})
        assert core.occupant == ("c", 0)
        assert (arbiter.reclaims, arbiter.borrows) == (0, 1)

    def test_others_ranked_by_backlog_then_key(self):
        core, _ = self._released({"c": 2, "d": 9})
        assert core.occupant == ("d", 0)          # larger backlog first
        core, _ = self._released({"c": 2, "d": 2})
        assert core.occupant == ("c", 0)          # tie: smaller key first

    def test_owner_releasing_its_own_core_counts_no_reclaim(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        core = node.cores_owned_by(("a", 0))[0]
        core.start(("a", 0))
        core.stop(("a", 0))
        ports["a"].ready = 1
        ports["b"].ready = 1
        arbiter.release_core(core, ("a", 0))
        assert core.occupant == ("a", 0)
        assert (arbiter.reclaims, arbiter.borrows) == (0, 0)

    def test_nobody_ready_lends_the_core(self):
        core, arbiter = self._released({})
        assert core.occupant is None
        assert core.lent and arbiter.lends == 1

    def test_hoard_keeps_released_idle_core_unlent(self):
        core, arbiter = self._released({}, lend_policy=HoardLend())
        assert core.occupant is None
        assert not core.lent and arbiter.lends == 0

    def test_lewi_disabled_grants_owner_only(self):
        core, arbiter = self._released({"b": 1, "c": 5}, lewi=False)
        assert core.occupant is None and not core.lent
        assert arbiter.borrows == 0


class TestReleaseHooks:
    def test_obs_instants_equal_counters(self):
        obs = Observability(Simulator())
        node, arbiter, ports = make_arbiter(num_cores=2, obs=obs)
        arbiter.initialize_ownership({("a", 0): 1, ("b", 0): 1})
        arbiter.lend_idle_cores(("b", 0))                    # lend
        ports["a"].ready = 3
        arbiter.acquire_core(ports["a"]).start(("a", 0))
        borrowed = arbiter.acquire_core(ports["a"])          # borrow
        borrowed.start(("a", 0))
        ports["b"].ready = 1
        borrowed.stop(("a", 0))
        arbiter.release_core(borrowed, ("a", 0))             # reclaim
        borrowed.stop(("b", 0))
        ports["a"].ready = 1
        arbiter.release_core(borrowed, ("a", 0))             # borrow
        borrowed.stop(("a", 0))
        arbiter.release_core(borrowed, ("a", 0))             # lend
        instants = obs.bus.instants
        lent = sum(i.args["cores"] for i in instants if i.name == "lend")
        assert lent == arbiter.lends == 2
        assert (sum(1 for i in instants if i.name == "borrow")
                == arbiter.borrows == 2)
        assert (sum(1 for i in instants if i.name == "reclaim")
                == arbiter.reclaims == 1)

    def test_validator_checks_every_release(self):
        class CountingValidator:
            calls = 0

            def check_node(self, arbiter):
                self.calls += 1

        validator = CountingValidator()
        node, arbiter, ports = make_arbiter(validator=validator)
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        core = node.cores_owned_by(("a", 0))[0]
        core.start(("a", 0))
        core.stop(("a", 0))
        ports["a"].ready = 1
        arbiter.release_core(core, ("a", 0))      # the owner starts a task
        assert validator.calls == 2               # initialize + release
        core.stop(("a", 0))
        arbiter.release_core(core, ("a", 0))      # nobody ready: idle
        assert validator.calls == 3


class TestDrom:
    def test_idle_cores_move_immediately(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        moved = arbiter.set_ownership({("a", 0): 1, ("b", 0): 3})
        assert moved == 2
        assert node.count_owned(("b", 0)) == 3

    def test_busy_cores_transfer_at_task_boundary(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        for core in node.cores_owned_by(("a", 0)):
            core.start(("a", 0))
        arbiter.set_ownership({("a", 0): 1, ("b", 0): 3})
        # still owned by a while running
        assert node.count_owned(("a", 0)) == 3
        pending = [c for c in node.cores if c.pending_owner == ("b", 0)]
        assert len(pending) == 2
        core = pending[0]
        core.stop(("a", 0))
        arbiter.release_core(core, ("a", 0))
        assert core.owner == ("b", 0)

    def test_noop_change_moves_nothing(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        assert arbiter.set_ownership({("a", 0): 3, ("b", 0): 1}) == 0

    def test_ownership_change_callback_fires(self):
        calls = []
        node = Node(0, 4)
        arbiter = NodeArbiter(node, on_ownership_change=calls.append)
        a, b = FakeWorker(("a", 0)), FakeWorker(("b", 0))
        arbiter.register_worker(a)
        arbiter.register_worker(b)
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        arbiter.set_ownership({("a", 0): 2, ("b", 0): 2})
        assert calls == [0]

    def test_newly_owned_idle_cores_dispatched(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        ports["b"].ready = 3
        arbiter.set_ownership({("a", 0): 1, ("b", 0): 3})
        assert len(ports["b"].started_on) >= 2

    def test_minimum_one_core_enforced(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        with pytest.raises(DlbError):
            arbiter.set_ownership({("a", 0): 4, ("b", 0): 0})

    def test_counts_view(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        assert arbiter.ownership_counts() == {("a", 0): 3, ("b", 0): 1}


class TestAvailability:
    def test_available_idle_counts_own_and_lent(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        # nothing lent yet: only own idle cores are available
        assert arbiter.available_idle_count(("a", 0)) == 3
        assert arbiter.available_idle_count(("b", 0)) == 1
        arbiter.lend_idle_cores(("a", 0))
        assert arbiter.available_idle_count(("b", 0)) == 4

    def test_available_idle_excludes_busy(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        node.cores_owned_by(("a", 0))[0].start(("a", 0))
        assert arbiter.available_idle_count(("a", 0)) == 2

    def test_available_idle_without_lewi(self):
        node, arbiter, ports = make_arbiter(lewi=False)
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        node.cores_owned_by(("a", 0))[0].lent = True   # stale flag
        assert arbiter.available_idle_count(("b", 0)) == 1

    def test_effective_counts_track_pending_transfers(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        for core in node.cores_owned_by(("a", 0)):
            core.start(("a", 0))
        arbiter.set_ownership({("a", 0): 1, ("b", 0): 3})
        # actual ownership unchanged while tasks run...
        assert arbiter.ownership_counts() == {("a", 0): 3, ("b", 0): 1}
        # ...but the effective view reflects the pending transfers
        assert arbiter.effective_counts() == {("a", 0): 1, ("b", 0): 3}
