"""Lend strategies: pure decisions + arbiter mechanism wiring.

The grant order of a released core is not a policy; its checks live with
the arbiter in ``tests/dlb/test_shmem.py``.
"""

from repro.policies import EagerLend, HoardLend, ReserveOneLend
from repro.policies.lewi import LendView

from tests.dlb.test_shmem import make_arbiter


def lend_view(idle=3):
    return LendView(node_id=0, worker_key=("a", 0), idle_owned_cores=idle)


class TestLendPolicies:
    def test_eager_lends_everything(self):
        assert EagerLend().lend_count(lend_view(idle=3)) == 3
        assert EagerLend().lend_released()

    def test_eager_releases_unless_owner_has_work(self):
        node, arbiter, ports = make_arbiter()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        core = node.cores_owned_by(("a", 0))[0]
        core.start(("a", 0))
        core.stop(("a", 0))
        ports["a"].ready = 1
        arbiter.release_core(core, ("a", 0))
        assert core.occupant == ("a", 0) and not core.lent
        core.stop(("a", 0))
        arbiter.release_core(core, ("a", 0))
        assert core.occupant is None and core.lent

    def test_hoard_never_lends(self):
        assert HoardLend().lend_count(lend_view(idle=3)) == 0
        assert not HoardLend().lend_released()

    def test_reserve_one_keeps_a_warm_core(self):
        assert ReserveOneLend().lend_count(lend_view(idle=3)) == 2
        assert ReserveOneLend().lend_count(lend_view(idle=1)) == 0
        assert ReserveOneLend().lend_count(lend_view(idle=0)) == 0
        assert ReserveOneLend().lend_released()


class TestArbiterUsesPolicies:
    def test_hoard_suppresses_voluntary_lending(self):
        _, eager_arbiter, _ = make_arbiter(num_cores=4)
        eager_arbiter.initialize_ownership({("a", 0): 2, ("b", 0): 2})
        assert eager_arbiter.lend_idle_cores(("a", 0)) == 2

        node, arbiter, ports = make_arbiter(num_cores=4)
        arbiter.lend_policy = HoardLend()
        arbiter.initialize_ownership({("a", 0): 2, ("b", 0): 2})
        assert arbiter.lend_idle_cores(("a", 0)) == 0
        assert arbiter.lends == 0

    def test_reserve_one_lends_all_but_one(self):
        _, arbiter, _ = make_arbiter(num_cores=4)
        arbiter.lend_policy = ReserveOneLend()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        assert arbiter.lend_idle_cores(("a", 0)) == 2

    def test_default_policy_names_exposed(self):
        _, arbiter, _ = make_arbiter()
        assert arbiter.lend_policy.name == "eager"
        assert not hasattr(arbiter, "reclaim_policy")
