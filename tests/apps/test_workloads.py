"""Workload specs: synthetic (§6.2), MicroPP and n-body cost models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.micropp import MicroppSpec, nonlinear_fractions, subdomain_durations
from repro.apps.micropp import apprank_loads as micropp_loads
from repro.apps.nbody import NBodySpec, block_durations, rank_residual
from repro.apps.nbody import apprank_loads as nbody_loads
from repro.apps.synthetic import (SyntheticSpec, apprank_loads,
                                  emulated_durations, emulated_loads,
                                  task_durations)
from repro.errors import WorkloadError
from repro.metrics import imbalance


class TestSyntheticSpec:
    def test_paper_defaults(self):
        spec = SyntheticSpec(num_appranks=4, imbalance=2.0,
                             cores_per_apprank=48)
        assert spec.tasks_per_core == 100      # §6.2
        assert spec.mean_duration == pytest.approx(0.050)
        assert spec.tasks_per_apprank == 4800

    @pytest.mark.parametrize("target", [1.0, 1.3, 2.0, 3.0, 4.0])
    def test_imbalance_hit_exactly(self, target):
        spec = SyntheticSpec(num_appranks=8, imbalance=target,
                             cores_per_apprank=8)
        durations = task_durations(spec)
        assert durations.mean() == pytest.approx(spec.mean_duration)
        assert durations.max() / durations.mean() == pytest.approx(target)
        assert (durations >= 0).all()

    def test_worst_case_rank_duration(self):
        """'The execution time of the tasks on the worst-case rank is 50 ms
        multiplied by the target imbalance' (§6.2)."""
        spec = SyntheticSpec(num_appranks=4, imbalance=3.0,
                             cores_per_apprank=8)
        assert task_durations(spec).max() == pytest.approx(0.05 * 3.0)

    def test_single_apprank(self):
        spec = SyntheticSpec(num_appranks=1, imbalance=1.0,
                             cores_per_apprank=4)
        assert task_durations(spec) == pytest.approx([0.05])

    def test_maximum_imbalance_puts_all_work_on_one(self):
        """'The maximum possible value for the imbalance is the number of
        appranks' (§6.1)."""
        spec = SyntheticSpec(num_appranks=4, imbalance=4.0,
                             cores_per_apprank=4)
        durations = task_durations(spec)
        assert durations.max() == pytest.approx(0.2)
        assert sorted(durations)[:3] == pytest.approx([0.0, 0.0, 0.0])

    def test_imbalance_beyond_apprank_count_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticSpec(num_appranks=2, imbalance=3.0, cores_per_apprank=4)

    def test_imbalance_below_one_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticSpec(num_appranks=2, imbalance=0.5, cores_per_apprank=4)

    def test_determinism_per_seed(self):
        kwargs = dict(num_appranks=8, imbalance=2.0, cores_per_apprank=8)
        a = task_durations(SyntheticSpec(seed=1, **kwargs))
        b = task_durations(SyntheticSpec(seed=1, **kwargs))
        c = task_durations(SyntheticSpec(seed=2, **kwargs))
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)

    @given(st.integers(2, 16), st.floats(1.0, 4.0), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_constraints_hold_for_any_spec(self, appranks, target, seed):
        if target > appranks:
            target = float(appranks)
        spec = SyntheticSpec(num_appranks=appranks, imbalance=target,
                             cores_per_apprank=4, seed=seed)
        durations = task_durations(spec)
        assert durations.min() >= -1e-15
        assert durations.mean() == pytest.approx(spec.mean_duration)
        assert durations.max() == pytest.approx(spec.mean_duration * target)


class TestSyntheticSlowNode:
    def test_emulation_multiplies_slow_rank_only(self):
        spec = SyntheticSpec(num_appranks=4, imbalance=2.0,
                             cores_per_apprank=8, slow_rank=0,
                             slow_factor=3.0, slow_has="most")
        plain = task_durations(spec)
        emulated = emulated_durations(spec)
        assert emulated[0] == pytest.approx(3.0 * plain[0])
        np.testing.assert_allclose(emulated[1:], plain[1:])

    def test_slow_has_most_puts_max_on_slow_rank(self):
        spec = SyntheticSpec(num_appranks=4, imbalance=2.0,
                             cores_per_apprank=8, slow_rank=0,
                             slow_has="most")
        durations = task_durations(spec)
        assert durations[0] == durations.max()

    def test_slow_has_least_puts_min_on_slow_rank(self):
        spec = SyntheticSpec(num_appranks=4, imbalance=2.0,
                             cores_per_apprank=8, slow_rank=0,
                             slow_has="least")
        durations = task_durations(spec)
        assert durations[0] == durations.min()

    def test_loads_scale_with_tasks(self):
        spec = SyntheticSpec(num_appranks=2, imbalance=1.5,
                             cores_per_apprank=8, slow_rank=0)
        assert emulated_loads(spec)[0] == pytest.approx(
            emulated_durations(spec)[0] * spec.tasks_per_apprank)

    def test_invalid_slow_settings(self):
        with pytest.raises(WorkloadError):
            SyntheticSpec(num_appranks=2, imbalance=1.0, cores_per_apprank=4,
                          slow_rank=5)
        with pytest.raises(WorkloadError):
            SyntheticSpec(num_appranks=2, imbalance=1.0, cores_per_apprank=4,
                          slow_rank=0, slow_has="sideways")


def _reference_durations(spec):
    """The sequential sampler: one Dirichlet draw at a time until the
    shares fit under the worst rank, then the same placement."""
    a, mean = spec.num_appranks, spec.mean_duration
    if a == 1:
        return np.array([mean])
    worst = mean * spec.imbalance
    budget = a * mean - worst
    rest = a - 1
    rng = np.random.default_rng(spec.seed)
    for _ in range(1000):
        shares = rng.dirichlet(np.ones(rest)) * budget
        if np.all(shares <= worst + 1e-12):
            break
    else:
        shares = np.full(rest, budget / rest)
    durations = np.empty(a)
    if spec.slow_rank is None:
        worst_rank = 0
    elif spec.slow_has == "most":
        worst_rank = spec.slow_rank
    else:
        worst_rank = (spec.slow_rank + a // 2) % a
    others = [r for r in range(a) if r != worst_rank]
    durations[worst_rank] = worst
    durations[others] = shares
    if (spec.slow_rank is not None and spec.slow_has == "least"
            and spec.slow_rank != worst_rank):
        least = min(others, key=lambda r: durations[r])
        durations[[spec.slow_rank, least]] = durations[[least, spec.slow_rank]]
    return durations


_GRID_IMBALANCES = (1.0, 1.05, 1.2, 1.5, 2.0, 3.0, 4.0, 8.0)


class TestSyntheticGeneratorCache:
    @pytest.mark.parametrize("appranks", [1, 2, 3, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("slow_has", [None, "most", "least"])
    def test_equals_sequential_sampler_bit_for_bit(self, appranks, slow_has):
        slow_rank = {None: None, "most": 0, "least": appranks - 1}[slow_has]
        slow_has = slow_has or "most"
        branches = set()
        for imbalance in _GRID_IMBALANCES:
            if imbalance > appranks:
                continue
            for seed in (0, 1, 7, 1234):
                spec = SyntheticSpec(num_appranks=appranks,
                                     imbalance=imbalance,
                                     cores_per_apprank=4, seed=seed,
                                     slow_rank=slow_rank, slow_has=slow_has)
                want = _reference_durations(spec)
                want_emulated = want.copy()
                if slow_rank is not None:
                    want_emulated[slow_rank] *= spec.slow_factor
                np.testing.assert_array_equal(task_durations(spec), want)
                np.testing.assert_array_equal(emulated_durations(spec),
                                              want_emulated)
                branches.add(len(set(want.tolist())) <= 2)
        if appranks >= 32 and slow_rank is None:
            # the grid exercises both the accepted draw and the fallback
            assert branches == {True, False}

    def test_repeated_call_returns_the_same_frozen_array(self):
        spec = SyntheticSpec(num_appranks=8, imbalance=2.0,
                             cores_per_apprank=4, seed=99)
        first = task_durations(spec)
        assert task_durations(spec) is first
        assert task_durations(SyntheticSpec(num_appranks=8, imbalance=2.0,
                                            cores_per_apprank=4,
                                            seed=99)) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0
        assert emulated_durations(spec) is first      # no slow rank

    def test_emulated_copy_does_not_alias_the_cache(self):
        spec = SyntheticSpec(num_appranks=4, imbalance=2.0,
                             cores_per_apprank=4, slow_rank=1,
                             slow_factor=3.0, seed=5)
        plain = task_durations(spec)
        before = plain.copy()
        emulated = emulated_durations(spec)
        assert emulated.flags.writeable
        assert not np.shares_memory(emulated, plain)
        emulated[:] = -1.0
        np.testing.assert_array_equal(task_durations(spec), before)

    def test_least_swap_is_frozen_into_the_cache(self):
        spec = SyntheticSpec(num_appranks=6, imbalance=2.0,
                             cores_per_apprank=4, slow_rank=2,
                             slow_has="least", seed=3)
        first = task_durations(spec)
        assert first[2] == first.min()
        assert task_durations(spec) is first
        assert task_durations(spec)[2] == first.min()


class TestMicroppWorkload:
    def test_fractions_decrease_with_rank(self):
        spec = MicroppSpec(num_appranks=8, cores_per_apprank=8)
        fractions = nonlinear_fractions(spec)
        assert fractions[0] == pytest.approx(spec.max_nonlinear_fraction)
        assert fractions[-1] == pytest.approx(spec.min_nonlinear_fraction)
        assert np.all(np.diff(fractions) <= 0)

    def test_imbalance_in_paper_range(self):
        """The workload should show the apprank-level imbalance that makes
        the 46-47% reduction possible (roughly 1.6-2.3)."""
        for appranks in (4, 8, 32):
            spec = MicroppSpec(num_appranks=appranks, cores_per_apprank=16)
            value = imbalance(micropp_loads(spec))
            assert 1.5 < value < 2.5

    def test_durations_static_across_calls(self):
        spec = MicroppSpec(num_appranks=4, cores_per_apprank=8)
        np.testing.assert_array_equal(subdomain_durations(spec, 2),
                                      subdomain_durations(spec, 2))

    def test_nonlinear_tasks_cost_more(self):
        spec = MicroppSpec(num_appranks=2, cores_per_apprank=8)
        durations = subdomain_durations(spec, 0)
        assert durations.min() >= spec.linear_cost * 0.99
        assert durations.max() > spec.linear_cost * 2

    def test_rank_out_of_range(self):
        spec = MicroppSpec(num_appranks=2, cores_per_apprank=8)
        with pytest.raises(WorkloadError):
            subdomain_durations(spec, 2)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            MicroppSpec(num_appranks=0, cores_per_apprank=8)
        with pytest.raises(WorkloadError):
            MicroppSpec(num_appranks=2, cores_per_apprank=8,
                        max_nonlinear_fraction=0.2, min_nonlinear_fraction=0.5)


class TestNbodyWorkload:
    def test_sibling_residuals_anticorrelated(self):
        """ORB sibling partitions split the bisection error with opposite
        signs: their pair mean is much tighter than the individual values."""
        spec = NBodySpec(num_appranks=8, cores_per_apprank=8)
        for step in range(4):
            for pair in range(4):
                f0 = rank_residual(spec, 2 * pair, step)
                f1 = rank_residual(spec, 2 * pair + 1, step)
                pair_mean = (f0 + f1) / 2
                assert abs(pair_mean - 1.0) <= spec.rank_jitter / 3 + 1e-12
                assert f0 >= f1      # +d sibling listed first

    def test_loads_near_equal_overall(self):
        spec = NBodySpec(num_appranks=16, cores_per_apprank=8)
        loads = nbody_loads(spec)
        assert imbalance(loads) < 1.0 + spec.rank_jitter + spec.orb_jitter

    def test_residual_redrawn_each_step(self):
        spec = NBodySpec(num_appranks=4, cores_per_apprank=8)
        values = {rank_residual(spec, 0, step) for step in range(6)}
        assert len(values) > 1

    def test_block_durations_shape(self):
        spec = NBodySpec(num_appranks=2, cores_per_apprank=4,
                         bodies_per_apprank=512, bodies_per_task=64)
        durations = block_durations(spec, 0, 0)
        assert durations.shape == (8,)
        assert (durations > 0).all()

    def test_validation(self):
        with pytest.raises(WorkloadError):
            NBodySpec(num_appranks=2, cores_per_apprank=4,
                      bodies_per_apprank=32, bodies_per_task=64)
        with pytest.raises(WorkloadError):
            NBodySpec(num_appranks=2, cores_per_apprank=4, rank_jitter=1.5)
