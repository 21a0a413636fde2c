"""The private HiGHS binding equals ``linprog(method="highs")``.

The global policy's LP drives scipy's private ``_highspy`` bindings
directly (:func:`_solve_highs_direct`), replicating the model and the
options ``linprog`` would pass. A scipy upgrade could change either side
silently, so this module checks both ends of the contract:

* on random Eq. 1 instances the direct solve returns exactly
  ``linprog``'s vertex (bit-identical ``x``) at the same tolerances;
* with the binding disabled (the ``linprog`` fallback every other scipy
  takes) the golden runs reproduce the committed golden snapshot.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.balance import global_policy
from tests.policies.harness import collect_golden

GOLDEN = (Path(__file__).resolve().parent.parent / "policies"
          / "golden_default.json")

pytestmark = pytest.mark.skipif(global_policy._highs_core is None,
                                reason="scipy's private HiGHS binding is "
                                       "unavailable; linprog is used")

TIGHT = {"primal_feasibility_tolerance": 1e-9,
         "dual_feasibility_tolerance": 1e-9}


@st.composite
def eq1_instances(draw):
    """A random apprank/node graph with loads, capacities and speeds."""
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    num_appranks = draw(st.integers(min_value=1, max_value=8))
    home_of = {a: a % num_nodes for a in range(num_appranks)}
    edges = set()
    for a in range(num_appranks):
        edges.add((a, home_of[a]))
        extra = draw(st.sets(st.integers(0, num_nodes - 1), max_size=3))
        edges.update((a, n) for n in extra)
    work = {a: draw(st.floats(min_value=0.0, max_value=100.0))
            for a in range(num_appranks)}
    # every edge's worker keeps >= 1 core, so a node needs one per edge
    node_cores = {n: float(draw(st.integers(min_value=1, max_value=48))
                           + sum(1 for _a, m in edges if m == n))
                  for n in range(num_nodes)}
    node_speed = {n: draw(st.sampled_from([0.5, 0.75, 1.0, 1.25]))
                  for n in range(num_nodes)}
    penalty = draw(st.sampled_from([1e-6, 0.0, 0.1]))
    return (sorted(edges), list(range(num_appranks)), home_of, work,
            node_cores, node_speed, penalty)


def _capture_lp(instance, monkeypatch):
    """The (objective, A_ub, b_ub, bounds) ``_solve_lp`` hands HiGHS,
    and the direct path's answer."""
    seen = []
    direct = global_policy._solve_highs_direct

    def recording(*args):
        x = direct(*args)
        seen.append((args, x))
        return x

    monkeypatch.setattr(global_policy, "_solve_highs_direct", recording)
    global_policy._solve_lp(*instance)
    return seen


def _assert_direct_equals_linprog(instance):
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = _capture_lp(instance, monkeypatch)
    assert len(seen) == 1
    (objective, a_ub, b_ub, bounds), x = seen[0]
    result = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds,
                     method="highs", options=TIGHT)
    if x is None:       # the direct path declined; so must linprog's run
        assert not result.success
        return
    assert result.success
    assert np.array_equal(x, result.x), (x, result.x)


@settings(max_examples=60, deadline=None)
@given(instance=eq1_instances())
def test_direct_solve_equals_linprog(instance):
    _assert_direct_equals_linprog(instance)


@pytest.mark.parametrize("work", [1.2482662150091554e-92, 1e-10, 1e-9])
def test_tiny_positive_work_is_no_load_signal(work):
    """HiGHS drops coefficients at or below 1e-9, so loads that small
    must take the equal-split path instead of an unbounded LP."""
    instance = ([(0, 0)], [0], {0: 0}, {0: work}, {0: 2.0}, {0: 0.5}, 1e-6)
    assert global_policy._solve_lp(*instance) == {(0, 0): 2.0}
    _assert_direct_equals_linprog(instance)


def test_forced_fallback_matches_golden(monkeypatch):
    monkeypatch.setattr(global_policy, "_highs_core", None)
    want = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(collect_golden()))
    assert got == want
