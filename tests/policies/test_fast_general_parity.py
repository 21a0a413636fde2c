"""Differential: the default-policy fast paths equal the general path.

The scheduler and the DLB arbiter serve the default policies
(``tentative``, ``eager``, ``owner-first``) on inlined fast paths picked
by ``type(policy) is ...`` checks; every other policy goes through the
general path over immutable views. Attaching obs or the validator also
forces the general path, so the sanitizer never sees the fast paths a
plain run executes. This test closes that gap from the other side: it
registers behaviour-identical subclasses of the three defaults, which
the exact-type checks route through the general path, and demands
bit-identical run statistics and iteration maxima over random small
configurations.
"""

import json
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.micropp.workload import MicroppSpec, make_micropp_app
from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
from repro.cluster import MARENOSTRUM4
from repro.experiments.base import run_workload
from repro.nanos import RuntimeConfig
from repro.policies import (LEND_POLICIES, OFFLOAD_POLICIES,
                            RECLAIM_POLICIES, EagerLend, OwnerFirstReclaim)
from repro.policies.offload import TentativeImmediateOffload


class GeneralTentative(TentativeImmediateOffload):
    """``tentative`` decisions, served on the general path."""

    name = "tentative-general"


class GeneralEager(EagerLend):
    """``eager`` decisions, served on the general path."""

    name = "eager-general"


class GeneralOwnerFirst(OwnerFirstReclaim):
    """``owner-first`` decisions, served on the general path."""

    name = "owner-first-general"


SUBCLASSES = ((OFFLOAD_POLICIES, GeneralTentative),
              (LEND_POLICIES, GeneralEager),
              (RECLAIM_POLICIES, GeneralOwnerFirst))


@pytest.fixture(scope="module", autouse=True)
def general_policies():
    """Register the subclasses for this module only."""
    for registry, cls in SUBCLASSES:
        registry.register(cls)
    yield
    for registry, cls in SUBCLASSES:
        registry._classes.pop(cls.name)


def _run(app: str, appranks: int, degree: int, policy: str, seed: int,
         imbalance: float, general: frozenset) -> str:
    machine = MARENOSTRUM4.scaled(4)
    config = RuntimeConfig.offloading(
        degree, policy, local_period=0.02, global_period=0.2,
        offload_policy=("tentative-general" if "offload" in general
                        else "tentative"),
        lend_policy="eager-general" if "lend" in general else "eager",
        reclaim_policy=("owner-first-general" if "reclaim" in general
                        else "owner-first"))
    if app == "micropp":
        spec = MicroppSpec(num_appranks=appranks, cores_per_apprank=4,
                           subdomains_per_core=2, iterations=2, seed=seed)
        factory = partial(make_micropp_app, spec)
    else:
        spec = SyntheticSpec(num_appranks=appranks, imbalance=imbalance,
                             cores_per_apprank=4, tasks_per_core=3,
                             iterations=2, seed=seed)
        factory = partial(make_synthetic_app, spec)
    result = run_workload(machine, appranks, 1, config, factory)
    return json.dumps({"stats": result.runtime.stats(),
                       "maxima": [float(x) for x in result.iteration_maxima]},
                      sort_keys=True)


@settings(max_examples=20, deadline=None)
@given(app=st.sampled_from(["synthetic", "micropp"]),
       appranks=st.integers(min_value=2, max_value=4),
       degree=st.integers(min_value=1, max_value=3),
       policy=st.sampled_from(["global", "local"]),
       seed=st.integers(min_value=0, max_value=2**16),
       imbalance=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       general=st.sets(st.sampled_from(["offload", "lend", "reclaim"]),
                       min_size=1).map(frozenset))
def test_general_path_matches_fast_path(app, appranks, degree, policy, seed,
                                        imbalance, general):
    degree = min(degree, appranks)
    imbalance = min(imbalance, float(appranks))
    default = _run(app, appranks, degree, policy, seed, imbalance,
                   frozenset())
    assert _run(app, appranks, degree, policy, seed, imbalance,
                general) == default
