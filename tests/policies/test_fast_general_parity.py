"""Differential: the scheduler's placement fast path equals the general path.

The scheduler serves the default offload policy (``tentative``) on an
inlined fast path picked by a ``type(policy) is ...`` check; every other
policy goes through the general path over immutable views. Obs and the
validator see both paths alike, so the sanitizer checks the fast path a
plain run executes; this test pins the other half, that the fast path
decides exactly as the policy would. It registers a behaviour-identical
subclass of ``tentative``, which the exact-type check routes through the
general path, and demands bit-identical run statistics and iteration
maxima over random small configurations.
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
from repro.policies import OFFLOAD_POLICIES
from repro.policies.offload import TentativeImmediateOffload


class GeneralTentative(TentativeImmediateOffload):
    """``tentative`` decisions, served on the general path."""

    name = "tentative-general"


@pytest.fixture(scope="module", autouse=True)
def general_policy():
    """Register the subclass for this module only."""
    OFFLOAD_POLICIES.register(GeneralTentative)
    yield
    OFFLOAD_POLICIES._classes.pop(GeneralTentative.name)


def _run(app: str, appranks: int, degree: int, policy: str, seed: int,
         imbalance: float, general: bool) -> str:
    machine = MARENOSTRUM4.scaled(4)
    config = RuntimeConfig.offloading(
        degree, policy, local_period=0.02, global_period=0.2,
        offload_policy="tentative-general" if general else "tentative")
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
       imbalance=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_general_path_matches_fast_path(app, appranks, degree, policy, seed,
                                        imbalance):
    degree = min(degree, appranks)
    imbalance = min(imbalance, float(appranks))
    default = _run(app, appranks, degree, policy, seed, imbalance, False)
    assert _run(app, appranks, degree, policy, seed, imbalance,
                True) == default
