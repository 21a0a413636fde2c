"""Validated full-stack runs: clean workloads pass, perturbation is zero.

The unit tests drive each invariant directly; these run the wired
``ClusterRuntime`` with ``config.validate`` on real workloads — including
one with live cross-task dependencies, so the differential oracle checks
actual dependency edges — and prove the sanitizer's passivity claim
against the golden-parity snapshot.
"""

import json

import pytest

from repro.apps.synthetic import SyntheticSpec, make_synthetic_app
from repro.cluster import MARENOSTRUM4
from repro.errors import ExperimentError
from repro.experiments.base import force_validation, run_workload
from repro.nanos import AccessType, DataAccess, RuntimeConfig
from repro.nanos.scheduler import AppRankScheduler
from repro.validate import CHECK_TARGETS, run_check
from tests.policies.harness import TINY, synthetic_snapshot


def chained_app(chains=4, depth=6, work=0.004):
    """SPMD main: *chains* independent INOUT chains of *depth* tasks.

    No taskwait between links, so successors register while their
    predecessors are still live — the oracle sees real dependency edges.
    """
    def main(comm, rt):
        for link in range(depth):
            for chain in range(chains):
                base = chain * 128
                rt.submit(work=work,
                          accesses=(DataAccess(AccessType.INOUT, base,
                                               base + 128),),
                          label=f"chain{chain}-{link}")
        yield from rt.taskwait()
        yield from comm.barrier()
        return {"iteration_times": [comm.sim.now]}
    return main


class TestValidatedRuns:
    def test_dependency_chains_pass_with_live_edges(self):
        machine = MARENOSTRUM4.scaled(8)
        config = TINY.tune(RuntimeConfig.offloading(2, "global"))
        with force_validation() as sanitizers:
            run_workload(machine, 4, 1, config, chained_app)
        (sanitizer,) = sanitizers
        assert sanitizer.finished
        summary = sanitizer.summary()
        assert summary["tasks"] == 4 * 4 * 6
        assert summary["oracle_edges"] > 0
        assert summary["oracle_regions"] > 0
        assert summary["dlb_checks"] > 0

    def test_synthetic_offloading_run_passes(self):
        machine = MARENOSTRUM4.scaled(8)
        spec = SyntheticSpec(num_appranks=4, imbalance=2.0,
                             cores_per_apprank=8, tasks_per_core=10,
                             iterations=3)
        config = TINY.tune(RuntimeConfig.offloading(4, "global"))
        with force_validation() as sanitizers:
            run_workload(machine, 4, 1, config,
                         lambda: make_synthetic_app(spec))
        (sanitizer,) = sanitizers
        assert sanitizer.summary()["placements"] > 0
        assert sanitizer.oracle_stats is not None

    def test_default_placement_fast_path_is_validated(self, monkeypatch):
        """A validated default run places tasks on the same fast path a
        plain run takes, and the sanitizer checks those placements."""
        entered = []
        fast = AppRankScheduler._place_fast

        def counting(self, task):
            entered.append(task)
            return fast(self, task)

        monkeypatch.setattr(AppRankScheduler, "_place_fast", counting)
        machine = MARENOSTRUM4.scaled(8)
        spec = SyntheticSpec(num_appranks=4, imbalance=2.0,
                             cores_per_apprank=8, tasks_per_core=10,
                             iterations=3)
        config = TINY.tune(RuntimeConfig.offloading(4, "global"))
        assert config.offload_policy == "tentative"
        result = run_workload(machine, 4, 1, config.with_(validate=True),
                              lambda: make_synthetic_app(spec))
        assert entered
        assert result.runtime.validator.placements_checked > 0

    def test_validation_is_zero_perturbation(self):
        plain = json.dumps(synthetic_snapshot(), sort_keys=True)
        validated = json.dumps(synthetic_snapshot(validate=True),
                               sort_keys=True)
        assert plain == validated

    def test_force_validation_does_not_nest(self):
        with force_validation():
            with pytest.raises(ExperimentError):
                with force_validation():
                    pass


class TestRunCheck:
    def test_unknown_target_rejected(self):
        with pytest.raises(ExperimentError):
            run_check("bogus")

    def test_faults_only_for_resilience(self):
        with pytest.raises(ExperimentError):
            run_check("headline", faults="msg:loss=0.01")

    def test_nbody_check_passes(self):
        report = run_check("nbody")
        assert report.target == "nbody"
        assert report.runs == 2
        assert report.checked["events"] > 0
        assert report.metamorphic
        assert "OK" in report.format()

    def test_targets_tuple_matches_cli_contract(self):
        assert CHECK_TARGETS == ("headline", "synthetic", "nbody",
                                 "resilience")


class TestCli:
    def test_check_target_runs_clean(self, capsys):
        from repro.cli import main
        assert main(["check", "nbody"]) == 0
        out = capsys.readouterr().out
        assert "check nbody" in out
        assert "OK" in out

    def test_check_flag_reports_summary(self, capsys):
        from repro.cli import main
        # fig05 at small scale is the cheapest multi-run ordinary target.
        assert main(["fig05", "--scale", "small", "--check"]) == 0
        out = capsys.readouterr().out
        assert "# check:" in out
        assert "all invariants held" in out

    def test_check_needs_a_known_experiment(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["check"])
        with pytest.raises(SystemExit):
            main(["check", "bogus"])
