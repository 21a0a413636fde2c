"""The ``jobs`` CLI target and its flag validation."""

import pytest

from repro import cli
from repro.jobs import clear_profile_cache


@pytest.fixture(autouse=True)
def _fresh_profiles():
    clear_profile_cache()
    yield
    clear_profile_cache()


class TestJobsCli:
    def test_acceptance_command_runs_clean(self, capsys):
        assert cli.main(["jobs", "--trace", "poisson:seed=1,rate=0.5,n=8",
                         "--realloc-policy", "gavel", "--check",
                         "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Multi-job run" in out
        assert "all cross-job invariants held" in out
        assert "mean slowdown" in out

    def test_default_policy_is_gavel(self, capsys):
        assert cli.main(["jobs", "--trace", "single:app=synthetic,nodes=2",
                         "--scale", "tiny"]) == 0
        assert "policy gavel" in capsys.readouterr().out

    def test_obs_flag_reports_instrumentation(self, capsys):
        assert cli.main(["jobs", "--trace", "bursty:seed=2,n=3,burst=3",
                         "--obs", "--scale", "tiny"]) == 0
        assert "# obs:" in capsys.readouterr().out

    def test_csv_output(self, tmp_path, capsys):
        assert cli.main(["jobs", "--trace", "single:app=nbody,nodes=1",
                         "--scale", "tiny", "--csv", str(tmp_path)]) == 0
        files = list(tmp_path.glob("jobs_*.csv"))
        assert len(files) == 1
        assert files[0].read_text().startswith("job,")

    def test_missing_trace_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["jobs"])

    def test_bad_trace_is_one_line_error(self, capsys):
        assert cli.main(["jobs", "--trace", "nope:x=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown trace generator" in err
        assert "Traceback" not in err

    def test_unknown_policy_is_one_line_error(self, capsys):
        assert cli.main(["jobs", "--trace", "single:app=synthetic,nodes=2",
                         "--realloc-policy", "fifo", "--scale",
                         "tiny"]) == 2
        assert "unknown reallocation policy" in capsys.readouterr().err

    def test_trace_flag_rejected_elsewhere(self):
        with pytest.raises(SystemExit):
            cli.main(["headline", "--trace", "poisson:seed=1,rate=1,n=2"])

    def test_realloc_flag_rejected_elsewhere(self):
        with pytest.raises(SystemExit):
            cli.main(["fig05", "--realloc-policy", "gavel"])

    def test_jobs_takes_no_experiment_name(self):
        with pytest.raises(SystemExit):
            cli.main(["jobs", "headline",
                      "--trace", "poisson:seed=1,rate=1,n=2"])


class TestMultijobFigureCli:
    def test_multijob_is_a_figure_target(self):
        assert "multijob" in cli.TARGETS

    def test_multijob_runs_at_tiny_scale(self, capsys, monkeypatch):
        from repro.experiments import fig_multijob
        from repro.experiments.base import TINY

        def tiny_run(scale):
            return fig_multijob.run(scale=TINY, loads=(0.5,), jobs=3)

        monkeypatch.setitem(cli.TARGETS, "multijob",
                            lambda scale, args: [tiny_run(scale)])
        assert cli.main(["multijob", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "slowdown/utilization vs load" in out
        for policy in ("local", "global", "gavel"):
            assert policy in out
