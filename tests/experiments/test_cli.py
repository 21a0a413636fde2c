"""The repro-experiments command-line interface."""

import json

import pytest

from repro import cli
from repro.experiments import Scale, traced

# monkeypatch the scale registry so CLI tests stay fast
TINY = Scale(name="tiny", cores_per_node=8, tasks_per_core=5, iterations=2,
             micropp_subdomains_per_core=3, local_period=0.02,
             global_period=0.2)


@pytest.fixture(autouse=True)
def fast_scales(monkeypatch):
    monkeypatch.setitem(cli._SCALES, "small", TINY)


class TestCli:
    def test_single_figure(self, capsys):
        assert cli.main(["fig05", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "wall time" in out

    def test_headline(self, capsys):
        assert cli.main(["headline", "--scale", "small"]) == 0
        assert "MicroPP" in capsys.readouterr().out

    def test_csv_output(self, tmp_path, capsys):
        assert cli.main(["fig05", "--scale", "small",
                         "--csv", str(tmp_path)]) == 0
        files = list(tmp_path.glob("fig05_*.csv"))
        assert len(files) == 1
        header = files[0].read_text().splitlines()[0]
        assert header.startswith("policy,")

    def test_two_table_target_writes_two_csvs(self, tmp_path):
        assert cli.main(["fig06", "--scale", "small",
                         "--csv", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("fig06_*.csv"))) == 2

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["fig05", "--scale", "galactic"])


#: flags each target used to accept and then silently ignore
IGNORED_FLAGS = [
    ["fig05", "--seed", "9"],
    ["jobs", "--trace", "single:app=synthetic,nodes=2", "--seed", "9"],
    ["jobs", "--trace", "single:app=synthetic,nodes=2",
     "--policy", "locality"],
    ["check", "synthetic", "--csv", "d"],
    ["check", "synthetic", "--out", "f"],
    ["policies", "--scale", "paper"],
    ["policies", "--check"],
    ["campaign", "--grid", "@smoke", "--scale", "tiny"],
    ["campaign", "--grid", "@smoke",
     "--faults", "crash:apprank=0,node=1,t=0.5"],
    ["trace", "synthetic", "--csv", "d"],
    ["bench", "--policy", "locality"],
    ["bench", "--obs"],
    ["bench", "--csv", "d"],
]


@pytest.mark.parametrize("argv", IGNORED_FLAGS, ids=" ".join)
def test_flag_a_target_does_not_honour_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestPolicyKernelCli:
    def test_policies_listing(self, capsys):
        assert cli.main(["policies"]) == 0
        out = capsys.readouterr().out
        for kind in ("offload", "lend", "reallocation"):
            assert kind in out
        assert "reclaim" not in out     # the grant order is not a policy
        assert "tentative*" in out      # default marked

    def test_unknown_policy_one_line_error(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["headline", "--policy", "definitely-not-registered"])
        err = capsys.readouterr().err
        line = [ln for ln in err.splitlines() if "unknown offload" in ln]
        assert len(line) == 1
        assert "tentative" in line[0]   # lists registered names

    def test_unknown_lend_policy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["headline", "--lend-policy", "nope"])
        assert "eager" in capsys.readouterr().err

    def test_ablation_restricted_to_one_policy(self, tmp_path, capsys):
        assert cli.main(["ablation", "--scale", "small",
                         "--policy", "work-sharing",
                         "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "work-sharing" in out and "tentative" in out
        csv = next(tmp_path.glob("ablation_*.csv")).read_text()
        header, *rows = csv.strip().splitlines()
        assert header.startswith("policy,")
        assert [r.split(",")[0] for r in rows] == ["tentative",
                                                   "work-sharing"]

    def test_policy_override_applies_to_ordinary_target(self, capsys):
        assert cli.main(["fig05", "--scale", "small",
                         "--policy", "locality",
                         "--lend-policy", "reserve-one"]) == 0
        assert "Figure 5" in capsys.readouterr().out


class TestTraceTarget:
    def test_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert cli.main(["trace", "synthetic", "--scale", "small",
                         "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Critical path" in text
        assert "compute" in text and "imbalance" in text
        import json
        document = json.loads(out.read_text())
        cats = {e.get("cat") for e in document["traceEvents"]}
        assert {"task", "mpi", "dlb"} <= cats

    def test_check_leaves_the_trace_identical(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.nanos import task
        for name, extra in (("plain", []), ("checked", ["--check"])):
            # task ids come from a process-wide counter: start both alike
            monkeypatch.setattr(task, "_task_counter", 0)
            assert cli.main(["trace", "synthetic", "--scale", "small",
                             "--out", str(tmp_path / f"{name}.json"),
                             "--paraver", str(tmp_path / name),
                             *extra]) == 0
        assert "# check: 1 runs validated" in capsys.readouterr().out
        events = [json.loads((tmp_path / f"{name}.json").read_text())
                  ["traceEvents"] for name in ("plain", "checked")]
        assert events[0] == events[1]
        for suffix in (".prv", ".pcf", ".row"):
            assert ((tmp_path / f"plain{suffix}").read_bytes()
                    == (tmp_path / f"checked{suffix}").read_bytes())

    def test_policy_flags_reach_the_traced_run(self, monkeypatch):
        runs = []
        real_run = traced.run

        def recording_run(*args, **kwargs):
            runs.append(real_run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(traced, "run", recording_run)
        assert cli.main(["trace", "synthetic", "--scale", "small",
                         "--policy", "locality",
                         "--lend-policy", "hoard"]) == 0
        config = runs[0].result.runtime.config
        assert config.offload_policy == "locality"
        assert config.lend_policy == "hoard"

    @pytest.mark.parametrize("target", ["trace", "check"])
    def test_faults_need_the_resilience_experiment(self, target, capsys):
        code = cli.main([target, "synthetic", "--scale", "small",
                         "--faults", "crash:apprank=0,node=1,t=0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert "resilience" in err and "Traceback" not in err

    def test_trace_with_paraver_triple(self, tmp_path):
        base = tmp_path / "pt"
        assert cli.main(["trace", "synthetic", "--scale", "small",
                         "--paraver", str(base)]) == 0
        for suffix in (".prv", ".pcf", ".row"):
            assert base.with_suffix(suffix).exists()

    def test_trace_requires_experiment(self):
        with pytest.raises(SystemExit):
            cli.main(["trace"])

    def test_trace_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            cli.main(["trace", "fig05"])

    def test_out_rejected_outside_trace(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["fig05", "--out", str(tmp_path / "x.json")])

    def test_obs_flag_reports_instrumentation(self, capsys):
        assert cli.main(["fig05", "--scale", "small", "--obs"]) == 0
        out = capsys.readouterr().out
        assert "# obs:" in out
        assert "runs instrumented" in out

    def test_obs_rejected_with_trace(self):
        with pytest.raises(SystemExit):
            cli.main(["trace", "synthetic", "--obs"])
