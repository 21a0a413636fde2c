"""The repro-experiments command-line interface."""

import pytest

from repro import cli
from repro.experiments import Scale

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
