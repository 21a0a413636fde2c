"""The ``campaign`` CLI target: end-to-end runs and one-line errors."""

from __future__ import annotations

import shlex
import types

import pytest

import repro.campaign
from repro import cli
from repro.cli import main

SMOKE = "app=synthetic;scale=tiny;nodes=2;degree=1,2;imbalance=1.5;seed=0..1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCampaignTarget:
    def test_end_to_end_and_resume(self, tmp_path, capsys):
        out = tmp_path / "camp"
        code, stdout, _ = run_cli(capsys, "campaign", "--grid", SMOKE,
                                  "--out", str(out), "--workers", "2")
        assert code == 0
        assert "# campaign:" in stdout
        assert "4 cells" in stdout
        assert (out / "results.csv").exists()
        assert (out / "report.json").exists()
        # resume: nothing recomputed
        code, stdout, _ = run_cli(capsys, "campaign", "--grid", SMOKE,
                                  "--out", str(out), "--workers", "2")
        assert code == 0
        assert "4 from journal, 0 computed" in stdout

    def test_preset_and_extra_csv(self, tmp_path, capsys):
        out = tmp_path / "camp"
        csv_dir = tmp_path / "csv"
        code, stdout, _ = run_cli(
            capsys, "campaign", "--grid", "@smoke", "--out", str(out),
            "--workers", "2", "--csv", str(csv_dir))
        assert code == 0
        assert (csv_dir / "campaign.csv").exists()
        assert ((csv_dir / "campaign.csv").read_bytes()
                == (out / "results.csv").read_bytes())


class TestResumeCommand:
    def test_resume_command_keeps_every_flag(self, monkeypatch, capsys):
        monkeypatch.setattr(repro.campaign, "run_campaign",
                            lambda *a, **kw: types.SimpleNamespace(
                                interrupted=True))
        argv = ["campaign", "--grid", SMOKE, "--out", "c", "--workers", "2",
                "--chaos", "--seed", "3", "--cell-timeout", "12",
                "--max-failures", "0", "--max-requeues", "4", "--check",
                "--csv", "csv-dir"]
        code, _, stderr = run_cli(capsys, *argv)
        assert code == 130
        command = shlex.split(stderr.splitlines()[-1].removeprefix("#"))
        assert command[:4] == ["python", "-m", "repro", "campaign"]
        parser = cli._build_parser()
        assert parser.parse_args(command[3:]) == parser.parse_args(argv)


class TestOneLineErrors:
    def test_missing_grid(self, capsys):
        code, _, stderr = run_cli(capsys, "campaign")
        assert code == 2
        assert stderr.count("\n") == 1
        assert "needs --grid" in stderr

    def test_unknown_preset(self, capsys):
        code, _, stderr = run_cli(capsys, "campaign", "--grid", "@nope")
        assert code == 2
        assert stderr.count("\n") == 1
        assert "'nope'" in stderr

    def test_bad_grid_names_token(self, capsys):
        code, _, stderr = run_cli(capsys, "campaign", "--grid",
                                  "warp_factor=9")
        assert code == 2
        assert stderr.count("\n") == 1
        assert "warp_factor" in stderr
        assert "Traceback" not in stderr

    def test_bad_fault_spec_in_grid(self, capsys):
        code, _, stderr = run_cli(capsys, "campaign", "--grid",
                                  "faults=meteor:t=1")
        assert code == 2
        assert stderr.count("\n") == 1
        assert "meteor" in stderr

    def test_bad_faults_flag_one_line(self, capsys):
        code, _, stderr = run_cli(capsys, "resilience", "--faults",
                                  "meteor:t=1")
        assert code == 2
        assert stderr.count("\n") == 1
        assert "meteor" in stderr
        assert "Traceback" not in stderr

    def test_campaign_flags_rejected_elsewhere(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["headline", "--grid", "nodes=2"])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err
