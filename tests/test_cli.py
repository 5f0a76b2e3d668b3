"""Tests for the experiments command-line runner."""

import pytest

from repro.experiments import soak
from repro.experiments.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert "scale100k" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure-42"])

    def test_runs_fig9_tiny(self, capsys):
        assert main(["fig9", "--scale", "0.15", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "T-Chord routing delays" in out
        assert "queries completed" in out

    def test_scale_flag_parsed(self, capsys):
        # The ablation runner accepts scale; tiny run must succeed.
        assert main(["ablation-policy", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "truncation policy" in out

    def test_scale100k_output_identical_at_any_lane_count(self, capsys):
        assert main(["scale100k", "--scale", "0.002"]) == 0
        one_lane = capsys.readouterr().out
        assert main(["scale100k", "--scale", "0.002", "--workers", "4"]) == 0
        assert capsys.readouterr().out == one_lane
        assert "trace_sha" in one_lane

    def test_missing_fault_plan_file_is_a_bad_plan(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-plan.json")
        assert main(["soak", "--fault-plan", missing]) == 1
        err = capsys.readouterr().err
        assert "soak: bad fault plan" in err
        assert "no-such-plan.json" in err

    def test_fault_plan_file_reads_script_lines(self, tmp_path, monkeypatch):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text(
            "from 3s to 6s loss 25%\n"
            "at 4s stall 5% for 2s\n"
            "at 6.5s rebind nat 10%\n"
        )
        seen = []

        def record_plan(n_nodes, seed, plan, trace_out):
            seen.append(plan)
            return soak.SoakResult(nodes=n_nodes)

        monkeypatch.setattr(soak, "run_soak", record_plan)
        assert main(["soak", "--nodes", "24", "--fault-plan", str(plan_file)]) == 0
        assert [list(plan) for plan in seen] == [list(soak.default_plan())]

    def test_churn_directive_in_fault_plan_exits_1(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text("from 3s to 6s loss 25%\nfrom 0s to 30s join 10\n")
        assert main(["soak", "--fault-plan", str(plan_file)]) == 1
        err = capsys.readouterr().err
        assert "soak: bad fault plan" in err
        assert "from 0s to 30s join 10" in err

    def test_other_os_errors_are_not_relabelled(self, monkeypatch):
        def bind_fails(scale=1.0):
            raise OSError("address already in use")

        monkeypatch.setitem(EXPERIMENTS, "soak", ("stub", bind_fails))
        with pytest.raises(OSError, match="address already in use"):
            main(["soak"])
