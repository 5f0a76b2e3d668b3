"""Tests for the experiments command-line runner."""

import pytest

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

    def test_other_os_errors_are_not_relabelled(self, monkeypatch):
        def bind_fails(scale=1.0):
            raise OSError("address already in use")

        monkeypatch.setitem(EXPERIMENTS, "soak", ("stub", bind_fails))
        with pytest.raises(OSError, match="address already in use"):
            main(["soak"])
