"""Smoke tests for the experiment modules at tiny scale.

These keep the experiments from rotting: every one must build, run, and
produce a well-formed report.  Population sizes are minimal, so numbers
here are meaningless — the recorded runs live in ``results/``.
"""

from repro.experiments import (
    ablations,
    fig5_biased_pss,
    fig6_key_sampling,
    fig7_rtt,
    fig8_group_bandwidth,
    fig9_tchord,
    table1_churn,
    table2_cpu,
)


def assert_report_ok(report, min_sections=1):
    assert report.sections and len(report.sections) >= min_sections
    text = report.render()
    assert text.startswith("===")
    assert len(text) > 100


class TestExperimentSmoke:
    def test_fig5(self):
        report = fig5_biased_pss.run(scale=0.1, pi_values=(0, 3), cycles=25)
        assert_report_ok(report, min_sections=2)

    def test_fig6(self):
        report = fig6_key_sampling.run(
            scale=0.1, warmup_cycles=8, window_cycles=8
        )
        assert_report_ok(report, min_sections=3)
        # Key sampling costs more than no key sampling: check one table.
        table = report.sections[0]
        unbiased = float(table.rows[0][1])
        with_keys = float(table.rows[1][1])
        assert with_keys > unbiased

    def test_table1(self):
        report = table1_churn.run(scale=0.12, rates=(0.0,), group_count=4)
        assert_report_ok(report)
        row = report.sections[0].rows[0]
        success = float(row[1].rstrip("%"))
        assert success > 90.0  # no churn: route construction nearly always works

    def test_fig7(self):
        report = fig7_rtt.run(scale=0.1, target_exchanges=60, group_count=4)
        assert_report_ok(report, min_sections=2)

    def test_table2(self):
        report = table2_cpu.run(scale=0.12, group_count=4, window_cycles=3)
        assert_report_ok(report)
        rows = report.sections[0].rows
        n_rsa = float(rows[0][2])
        p_rsa = float(rows[1][2])
        assert p_rsa > n_rsa  # P-nodes mix more

    def test_fig8(self):
        report = fig8_group_bandwidth.run(
            scale=0.15, memberships=(1, 4), window_cycles=2
        )
        assert_report_ok(report, min_sections=4)

    def test_fig9(self):
        report = fig9_tchord.run(scale=0.2, queries=40)
        assert_report_ok(report, min_sections=2)

    def test_ablation_path_length(self):
        report = ablations.run_path_length(
            scale=0.2, messages=20, mix_counts=(2, 3)
        )
        assert_report_ok(report)
        rows = report.sections[0].rows
        assert float(rows[1][3]) > float(rows[0][3])  # longer path, higher p50

    def test_ablation_session_leases(self):
        report = ablations.run_session_leases(scale=0.2, messages=40)
        assert_report_ok(report)

    def test_ablation_truncation(self):
        report = ablations.run_truncation_policy(scale=0.2)
        assert_report_ok(report)
