import pytest

from repro.lint.diagnostics import (
    RULES,
    KRN_BOUNDS,
    KRN_RAND,
    MPI_DEADLOCK,
    LintReport,
    Severity,
    check_rule_ids,
)
from repro.observe.metrics import MetricsRegistry
from repro.util.errors import LintError


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_labels(self):
        assert Severity.ERROR.label == "error"

    def test_parse(self):
        assert Severity.parse("warning") is Severity.WARNING
        with pytest.raises(LintError):
            Severity.parse("fatal")


class TestRuleRegistry:
    def test_rules_have_layers_and_summaries(self):
        assert RULES  # non-empty
        for rule in RULES.values():
            assert rule.layer in ("gpu", "mpi", "adios", "core")
            assert rule.summary

    def test_check_rule_ids_accepts_known(self):
        assert check_rule_ids(["KRN-BOUNDS", "MPI-DEADLOCK"]) == (
            "KRN-BOUNDS", "MPI-DEADLOCK",
        )

    def test_check_rule_ids_rejects_unknown(self):
        with pytest.raises(LintError, match="unknown rule"):
            check_rule_ids(["KRN-BOUNDS", "NOPE"])


class TestLintReport:
    def _report(self):
        report = LintReport()
        report.add(KRN_BOUNDS, "kernel:k", "out of bounds", hint="fix it")
        report.add(KRN_RAND, "kernel:k", "rng call")
        report.add(MPI_DEADLOCK, "ranks [0, 1]", "cycle")
        report.record_fact("kernel:k.unique_loads", 14)
        return report

    def test_severities_follow_rule_defaults(self):
        report = self._report()
        assert [d.rule for d in report.errors] == ["KRN-BOUNDS", "MPI-DEADLOCK"]
        assert not report.clean

    def test_counts(self):
        assert self._report().counts() == {"info": 1, "warning": 0, "error": 2}

    def test_empty_report_is_clean(self):
        report = LintReport()
        assert report.clean

    def test_info_only_report_is_clean(self):
        report = LintReport()
        report.add(KRN_RAND, "kernel:k", "rng")
        assert report.clean

    def test_select_rules_keeps_facts(self):
        selected = self._report().select_rules(["MPI-DEADLOCK"])
        assert [d.rule for d in selected.diagnostics] == ["MPI-DEADLOCK"]
        assert selected.facts["kernel:k.unique_loads"] == 14

    def test_severity_override(self):
        report = LintReport()
        report.add(KRN_BOUNDS, "k", "demoted", severity=Severity.WARNING)
        assert report.warnings and not report.errors

    def test_render_mentions_rule_and_hint(self):
        diag = self._report().diagnostics[0]
        text = diag.render()
        assert "KRN-BOUNDS" in text and "hint: fix it" in text

    def test_to_metrics(self):
        registry = MetricsRegistry()
        self._report().to_metrics(registry)
        assert registry.counter_value("lint.diagnostics") == 3
        assert registry.counter_value("lint.diagnostics", severity="error") == 2
        assert registry.gauge("lint.errors").value == 2
