"""Tests for the text and SARIF reporters."""

import json

from repro.lint.diagnostics import (
    ADIOS_GAP,
    KRN_BOUNDS,
    KRN_RAND,
    LintReport,
)
from repro.lint.report import exit_code, render_text, to_sarif


def _report():
    report = LintReport()
    report.add(KRN_RAND, "kernel:k", "one RNG call")
    report.add(KRN_BOUNDS, "kernel:k", "offset +2 beyond halo",
               hint="widen the ghost region")
    report.add(ADIOS_GAP, "U/step0", "16 of 64 cells unwritten")
    report.record_fact("kernel:k.unique_loads", 14)
    return report


class TestRenderText:
    def test_sorted_by_severity_with_facts_and_verdict(self):
        text = render_text(_report(), title="demo")
        assert "demo" in text
        # errors sort above warnings above infos
        assert text.index("KRN-BOUNDS") < text.index("ADIOS-GAP")
        assert text.index("ADIOS-GAP") < text.index("KRN-RAND")
        assert "hint[KRN-BOUNDS]: widen the ghost region" in text
        assert "kernel:k.unique_loads = 14" in text
        assert "verdict: 1 info(s), 1 warning(s), 1 error(s)" in text

    def test_empty_report(self):
        text = render_text(LintReport(), title="demo")
        assert "no diagnostics" in text
        assert "verdict: clean" in text


class TestSarif:
    def test_shape_and_levels(self):
        doc = to_sarif(_report())
        json.dumps(doc)  # must be serializable
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == {"KRN-RAND", "KRN-BOUNDS", "ADIOS-GAP"}
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels == {
            "KRN-RAND": "note",
            "KRN-BOUNDS": "error",
            "ADIOS-GAP": "warning",
        }
        by_rule = {r["ruleId"]: r for r in run["results"]}
        location = by_rule["KRN-RAND"]["locations"][0]["logicalLocations"][0]
        assert location["fullyQualifiedName"] == "kernel:k"
        # results are sorted (rule, fingerprint, message): order-insensitive
        assert [r["ruleId"] for r in run["results"]] == sorted(
            r["ruleId"] for r in run["results"]
        )
        for result in run["results"]:
            fp = result["partialFingerprints"]["reproLint/v1"]
            assert len(fp) == 24 and int(fp, 16) >= 0

    def test_properties_carry_facts_and_counts(self):
        run = to_sarif(_report())["runs"][0]
        assert run["properties"]["facts"]["kernel:k.unique_loads"] == 14
        assert run["properties"]["counts"]["error"] == 1
        assert run["properties"]["clean"] is False


class TestExitCode:
    def test_errors_gate(self):
        assert exit_code(_report()) == 1

    def test_warnings_do_not_gate(self):
        report = LintReport()
        report.add(ADIOS_GAP, "U/step0", "gap")
        assert exit_code(report) == 0

    def test_clean(self):
        assert exit_code(LintReport()) == 0
