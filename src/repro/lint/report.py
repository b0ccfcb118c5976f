"""Lint reporters: human text and SARIF-like JSON.

The JSON schema follows SARIF 2.1.0's shape (``runs[].tool.driver.
rules`` + ``runs[].results``) closely enough for SARIF-aware viewers,
with the repo's checked facts and severity counts attached under
``properties`` — the part SARIF reserves for tool-specific payloads.
"""

from __future__ import annotations

import hashlib

from repro._version import __version__
from repro.lint.diagnostics import (
    RULES,
    SARIF_LEVELS,
    Diagnostic,
    LintReport,
    Severity,
)


def stable_fingerprint(diag: Diagnostic) -> str:
    """A run-order-insensitive identity for one finding.

    Keyed on the rule, the logical location, and the diagnostic's
    canonical ``key`` (the affine access / subject in canonical form)
    — *not* on the message wording — so re-running the lint, reordering
    analyzers, or rewording a message template's prose keeps (or
    changes) fingerprints for the right reasons. Diffs across runs can
    match results on ``partialFingerprints`` alone.
    """
    subject = diag.key if diag.key else diag.message
    payload = f"{diag.rule}|{diag.location}|{subject}"
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:24]


def render_text(report: LintReport, *, title: str = "lint report") -> str:
    """The terminal rendering: diagnostics table + facts + verdict."""
    from repro.util.tables import Table

    lines = []
    if report.diagnostics:
        table = Table(["severity", "rule", "location", "message"], title=title)
        for diag in sorted(
            report.diagnostics, key=lambda d: (-d.severity, d.rule, d.location)
        ):
            table.add_row(
                [diag.severity.label, diag.rule, diag.location, diag.message]
            )
        lines.append(table.render())
        hints = [d for d in report.diagnostics if d.hint]
        if hints:
            lines.append("")
            lines.extend(
                f"  hint[{d.rule}]: {d.hint}"
                for d in sorted(hints, key=lambda d: (-d.severity, d.rule))
            )
    else:
        lines.append(f"{title}: no diagnostics")
    if report.facts:
        lines.append("")
        lines.append("checked facts:")
        lines.extend(
            f"  {key} = {value}" for key, value in sorted(report.facts.items())
        )
    counts = report.counts()
    lines.append("")
    lines.append(
        "verdict: "
        + (", ".join(f"{n} {label}(s)" for label, n in counts.items() if n)
           or "clean")
    )
    return "\n".join(lines)


def to_sarif(report: LintReport) -> dict:
    """A SARIF-2.1.0-shaped dict of the report."""
    used = {d.rule for d in report.diagnostics}
    rules = [
        {
            "id": rule.id,
            "shortDescription": {"text": rule.summary},
            "defaultConfiguration": {
                "level": SARIF_LEVELS[rule.severity],
            },
            "properties": {"layer": rule.layer},
        }
        for rule_id, rule in sorted(RULES.items())
        if rule_id in used
    ]
    # deterministic, run-order-insensitive result listing: sort by
    # (rule, fingerprint, message) so two runs that found the same
    # things produce byte-identical SARIF regardless of analyzer order
    ordered = sorted(
        report.diagnostics,
        key=lambda d: (d.rule, stable_fingerprint(d), d.message),
    )
    results = [
        {
            "ruleId": diag.rule,
            "level": SARIF_LEVELS[diag.severity],
            "message": {"text": diag.message},
            "locations": [
                {
                    "logicalLocations": [
                        {"fullyQualifiedName": diag.location}
                    ]
                }
            ],
            "partialFingerprints": {
                "reproLint/v1": stable_fingerprint(diag),
            },
            **({"properties": {"hint": diag.hint}} if diag.hint else {}),
        }
        for diag in ordered
    ]
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "version": __version__,
                        "rules": rules,
                    }
                },
                "results": results,
                "properties": {
                    "facts": dict(sorted(report.facts.items())),
                    "counts": report.counts(),
                    "clean": report.clean,
                },
            }
        ],
    }


def exit_code(report: LintReport) -> int:
    """CI-gating semantics: nonzero only on error-severity diagnostics."""
    return 1 if any(
        d.severity >= Severity.ERROR for d in report.diagnostics
    ) else 0
