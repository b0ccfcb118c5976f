"""The unified diagnostic model shared by every analyzer.

A :class:`Diagnostic` is one finding: a stable rule id, a severity, the
layer it came from (``gpu``, ``mpi``, ``adios``, ``core``), a logical
location (kernel name, rank, variable — there is no source file to
point at, the subjects are *plans* and *traces*), a human message, and
an optional fix hint. Analyzers append diagnostics to a shared
:class:`LintReport`, which also carries checked **facts** — invariants
the analyzers verified and recorded (e.g. the Gray-Scott kernel's
"14 unique loads / 2 stores" from the paper's Listing 4) so a clean
report still proves something.

Rule ids are registered in :data:`RULES` with their layer, default
severity, and a one-line summary; the registry drives ``--rules``
validation, the SARIF ``rules`` array, and ``docs/LINTING.md``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.util.errors import LintError


class Severity(enum.IntEnum):
    """Ordered severity; comparisons follow the int value."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[str(text).upper()]
        except KeyError:
            raise LintError(
                f"unknown severity {text!r}; expected info|warning|error"
            ) from None


#: SARIF result levels for each severity
SARIF_LEVELS = {
    Severity.INFO: "note",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
}


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    id: str
    layer: str
    severity: Severity
    summary: str


RULES: dict[str, Rule] = {}


def _rule(id: str, layer: str, severity: Severity, summary: str) -> Rule:
    rule = Rule(id=id, layer=layer, severity=severity, summary=summary)
    RULES[id] = rule
    return rule


# -- kernel-IR rules (repro.lint.kernels) -----------------------------------
KRN_BOUNDS = _rule(
    "KRN-BOUNDS", "gpu", Severity.ERROR,
    "stencil offset reaches outside the ghost region (out-of-bounds / halo overrun)",
)
KRN_GHOST_WRITE = _rule(
    "KRN-GHOST-WRITE", "gpu", Severity.WARNING,
    "store lands in the halo region; the next exchange will overwrite it",
)
KRN_RACE = _rule(
    "KRN-RACE", "gpu", Severity.ERROR,
    "two distinct workitems write the same output cell (write-write race)",
)
KRN_STRIDE = _rule(
    "KRN-STRIDE", "gpu", Severity.WARNING,
    "uncoalesced access: the contiguous axis is not covered unit-stride",
)
KRN_TYPE_MIX = _rule(
    "KRN-TYPE-MIX", "gpu", Severity.WARNING,
    "kernel mixes float32 and float64 arrays (hidden converts, like @code_warntype)",
)
KRN_INT_ESCAPE = _rule(
    "KRN-INT-ESCAPE", "gpu", Severity.WARNING,
    "traced integer escapes into floating-point dataflow (sitofp in the hot loop)",
)
KRN_RAND = _rule(
    "KRN-RAND", "gpu", Severity.INFO,
    "device RNG call in the kernel body (costs LDS/scratch on AMDGPU, Table 3)",
)
GPU_OCCUPANCY = _rule(
    "GPU-OCCUPANCY", "gpu", Severity.INFO,
    "backend codegen leaves CU wavefront slots empty (memory-bound kernels "
    "lose bandwidth below ~75% occupancy)",
)

# -- stencil-IR rules (repro.ir analyses, reported via repro.lint) ----------
IR_REDUNDANT_LOAD = _rule(
    "IR-REDUNDANT-LOAD", "gpu", Severity.WARNING,
    "a load reads an address already live in a register (redundant-load "
    "elimination would remove it)",
)
IR_DEAD_STORE = _rule(
    "IR-DEAD-STORE", "gpu", Severity.WARNING,
    "a store is overwritten before any possible read (dead-store "
    "elimination would remove it)",
)
IR_FUSION_MISSED = _rule(
    "IR-FUSION-MISSED", "gpu", Severity.INFO,
    "adjacent kernel launches re-load shared inputs; stencil fusion is "
    "legal and would eliminate the re-loads",
)
IR_CSE = _rule(
    "IR-CSE", "gpu", Severity.INFO,
    "floating-point subexpressions are computed more than once per cell "
    "(common-subexpression merge would cut flops)",
)

# -- MPI plan rules (repro.lint.mpiplan) ------------------------------------
MPI_DEADLOCK = _rule(
    "MPI-DEADLOCK", "mpi", Severity.ERROR,
    "blocking cycle: ranks wait on each other and no message can arrive",
)
MPI_UNMATCHED_SEND = _rule(
    "MPI-UNMATCHED-SEND", "mpi", Severity.ERROR,
    "send has no matching receive at the destination",
)
MPI_UNMATCHED_RECV = _rule(
    "MPI-UNMATCHED-RECV", "mpi", Severity.ERROR,
    "receive has no matching send from the source",
)
MPI_TAG_MISMATCH = _rule(
    "MPI-TAG-MISMATCH", "mpi", Severity.ERROR,
    "send/recv pair agrees on peers but not on tags",
)
MPI_DUP_MATCH = _rule(
    "MPI-DUP-MATCH", "mpi", Severity.ERROR,
    "more sends than receives on one (source, dest, tag) edge",
)
MPI_WILDCARD = _rule(
    "MPI-WILDCARD", "mpi", Severity.WARNING,
    "wildcard receive (ANY_SOURCE/ANY_TAG) makes matching nondeterministic",
)
MPI_COLLECTIVE_ORDER = _rule(
    "MPI-COLLECTIVE-ORDER", "mpi", Severity.ERROR,
    "ranks issue collectives in different orders (cross-rank collective mismatch)",
)

# -- ADIOS protocol rules (repro.lint.adiosproto) ---------------------------
ADIOS_PUT_OUTSIDE_STEP = _rule(
    "ADIOS-PUT-OUTSIDE-STEP", "adios", Severity.ERROR,
    "put() outside begin_step/end_step",
)
ADIOS_NESTED_BEGIN = _rule(
    "ADIOS-NESTED-BEGIN", "adios", Severity.ERROR,
    "begin_step while a step is already open",
)
ADIOS_END_UNOPENED = _rule(
    "ADIOS-END-UNOPENED", "adios", Severity.ERROR,
    "end_step without begin_step",
)
ADIOS_CLOSE_IN_STEP = _rule(
    "ADIOS-CLOSE-IN-STEP", "adios", Severity.ERROR,
    "close() inside an open step",
)
ADIOS_UNCLOSED_STEP = _rule(
    "ADIOS-UNCLOSED-STEP", "adios", Severity.WARNING,
    "writer program ends with a step still open",
)
ADIOS_STEP_SKEW = _rule(
    "ADIOS-STEP-SKEW", "adios", Severity.ERROR,
    "ranks complete different numbers of steps (collective mismatch)",
)
ADIOS_UNKNOWN_VAR = _rule(
    "ADIOS-UNKNOWN-VAR", "adios", Severity.ERROR,
    "put() of a variable with no declared global shape",
)
ADIOS_BAD_SELECTION = _rule(
    "ADIOS-BAD-SELECTION", "adios", Severity.ERROR,
    "block selection rank does not match the variable's global shape",
)
ADIOS_OOB_BLOCK = _rule(
    "ADIOS-OOB-BLOCK", "adios", Severity.ERROR,
    "block selection lies (partly) outside the global shape",
)
ADIOS_OVERLAP = _rule(
    "ADIOS-OVERLAP", "adios", Severity.ERROR,
    "two blocks of one step overlap; readback is writer-order dependent",
)
ADIOS_GAP = _rule(
    "ADIOS-GAP", "adios", Severity.WARNING,
    "step's blocks leave part of the global shape unwritten",
)


def check_rule_ids(rules) -> tuple[str, ...]:
    """Validate a rule-id selection; raises :class:`LintError` on typos."""
    chosen = tuple(rules)
    unknown = [r for r in chosen if r not in RULES]
    if unknown:
        raise LintError(
            f"unknown rule id(s) {unknown}; known: {sorted(RULES)}"
        )
    return chosen


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding."""

    rule: str
    severity: Severity
    layer: str
    location: str
    message: str
    hint: str = ""
    #: canonical fingerprint key: the finding's *subject* in a stable
    #: form (e.g. the affine access ``u[z + 2, y, x]``), independent of
    #: message wording — the SARIF ``partialFingerprints`` input. Empty
    #: means the message itself is the subject.
    key: str = ""

    def render(self) -> str:
        text = f"{self.severity.label}[{self.rule}] {self.location}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text


@dataclass
class LintReport:
    """Diagnostics plus checked facts, accumulated across analyzers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: invariants the analyzers verified while producing no diagnostic,
    #: e.g. ``kernel._kernel_gray_scott.unique_loads -> 14``
    facts: dict[str, object] = field(default_factory=dict)

    def add(
        self,
        rule: Rule,
        location: str,
        message: str,
        *,
        hint: str = "",
        severity: Severity | None = None,
        key: str = "",
    ) -> Diagnostic:
        diag = Diagnostic(
            rule=rule.id,
            severity=severity if severity is not None else rule.severity,
            layer=rule.layer,
            location=location,
            message=message,
            hint=hint,
            key=key,
        )
        self.diagnostics.append(diag)
        return diag

    def record_fact(self, key: str, value) -> None:
        self.facts[key] = value

    # -- queries ----------------------------------------------------------
    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def clean(self) -> bool:
        """No warnings and no errors (informational notes allowed)."""
        return not any(d.severity >= Severity.WARNING for d in self.diagnostics)

    def select_rules(self, rules) -> "LintReport":
        """A copy restricted to ``rules`` (facts are kept)."""
        chosen = set(check_rule_ids(rules))
        out = LintReport(facts=dict(self.facts))
        out.diagnostics = [d for d in self.diagnostics if d.rule in chosen]
        return out

    def counts(self) -> dict[str, int]:
        out = {s.label: 0 for s in Severity}
        for diag in self.diagnostics:
            out[diag.severity.label] += 1
        return out

    # -- observe integration ----------------------------------------------
    def to_metrics(self, registry) -> None:
        """Fold diagnostic counts into a metrics registry.

        One ``lint.diagnostics`` counter per (rule, severity, layer), so
        lint results ride alongside trace metrics in ``--metrics-out``.
        """
        for diag in self.diagnostics:
            registry.counter(
                "lint.diagnostics",
                rule=diag.rule,
                severity=diag.severity.label,
                layer=diag.layer,
            ).inc()
        registry.gauge("lint.errors").set(len(self.errors))
        registry.gauge("lint.warnings").set(len(self.warnings))
