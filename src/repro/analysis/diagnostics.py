"""Shared diagnostics model of the static IR verifier.

Every analysis pass reports findings as :class:`Diagnostic` records — a
stable rule id, a severity, the offending hop (id + opcode), a message,
and a fix hint — collected into a :class:`DiagnosticReport`.  The model
is deliberately backend- and pass-agnostic so that the harness
``--verify-ir`` gate, the EXPLAIN dump, the tracer sink, and tests all
consume the same records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:
    from repro.compiler.ir import Hop


class Severity(enum.IntEnum):
    """Diagnostic severity; ordered so severities can be compared."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass.

    ``hop`` is the id of the offending :class:`~repro.compiler.ir.Hop`
    (or lineage source) when the finding is attributable to a single
    node; structural findings (e.g. a cycle) may leave it ``None``.
    """

    rule: str  #: stable rule id, e.g. ``DAG003``.
    severity: Severity
    message: str
    hop: Optional[int] = None
    opcode: Optional[str] = None
    hint: Optional[str] = None  #: suggested fix, when one is known.

    def format(self) -> str:
        where = ""
        if self.hop is not None:
            where = f" at hop#{self.hop}"
            if self.opcode:
                where += f"({self.opcode})"
        elif self.opcode:
            where = f" at {self.opcode}"
        out = f"[{self.severity.label}] {self.rule}{where}: {self.message}"
        if self.hint:
            out += f"\n    hint: {self.hint}"
        return out


def diag(rule: str, severity: Severity, message: str,
         hop: Optional[Hop] = None,
         hint: Optional[str] = None) -> Diagnostic:
    """Build a diagnostic attributed to ``hop`` (id + opcode), if any."""
    return Diagnostic(
        rule=rule,
        severity=severity,
        message=message,
        hop=hop.id if hop is not None else None,
        opcode=hop.opcode if hop is not None else None,
        hint=hint,
    )


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with query helpers."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    def at_least(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= severity]

    def errors(self) -> list[Diagnostic]:
        return self.at_least(Severity.ERROR)

    def by_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def counts(self) -> dict[str, int]:
        """severity label -> number of diagnostics."""
        out: dict[str, int] = {}
        for diag in self.diagnostics:
            out[diag.severity.label] = out.get(diag.severity.label, 0) + 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        parts = [
            f"{counts[s.label]} {s.label}"
            for s in (Severity.ERROR, Severity.WARNING, Severity.INFO)
            if s.label in counts
        ]
        return ", ".join(parts) if parts else "clean"

    def format(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [d.format() for d in self.diagnostics
                 if d.severity >= min_severity]
        return "\n".join(lines)
