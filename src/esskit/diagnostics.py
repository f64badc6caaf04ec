"""Source positions and diagnostics shared by the parser, validator, and linter."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class SourceSpan:
    """1-based extent of a construct in a source file; end is inclusive."""

    file: str
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __post_init__(self) -> None:
        if (self.end_line, self.end_col) < (self.start_line, self.start_col):
            raise ValueError("span ends before it starts")

    def location(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


@dataclass(frozen=True)
class Diagnostic:
    """A single finding: a rule id, where it applies, and what went wrong.

    ``path`` is the dotted/slashed element path (empty for file-level
    findings such as syntax errors). ``hint`` carries the expected-token
    hint on parse errors.
    """

    rule: str
    severity: Severity
    path: str
    message: str
    span: SourceSpan | None = None
    hint: str | None = None

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render_line(self) -> str:
        """Line-oriented report form: ``RULE severity path: message (file:line:col)``."""
        head = f"{self.rule} {self.severity.value}"
        if self.path:
            head += f" {self.path}"
        line = f"{head}: {self.message}"
        if self.hint:
            line += f" (expected {self.hint})"
        if self.span is not None:
            line += f" ({self.span.location()})"
        return line

    def to_record(self) -> dict:
        record: dict = {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "message": self.message,
        }
        if self.hint is not None:
            record["hint"] = self.hint
        if self.span is not None:
            record["file"] = self.span.file
            record["line"] = self.span.start_line
            record["col"] = self.span.start_col
        return record


def _order_key(diagnostic: Diagnostic):
    span = diagnostic.span
    where = (0, span.file, span.start_line, span.start_col) if span else (1, "", 0, 0)
    return (*where, diagnostic.rule, diagnostic.path, diagnostic.message)


def ordered(diagnostics: Iterable[Diagnostic]) -> list[Diagnostic]:
    """``diagnostics`` in the one order every stage reports them in.

    Diagnostics with a span come first, by file name, line and column; those
    without follow. Ties break by rule, path and message.
    """
    return sorted(diagnostics, key=_order_key)


class DiagnosticError(Exception):
    """A pipeline stage failed; ``diagnostics`` explains why."""

    def __init__(self, diagnostics) -> None:
        self.diagnostics = tuple(diagnostics)
        summary = "; ".join(d.message for d in self.diagnostics[:3])
        if len(self.diagnostics) > 3:
            summary += f" (+{len(self.diagnostics) - 3} more)"
        super().__init__(summary or "unspecified diagnostic failure")


class ParseError(DiagnosticError):
    """Syntax or same-file duplicate-id errors; the document was not built."""


class ResolveError(DiagnosticError):
    """Reference resolution failed; the model cannot be used downstream."""
