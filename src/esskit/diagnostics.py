"""Source positions and diagnostics shared by the parser, validator, and linter."""

from __future__ import annotations

from enum import Enum
from typing import Iterable


class Record:
    """Base of esskit's value types: fields come from the class annotations.

    A subclass lists its fields as annotations, in order (read as strings,
    so its module must use ``from __future__ import annotations``); a class
    attribute gives a field its default, and ``ClassVar`` annotations are
    not fields. Each subclass gets an ``__init__`` taking the fields (it
    then calls ``__post_init__`` when the class defines one), ``__eq__`` and
    ``__hash__`` over the field tuple, and a ``__repr__`` listing it. Fields
    named in ``hidden`` are stored but left out of all three. Assigning or
    deleting an attribute raises :class:`AttributeError`; ``__post_init__``
    may store a derived field value in ``self.__dict__``, as ``__init__``
    does. A record holding a dict or list is not hashable.
    """

    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls, *, hidden: tuple[str, ...] = ()):
        super().__init_subclass__()
        names = [name for name, annotation in cls.__dict__.get("__annotations__", {}).items()
                 if not annotation.startswith("ClassVar")]
        cls._shown = tuple(name for name in names if name not in hidden)
        # One exec per class, with the attribute tuples written out: a loop
        # over the names at call time would make deep comparisons of model
        # trees several times slower. ``__init__`` stores the fields in the
        # instance dict, since ``__setattr__`` refuses; a dict store costs
        # about half an ``object.__setattr__`` call.
        scope = {}
        params = ["self"]
        lines = ["    _fields = self.__dict__"]
        for name in names:
            if name in cls.__dict__:
                scope[f"_default_{name}"] = cls.__dict__[name]
                params.append(f"{name}=_default_{name}")
            else:
                params.append(name)
            lines.append(f"    _fields[{name!r}] = {name}")
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        mine = "".join(f"self.{name}," for name in cls._shown)
        theirs = "".join(f"other.{name}," for name in cls._shown)
        exec("\n".join([
            f"def __init__({', '.join(params)}):", *lines,
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({mine}) == ({theirs})",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash(({mine}))",
        ]), scope)
        for method in ("__init__", "__eq__", "__hash__"):
            scope[method].__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, scope[method])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class SourceSpan(Record):
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


class Diagnostic(Record):
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
