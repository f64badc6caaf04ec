"""Lint rules for method-description quality defects.

Four rules, all warnings: a lint-dirty model still exports and enacts.

    L001 unfed-deliverable      practice output no activity produces
    L002 multiply-defined       one work-product name, conflicting definitions
                                across practices (category or description)
    L003 unassigned-role        role no activity names as responsible
    L004 opaque-step            activity space with no goal and no activities

L002 compares the category plus the whitespace-collapsed (case-preserved)
description; absent descriptions compare equal to empty ones.
"""

from __future__ import annotations

from typing import Iterable

from .diagnostics import Diagnostic, Record, Severity, ordered
from .model import Activity, ModelDocument, Practice, Role, Space, WorkProduct
from .validator import ResolvedModel


class LintRule(Record):
    id: str
    name: str
    severity: Severity
    description: str


LINT_RULES: tuple[LintRule, ...] = (
    LintRule("L001", "unfed-deliverable", Severity.WARNING,
             "A practice declares an output that none of its activities "
             "produces, so the model never says where the deliverable "
             "comes from."),
    LintRule("L002", "multiply-defined-deliverable", Severity.WARNING,
             "The same work-product name is declared in two or more "
             "practices with a different category or description, leaving "
             "its real requirements ambiguous."),
    LintRule("L003", "unassigned-role", Severity.WARNING,
             "A role is declared, with graded competencies, but no activity "
             "names it as responsible; the definition is never used."),
    LintRule("L004", "opaque-step", Severity.WARNING,
             "An activity space states no goal and contains no activities, "
             "so what the work is about is left to guesswork."),
)

VALID_RULE_IDS = tuple(rule.id for rule in LINT_RULES)


class UnknownRuleError(ValueError):
    def __init__(self, unknown: Iterable[str]) -> None:
        bad = ", ".join(sorted(unknown))
        valid = ", ".join(VALID_RULE_IDS)
        super().__init__(f"unknown lint rule(s) {bad}; valid ids are {valid}")


def _norm_description(description: str | None) -> str:
    if description is None:
        return ""
    return " ".join(description.split())


def run_lints(model: ResolvedModel,
              enabled: Iterable[str] | None = None) -> list[Diagnostic]:
    """Run the enabled lint rules over a resolved model.

    Returns one diagnostic per (rule, offending element), ordered by source
    position (see :func:`esskit.diagnostics.ordered`). ``enabled`` defaults
    to the full catalog; an empty set runs nothing; unknown ids raise
    :class:`UnknownRuleError`.
    """
    if enabled is None:
        active = set(VALID_RULE_IDS)
    else:
        active = set(enabled)
        unknown = active - set(VALID_RULE_IDS)
        if unknown:
            raise UnknownRuleError(unknown)

    document = model.document
    found: list[Diagnostic] = []

    def report(rule: str, path: str, message: str, span) -> None:
        found.append(Diagnostic(rule=rule, severity=Severity.WARNING,
                                path=path, message=message, span=span))

    # A parentless practice owns the entries after it up to the next
    # parentless entry: its outputs, then its spaces and their activities.
    roles: list[tuple[str, Role]] = []
    # (practice, output id, output, what the practice's activities produce)
    outputs: list[tuple[Practice, str, WorkProduct, set[str]]] = []
    assigned: set[str | None] = set()
    practice = practice_id = produced = None
    for ident, element, parent_id, _ in document.walk():
        if parent_id is None:
            practice = practice_id = None
            if isinstance(element, Role):
                roles.append((ident, element))
            elif isinstance(element, Practice):
                practice, practice_id, produced = element, ident, set()
        elif isinstance(element, Activity) and practice is not None:
            assigned.add(element.role)
            produced.update(c.work_product for c in element.produces)
        elif isinstance(element, WorkProduct) and parent_id == practice_id:
            outputs.append((practice, ident, element, produced))

    if "L001" in active:
        for practice, ident, wp, produced in outputs:
            if wp.name not in produced:
                report("L001", ident,
                       f"output {wp.name!r} is not produced by any activity "
                       f"of practice {practice.name!r}", wp.span)
    if "L002" in active:
        by_name: dict[str, list[tuple[Practice, str, WorkProduct, set[str]]]] = {}
        for output in outputs:
            by_name.setdefault(output[2].name, []).append(output)
        for name, declared in by_name.items():
            if len({(wp.category, _norm_description(wp.description))
                    for _, _, wp, _ in declared}) < 2:
                continue
            places = ", ".join(repr(practice.name) for practice, _, _, _ in declared)
            for _, ident, wp, _ in declared:
                report("L002", ident,
                       f"work product {name!r} is defined with conflicting "
                       f"requirements across practices {places}", wp.span)
    if "L003" in active:
        for ident, role in roles:
            if role.name not in assigned:
                report("L003", ident,
                       f"role {role.name!r} is never named responsible for any "
                       "activity", role.span)
    if "L004" in active:
        _lint_opaque_spaces(document, report)

    return ordered(found)


def _lint_opaque_spaces(document: ModelDocument, report) -> None:
    # Reversed pre-order meets every child before its parent, so one pass
    # tells each space whether an activity lies below it. Sibling spaces may
    # share an id, but a node's children all come between it and the next
    # node with its id, so collecting by parent id is exact.
    holds_activity: set[str | None] = set()
    for ident, element, parent_id, _ in reversed(document.walk()):
        if isinstance(element, Activity) or ident in holds_activity:
            holds_activity.discard(ident)
            holds_activity.add(parent_id)
        elif isinstance(element, Space) and not element.goal:
            report("L004", ident,
                   f"space {element.name!r} has no goal and no activities",
                   element.span)
