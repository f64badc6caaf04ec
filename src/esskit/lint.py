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

import re
from typing import Iterable

from .diagnostics import Diagnostic, Record, Severity, ordered
from .model import Activity, ModelDocument, Practice, Space, WorkProduct, element_id
from .validator import ResolvedModel

_WS = re.compile(r"\s+")


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
    return _WS.sub(" ", description).strip()


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

    if "L001" in active:
        _lint_unfed(document, report)
    if "L002" in active:
        _lint_multiply_defined(document, report)
    if "L003" in active:
        _lint_unassigned_roles(document, report)
    if "L004" in active:
        _lint_opaque_spaces(document, report)

    return ordered(found)


def _lint_unfed(document: ModelDocument, report) -> None:
    for practice in document.practices():
        practice_id = element_id(practice)
        produced = {c.work_product
                    for a in practice.all_activities() for c in a.produces}
        for wp in practice.outputs:
            if wp.name not in produced:
                report("L001", element_id(wp, practice_id),
                       f"output {wp.name!r} is not produced by any activity "
                       f"of practice {practice.name!r}", wp.span)


def _lint_multiply_defined(document: ModelDocument, report) -> None:
    by_name: dict[str, list[tuple[Practice, WorkProduct]]] = {}
    for practice in document.practices():
        for wp in practice.outputs:
            by_name.setdefault(wp.name, []).append((practice, wp))
    for name, declared in by_name.items():
        if len(declared) < 2:
            continue
        shapes = {(wp.category, _norm_description(wp.description))
                  for _, wp in declared}
        if len(shapes) < 2:
            continue
        places = ", ".join(repr(p.name) for p, _ in declared)
        for practice, wp in declared:
            report("L002", element_id(wp, element_id(practice)),
                   f"work product {name!r} is defined with conflicting "
                   f"requirements across practices {places}", wp.span)


def _lint_unassigned_roles(document: ModelDocument, report) -> None:
    assigned = {activity.role
                for practice in document.practices()
                for activity in practice.all_activities()
                if activity.role is not None}
    for role in document.roles():
        if role.name not in assigned:
            report("L003", element_id(role),
                   f"role {role.name!r} is never named responsible for any "
                   "activity", role.span)


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
