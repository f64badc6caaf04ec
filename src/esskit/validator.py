"""Reference resolution and well-formedness checking.

``resolve`` turns by-name references into element identities and fails with
V001 (dangling reference) or V002 (duplicate name within a kind, scoped the
same way ids are). ``check_wellformedness`` applies the structural rule
catalog V010-V018 to a resolved model and returns every violation; it never
raises. V018 reports the faults of the mapping pass in :mod:`esskit.togaf`.
Both are pure, so two runs over the same model produce identical diagnostic
lists, in the order of :func:`esskit.diagnostics.ordered`.

Area references are not subject to V001: the three areas of concern form a
closed enumeration the parser already enforces, so a dangling area is
unrepresentable.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, Record, ResolveError, Severity, ordered
from .model import (
    Activity,
    ActivitySpec,
    Alpha,
    AlphaState,
    Area,
    Competency,
    Method,
    ModelDocument,
    Practice,
    Role,
    Space,
    TogafPhase,
    WorkProduct,
    element_id,
    walk_element,
    walk_with_specs,
)

DANGLING_REFERENCE = "V001"
DUPLICATE_NAME = "V002"
PRACTICE_WITHOUT_GOAL = "V010"
NESTING_TOO_DEEP = "V011"
NESTING_CYCLE = "V012"
LEVEL_OUT_OF_RANGE = "V013"
MISSING_PART_TEXT = "V014"
AREA_MISMATCH = "V015"
ACTIVITY_WITHOUT_SPACE = "V016"
UNENACTABLE_METHOD = "V017"
MAPPING_FAULT = "V018"


class AreaProfile(Record):
    """Per-area element counts for one practice, and the winning area(s).

    Counts are the practice's top-level spaces (by effective area) plus one
    per activity competency requirement (by the competency's area). The
    plurality is the argmax set, empty when nothing was counted, which makes
    the modeler's declared-area choice auditable without overriding it.
    ``counts`` holds a copy of the mapping passed in, with every missing
    area at 0. Like every record a profile refuses assignment; its dict
    makes it unhashable.
    """

    counts: dict[Area, int] | None = None

    def __post_init__(self) -> None:
        counts = dict(self.counts or ())
        for area in Area:
            counts.setdefault(area, 0)
        self.__dict__["counts"] = counts

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def plurality(self) -> frozenset[Area]:
        if self.total == 0:
            return frozenset()
        best = max(self.counts.values())
        return frozenset(a for a, n in self.counts.items() if n == best)


class ResolvedModel:
    """A document whose cross-references all landed, plus lookup tables."""

    def __init__(self, document: ModelDocument) -> None:
        self.document = document
        # Kernel members and declarations are the walk's parentless entries;
        # the last of a name wins, in the name's first-seen slot.
        tables = {kind: {} for kind in (Alpha, Competency, Space, WorkProduct,
                                        Role, Practice)}
        for _, element, parent_id, _ in document.walk():
            if parent_id is None and type(element) in tables:
                tables[type(element)][element.name] = element
        self.alphas = tables[Alpha]
        self.competencies = tables[Competency]
        self.kernel_spaces = tables[Space]
        self.kernel_work_products = tables[WorkProduct]
        self.roles = tables[Role]
        self.practices = tables[Practice]


def resolve(document: ModelDocument) -> ResolvedModel:
    """Resolve every by-name reference, case-sensitively, document-wide.

    Raises :class:`ResolveError` carrying V001/V002 diagnostics when any
    reference dangles or any id is declared twice.
    """
    model = ResolvedModel(document)
    diagnostics: list[Diagnostic] = []

    for ident, first, second in document.id_collisions():
        first_at = first.span.location() if first.span else "an earlier declaration"
        diagnostics.append(Diagnostic(
            rule=DUPLICATE_NAME, severity=Severity.ERROR, path=ident,
            message=f"duplicate {second.kind} {second.name!r}; "
                    f"first declared at {first_at}",
            span=second.span))

    def dangling(path: str, span, kind: str, name: str) -> None:
        diagnostics.append(Diagnostic(
            rule=DANGLING_REFERENCE, severity=Severity.ERROR, path=path,
            message=f"reference to undeclared {kind} {name!r}", span=span))

    # The walk lists every activity after the practice or phase that owns it.
    local_wps: set[str] = set()
    for ident, element, parent_id, _ in walk_with_specs(document):
        if isinstance(element, AlphaState):
            seen: set[str] = set()
            for text in element.checklist:
                if text in seen:
                    diagnostics.append(Diagnostic(
                        rule=DUPLICATE_NAME, severity=Severity.ERROR, path=ident,
                        message=f"duplicate checklist item {text!r}",
                        span=element.span))
                seen.add(text)
        elif isinstance(element, Space):
            if (parent_id is None and element.parent is not None
                    and element.parent not in model.kernel_spaces):
                dangling(ident, element.span, "space", element.parent)
        elif isinstance(element, Role):
            for grade in element.competencies:
                if grade.competency not in model.competencies:
                    dangling(ident, element.span, "competency", grade.competency)
        elif isinstance(element, Practice):
            local_wps = {wp.name for wp in element.outputs}
        elif isinstance(element, Activity):
            for grade in element.requires:
                if grade.competency not in model.competencies:
                    dangling(ident, element.span, "competency", grade.competency)
            if element.role is not None and element.role not in model.roles:
                dangling(ident, element.span, "role", element.role)
            for contribution in element.produces:
                name = contribution.work_product
                if name not in local_wps and name not in model.kernel_work_products:
                    dangling(ident, element.span, "work product", name)
        elif isinstance(element, Method):
            for name in (element.preamble, *element.cycle, *element.concurrent):
                if name is not None and name not in model.practices:
                    dangling(ident, element.span, "practice", name)
        elif isinstance(element, TogafPhase):
            declared = {wp.name for wp in element.outputs}
        elif isinstance(element, ActivitySpec):
            for contribution in element.feeds:
                if contribution.work_product not in declared:
                    dangling(ident, element.span, "output", contribution.work_product)
            if element.role is not None and element.role not in model.roles:
                dangling(ident, element.span, "role", element.role)

    if any(d.is_error for d in diagnostics):
        raise ResolveError(ordered(diagnostics))
    return model


def compute_area_profile(model: ResolvedModel, practice: Practice) -> AreaProfile:
    """Element counts per area for one practice of a resolved model.

    A requirement of a competency the model does not declare counts in no
    area, so a model built without :func:`resolve` still gets a profile.
    """
    return _area_profile(model, practice, walk_element(practice))


def _area_profile(model: ResolvedModel, practice: Practice, walk) -> AreaProfile:
    """The profile over ``walk``, the practice's walk entries (it at depth 0)."""
    counts = dict.fromkeys(Area, 0)
    for _, element, _, depth in walk:
        if isinstance(element, Space) and depth == 1:
            counts[element.area or practice.area] += 1
        elif isinstance(element, Activity):
            for grade in element.requires:
                declared = model.competencies.get(grade.competency)
                if declared is not None:
                    counts[declared.area] += 1
    return AreaProfile(counts)


def check_wellformedness(model: ResolvedModel, *, max_depth: int = 3) -> list[Diagnostic]:
    """Every V010-V018 violation in the model (V018: :func:`esskit.togaf.mapping_faults`),
    ordered by source position (see :func:`esskit.diagnostics.ordered`); V011
    reports a space nested deeper than ``max_depth``, counting the root space as 1."""
    diagnostics: list[Diagnostic] = []

    def report(rule: str, severity: Severity, path: str, message: str, span) -> None:
        diagnostics.append(Diagnostic(rule=rule, severity=severity, path=path,
                                      message=message, span=span))

    _check_kernel_space_nesting(model, max_depth, report)

    # A parentless entry starts its own walk, which runs up to the next
    # parentless entry; V014 and V015 read each practice's walk after the pass.
    practices: list[tuple[str, Practice, list]] = []
    for entry in model.document.walk():
        ident, element, parent_id, depth = entry
        if parent_id is None:
            contents = []
        contents.append(entry)
        if isinstance(element, Competency):
            if not 1 <= element.max_level <= 5:
                report(LEVEL_OUT_OF_RANGE, Severity.ERROR, ident,
                       f"competency level bound {element.max_level} "
                       "is outside 1..5", element.span)
        elif isinstance(element, Role):
            for grade in element.competencies:
                bound = _level_bound(model, grade.competency)
                if not 1 <= grade.level <= bound:
                    report(LEVEL_OUT_OF_RANGE, Severity.ERROR, ident,
                           f"level {grade.level} for competency "
                           f"{grade.competency!r} is outside 1..{bound}", element.span)
        elif isinstance(element, Practice):
            if not element.goals:
                report(PRACTICE_WITHOUT_GOAL, Severity.ERROR, ident,
                       "practice declares no goal", element.span)
            if parent_id is None:
                practices.append((ident, element, contents))
        elif isinstance(element, Method):
            for message in element.shape_errors():
                report(UNENACTABLE_METHOD, Severity.ERROR, ident, message,
                       element.span)
        elif isinstance(element, TogafPhase):
            from .togaf import mapping_faults  # only input with a phase loads it
            diagnostics.extend(mapping_faults(element, model, max_depth=max_depth))
        # Kernel spaces have no parent here; they nest by name, checked above.
        elif isinstance(element, Space) and parent_id is not None:
            if depth > max_depth:
                report(NESTING_TOO_DEEP, Severity.ERROR, ident,
                       f"space nested at depth {depth} exceeds the maximum of "
                       f"{max_depth}", element.span)
        elif isinstance(element, Activity):
            if depth == 1:
                report(ACTIVITY_WITHOUT_SPACE, Severity.ERROR, ident,
                       f"activity {element.name!r} is attached to no activity "
                       "space", element.span)
            for grade in element.requires:
                bound = _level_bound(model, grade.competency)
                if not 1 <= grade.level <= bound:
                    report(LEVEL_OUT_OF_RANGE, Severity.ERROR, ident,
                           f"required level {grade.level} for "
                           f"{grade.competency!r} is outside 1..{bound}",
                           element.span)

    for ident, practice, contents in practices:
        _check_contribution_parts(practice, contents, report)
        profile = _area_profile(model, practice, contents)
        if profile.plurality and practice.area not in profile.plurality:
            leaders = ", ".join(sorted(a.value for a in profile.plurality))
            report(AREA_MISMATCH, Severity.WARNING, ident,
                   f"declared area {practice.area.value} but element counts "
                   f"favor {leaders}", practice.span)

    return ordered(diagnostics)


def _level_bound(model: ResolvedModel, competency: str) -> int:
    """The highest level a grade of ``competency`` may name: the competency's
    declared ``levels``, never more than 5."""
    declared = model.competencies.get(competency)
    return 5 if declared is None else min(declared.max_level, 5)


def _check_kernel_space_nesting(model: ResolvedModel, max_depth: int, report) -> None:
    spaces = model.kernel_spaces
    # A space's depth counts the spaces on its chain of parents that lie on
    # no cycle, itself included; a space on a cycle gets 0. Each space is on
    # one trail and gets its depth once, without recursion.
    depths: dict[str, int] = {}
    for name in spaces:
        trail: dict[str, int] = {}
        node = name
        while node in spaces and node not in depths and node not in trail:
            trail[node] = len(trail)
            node = spaces[node].parent
        chain = list(trail)
        if node in trail:
            depths.update(dict.fromkeys(chain[trail[node]:], 0))
            del chain[trail[node]:]
        depth = depths.get(node, 0)
        for member in reversed(chain):
            depth += 1
            depths[member] = depth

    for name, space in spaces.items():
        depth = depths[name]
        if depth == 0:
            report(NESTING_CYCLE, Severity.ERROR, element_id(space),
                   f"space {name!r} participates in a nesting cycle", space.span)
        elif depth > max_depth:
            report(NESTING_TOO_DEEP, Severity.ERROR, element_id(space),
                   f"space nested at depth {depth} exceeds the maximum of "
                   f"{max_depth}", space.span)


def _check_contribution_parts(practice: Practice, walk: list, report) -> None:
    contributions: dict[str, list[tuple[Activity, str | None]]] = {}
    for _, element, _, _ in walk:
        if isinstance(element, Activity):
            for contribution in element.produces:
                contributions.setdefault(contribution.work_product, []).append(
                    (element, contribution.part))
    # The walk lists a practice's outputs right after the practice.
    for wp_path, wp, _, _ in walk[1:len(practice.outputs) + 1]:
        feeders = contributions.get(wp.name, [])
        faults = _part_faults([part for _, part in feeders])
        if faults and not feeders[faults[0]][1]:
            report(MISSING_PART_TEXT, Severity.ERROR, wp_path,
                   f"work product {wp.name!r} has {len(feeders)} contributing "
                   "activities, so each contribution must name its part; "
                   "missing from: " + ", ".join(repr(feeders[i][0].name) for i in faults),
                   wp.span)
        elif faults:
            report(MISSING_PART_TEXT, Severity.ERROR, wp_path,
                   f"contributions to {wp.name!r} must be pairwise distinct",
                   wp.span)


def _part_faults(parts: list[str | None]) -> list[int]:
    """Where one output's contribution parts break V014's condition, which the
    mapper shares: two or more contributions each name a part, no two the same.
    The positions of the missing parts, or else of the repeated ones."""
    if len(parts) < 2:
        return []
    first: dict[str, int] = {}
    return ([i for i, part in enumerate(parts) if not part]
            or [i for i, part in enumerate(parts) if first.setdefault(part, i) != i])


def check(document: ModelDocument, *,
          max_depth: int = 3) -> tuple[ResolvedModel | None, list[Diagnostic]]:
    """Resolve then well-formedness-check; never raises.

    Returns the resolved model (None when resolution failed) and every
    diagnostic from both stages.
    """
    try:
        model = resolve(document)
    except ResolveError as failure:
        return None, list(failure.diagnostics)
    return model, check_wellformedness(model, max_depth=max_depth)
