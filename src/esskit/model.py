"""Essence element types, the document container, and the dotted-id scheme.

Every declarable element is a frozen :class:`~esskit.diagnostics.Record`;
a document is an ordered tuple of top-level declarations. Source spans ride
along for diagnostics but never participate in equality, hashing or
``repr``, so two parses of the same text compare equal regardless of origin.

Element identity is a lowercase dotted id derived from kind and slugged
name (``competency.governance``). Elements owned by a practice are
qualified by their containment path (``practice.phase_a/space.define_scope/
activity.define_the_breadth_of_coverage``), which doubles as the element
path in diagnostics.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from typing import ClassVar, Iterator, Union

from .diagnostics import Record, SourceSpan


class Area(Enum):
    """The three areas of concern; the name-to-color pairing is fixed."""

    CUSTOMER = "Customer"
    SOLUTION = "Solution"
    ENDEAVOR = "Endeavor"

    @property
    def color(self) -> str:
        return _AREA_COLORS[self]


_AREA_COLORS = {
    Area.CUSTOMER: "green",
    Area.SOLUTION: "yellow",
    Area.ENDEAVOR: "blue",
}


class WorkProductCategory(Enum):
    CATALOG = "catalog"
    MATRIX = "matrix"
    DIAGRAM = "diagram"
    OTHER = "other"


#: Competencies of the standard kernel; everything else is an extension.
KERNEL_COMPETENCIES = (
    "Stakeholder Representation",
    "Analysis",
    "Development",
    "Testing",
    "Leadership",
    "Management",
)

#: R6: the tags a togaf_phase activity spec accepts, and the competency each demands.
TAG_COMPETENCIES = {
    "acquires_information": "Stakeholder Representation",
    "understands_stakeholders": "Stakeholder Representation",
    "processes_requirements": "Stakeholder Representation",
    "endorses_requirements": "Analysis",
    "builds": "Development",
    "verifies": "Testing",
    "leads": "Leadership",
    "coordinates": "Management",
    "governs": "Governance",
}
ACTIVITY_TAGS = tuple(TAG_COMPETENCIES)

#: R1: every ADM phase id, and the name of the practice its phase maps to.
PHASE_PRACTICE_NAMES = {
    "P": "Preliminary",
    "A": "Phase A",
    "B": "Phase B",
    "C": "Phase C",
    "D": "Phase D",
    "E": "Phase E",
    "F": "Phase F",
    "G": "Phase G",
    "H": "Phase H",
    "RM": "Requirements Management",
}
PHASE_IDS = tuple(PHASE_PRACTICE_NAMES)

_SLUG_RE = re.compile(r"[^a-z0-9]+")
_ID_CHAR = re.compile(r"[a-z0-9]").search


def yields_id(name: str) -> bool:
    """Whether ``name`` yields an id: its lowercase form holds an ASCII letter or digit."""
    return _ID_CHAR(name.lower()) is not None


def checked_name(name: str) -> str:
    """``name``; TypeError if it is not a string, ValueError if it yields no id."""
    if not isinstance(name, str):
        raise TypeError(f"name {name!r} is not a string")
    if not yields_id(name):
        raise ValueError(f"cannot derive an identifier from name {name!r}")
    return name


# Every document walk and the exporters slug the same names; one perfbench
# ``projects`` operation (seed 1) slugs at most 485 distinct ones.
@lru_cache(maxsize=1024)
def slug(name: str) -> str:
    """Lowercase identifier fragment for a display name, in which runs of
    non-alphanumerics collapse to a single underscore; a name
    :func:`checked_name` refuses is refused on every call."""
    return _SLUG_RE.sub("_", checked_name(name).lower()).strip("_")


def dotted_id(kind: str, name: str, owner: str | None = None) -> str:
    """``kind.slug``, qualified as ``owner/kind.slug`` when an owner id is given."""
    return f"{owner}/{kind}.{slug(name)}" if owner else f"{kind}.{slug(name)}"


class AreaDecl(Record, hidden=("span",)):
    """A kernel's declaration that an area of concern is in play."""

    kind: ClassVar[str] = "area"
    area: Area
    span: SourceSpan | None = None

    @property
    def name(self) -> str:
        if not isinstance(self.area, Area):
            raise TypeError(f"area {self.area!r} is not an Area")
        return self.area.value


class AlphaState(Record, hidden=("span",)):
    kind: ClassVar[str] = "state"
    name: str
    checklist: tuple[str, ...]
    span: SourceSpan | None = None


class Alpha(Record, hidden=("span",)):
    """An essential thing to work with, progressing through ordered states."""

    kind: ClassVar[str] = "alpha"
    name: str
    area: Area
    states: tuple[AlphaState, ...]
    span: SourceSpan | None = None

    def item_keys(self) -> tuple[str, ...]:
        """Checklist keys '<state-index>.<item-index>', 1-based, in ladder order."""
        return tuple(f"{si}.{ci}" for si, state in enumerate(self.states, 1)
                     for ci in range(1, len(state.checklist) + 1))


class Competency(Record, hidden=("span",)):
    kind: ClassVar[str] = "competency"
    name: str
    area: Area
    max_level: int = 5
    span: SourceSpan | None = None

    @property
    def kernel_builtin(self) -> bool:
        return self.name in KERNEL_COMPETENCIES


class CompetencyGrade(Record):
    """A (competency, level) pair: required by an activity or held by a role."""

    competency: str
    level: int


class Contribution(Record):
    """An activity's contribution to a work product, optionally naming the part."""

    work_product: str
    part: str | None = None

    def rendered_name(self) -> str:
        if self.part is not None:
            return f"{self.work_product}: {self.part}"
        return self.work_product

    @classmethod
    def from_text(cls, text: str) -> "Contribution":
        """Split 'Name: part' at the first ': '; no separator means no part."""
        name, sep, part = text.partition(": ")
        if sep:
            return cls(work_product=name, part=part)
        return cls(work_product=text)


class WorkProduct(Record, hidden=("span",)):
    """A tangible output; doubles as a phase spec's output declaration."""

    kind: ClassVar[str] = "workproduct"
    name: str
    category: WorkProductCategory = WorkProductCategory.OTHER
    description: str | None = None
    span: SourceSpan | None = None


class Activity(Record, hidden=("span",)):
    """An atomic unit of work inside an activity space.

    ``requires``/``role`` reference competencies and roles by name;
    ``produces`` references work products in the owning practice's scope.
    ``tags`` is inert metadata the grammar allows on practice activities.
    """

    kind: ClassVar[str] = "activity"
    name: str
    requires: tuple[CompetencyGrade, ...] = ()
    produces: tuple[Contribution, ...] = ()
    role: str | None = None
    tags: tuple[str, ...] = ()
    span: SourceSpan | None = None


class Space(Record, hidden=("span",)):
    """An activity space.

    Declared at kernel level it carries an explicit area and an optional
    by-name ``parent``; inside a practice it is a tree node whose
    ``members`` interleave child spaces and activities in source order and
    whose area defaults to the practice's.
    """

    kind: ClassVar[str] = "space"
    name: str
    area: Area | None = None
    parent: str | None = None
    goal: str | None = None
    members: tuple[Union["Space", Activity], ...] = ()
    span: SourceSpan | None = None


class Practice(Record, hidden=("span",)):
    """A goal-bearing, repeatable way of doing work.

    ``members`` normally holds only spaces; a bare Activity at practice
    level is constructible programmatically and is exactly what
    well-formedness rule V016 rejects.
    """

    kind: ClassVar[str] = "practice"
    name: str
    area: Area
    goals: tuple[str, ...]
    inputs: tuple[str, ...] = ()
    outputs: tuple[WorkProduct, ...] = ()
    members: tuple[Space | Activity, ...] = ()
    span: SourceSpan | None = None


class Role(Record, hidden=("span",)):
    kind: ClassVar[str] = "role"
    name: str
    competencies: tuple[CompetencyGrade, ...]
    span: SourceSpan | None = None

    def level_for(self, competency: str) -> int | None:
        for grade in self.competencies:
            if grade.competency == competency:
                return grade.level
        return None


class Method(Record, hidden=("span",)):
    """A set of practices plus the shape of their enactment.

    ``preamble`` runs once before the first cycle; ``cycle`` repeats in
    order forever; ``concurrent`` practices are active alongside whatever
    is current. All references are practice names.
    """

    kind: ClassVar[str] = "method"
    name: str
    cycle: tuple[str, ...]
    preamble: str | None = None
    concurrent: tuple[str, ...] = ()
    span: SourceSpan | None = None

    def shape_errors(self) -> tuple[str, ...]:
        """Why the method cannot be enacted, one message per fault, sorted as
        ``check`` prints them (V017 lines differ only in message); empty if it can.

        The preamble runs once and concurrent practices are always on, so
        neither may sit in the cycle, and the preamble may not be concurrent.
        """
        errors = []
        if not self.cycle:
            errors.append(f"method {self.name!r} has an empty cycle")
        cycle = set(self.cycle)
        if self.preamble is not None and self.preamble in cycle:
            errors.append(f"method {self.name!r} lists preamble "
                          f"{self.preamble!r} inside the cycle")
        overlap = cycle & set(self.concurrent)
        if overlap:
            errors.append(f"method {self.name!r} lists concurrent practice(s) "
                          f"{', '.join(sorted(overlap))} inside the cycle")
        if self.preamble is not None and self.preamble in self.concurrent:
            errors.append(f"method {self.name!r} lists preamble "
                          f"{self.preamble!r} as concurrent")
        return tuple(sorted(errors))


class ActivitySpec(Record, hidden=("span",)):
    """An action inside a TOGAF step: either tagged (atomic) or decomposed."""

    kind: ClassVar[str] = "activity"
    name: str
    tags: tuple[str, ...] = ()
    feeds: tuple[Contribution, ...] = ()
    role: str | None = None
    sub_activities: tuple["ActivitySpec", ...] = ()
    span: SourceSpan | None = None


class StepSpec(Record, hidden=("span",)):
    kind: ClassVar[str] = "step"
    name: str
    goal: str | None = None
    activities: tuple[ActivitySpec, ...] = ()
    span: SourceSpan | None = None


class TogafPhase(Record, hidden=("span",)):
    """Structured input for one ADM phase: objective, steps, and outputs."""

    kind: ClassVar[str] = "phase"
    phase: str
    name: str
    objective: str
    steps: tuple[StepSpec, ...] = ()
    outputs: tuple[WorkProduct, ...] = ()
    span: SourceSpan | None = None


KernelMember = Union[AreaDecl, Alpha, Competency, Space, WorkProduct]


class Kernel(Record, hidden=("span",)):
    """A named grouping of kernel-level declarations."""

    kind: ClassVar[str] = "kernel"
    name: str
    members: tuple[KernelMember, ...] = ()
    span: SourceSpan | None = None


Declaration = Union[Kernel, Practice, Method, Role, TogafPhase]

Element = Union[
    Kernel, AreaDecl, Alpha, AlphaState, Competency, Space, WorkProduct,
    Activity, Practice, Role, Method, TogafPhase,
]


# The fields that hold each node type's contents, in walk order. Kernel members
# are document-level; a phase's steps are specs, which only walk_specs walks.
_CONTENTS = {
    Kernel: ("members",),
    Alpha: ("states",),
    Practice: ("outputs", "members"),
    Space: ("members",),
    TogafPhase: ("outputs",),
    StepSpec: ("activities",),
    ActivitySpec: ("sub_activities",),
}


def _walk(nodes, owner_id: str | None, depth: int):
    """Yield (id, node, owner id, depth) for ``nodes`` and their contents in
    pre-order, from an explicit stack, so nesting depth costs no recursion."""
    stack = [(node, owner_id, depth) for node in reversed(nodes)]
    while stack:
        node, owner_id, depth = stack.pop()
        own_id = element_id(node, owner_id)
        yield own_id, node, owner_id, depth
        fields = _CONTENTS.get(node.__class__)
        if fields:
            own_id, depth = (None, 0) if node.__class__ is Kernel else (own_id, depth + 1)
            for field in reversed(fields):
                stack += [(child, own_id, depth) for child in reversed(getattr(node, field))]


def walk_element(element) -> Iterator[tuple[str, Element, str | None, int]]:
    """Yield (id, element, parent id, depth) for a declaration and its contents.

    The order is pre-order. Kernel members are document-level: their ids
    carry no kernel prefix, their parent id is None and their depth is 0.
    Everything owned by a practice, space, alpha, or phase is qualified by
    the owner's id, and its depth is the number of owners in that id, so a
    practice's top-level spaces are at depth 1. Phases are identified by
    their letter, not their name.
    """
    return _walk((element,), None, 0)


def walk_specs(phase: TogafPhase) -> Iterator[tuple[str, StepSpec | ActivitySpec, str, int]]:
    """Yield (path, spec, parent path, depth) for a phase's steps and specs.

    The walk is :func:`walk_element`'s, begun at the steps: paths extend the
    phase id (``phase.a/step.define_scope/activity.engage``), steps are at
    depth 1 and a spec's depth is the length of its chain of names from the
    step down. Specs are not elements: they stay out of
    :meth:`ModelDocument.walk`, the id index and its collisions, so sibling
    specs may share a name and so a path.
    """
    return _walk(phase.steps, element_id(phase), 1)


def walk_with_specs(document: ModelDocument):
    """:meth:`ModelDocument.walk`, each phase followed by its :func:`walk_specs`."""
    for entry in document.walk():
        yield entry
        if entry[1].__class__ is TogafPhase:
            yield from walk_specs(entry[1])


def element_id(element, owner_id: str | None = None) -> str:
    if isinstance(element, TogafPhase):
        return dotted_id("phase", element.phase, owner_id)
    return dotted_id(element.kind, element.name, owner_id)


class ModelDocument:
    """Parsed declarations in source order with a document-wide id index.

    Immutable once built; equality compares the declaration tuples (spans
    excluded by the element records), so structural round-trip checks
    are plain ``==``.
    """

    def __init__(self, declarations=()):
        declarations = tuple(declarations)
        self._fill(declarations, tuple(entry for declaration in declarations
                                       for entry in walk_element(declaration)))

    def _fill(self, declarations: tuple, walk: tuple) -> None:
        """Set the declarations, their walk, and the id index built from it."""
        self.declarations: tuple[Declaration, ...] = declarations
        self._walk = walk
        index: dict[str, Element] = {}
        collisions: list[tuple[str, Element, Element]] = []
        for ident, element, _, _ in walk:
            if ident in index:
                collisions.append((ident, index[ident], element))
            else:
                index[ident] = element
        self._index = index
        self._collisions = tuple(collisions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelDocument):
            return NotImplemented
        return self.declarations == other.declarations

    def __hash__(self) -> int:
        return hash(self.declarations)

    def __repr__(self) -> str:
        return f"ModelDocument({len(self.declarations)} declarations)"

    def walk(self) -> tuple[tuple[str, Element, str | None, int], ...]:
        """Every element as (id, element, parent id, depth), in document order.

        Computed once at construction; see :func:`walk_element`.
        """
        return self._walk

    def id_collisions(self) -> tuple[tuple[str, Element, Element], ...]:
        """Duplicate ids, as (id, first element, later element) triples."""
        return self._collisions

    def lookup(self, ident: str) -> Element | None:
        """The element with that id, or None; absence is a value, not an error."""
        return self._index.get(ident)

    def iter_elements(self, kind: str) -> tuple[Element, ...]:
        """All elements of one kind in declaration order."""
        return tuple(e for _, e, _, _ in self._walk if getattr(e, "kind", None) == kind)

    # Convenience accessors over top-level declarations.

    def methods(self) -> tuple[Method, ...]:
        return tuple(d for d in self.declarations if isinstance(d, Method))

    def phases(self) -> tuple[TogafPhase, ...]:
        return tuple(d for d in self.declarations if isinstance(d, TogafPhase))


def merge(*documents: ModelDocument) -> ModelDocument:
    """One document holding every input's declarations, in input order.

    A declaration's walk does not depend on the other declarations, so the
    merged walk is the inputs' walks joined; only the id index is rebuilt,
    and ids that two inputs share are its collisions.
    """
    merged = ModelDocument.__new__(ModelDocument)
    merged._fill(tuple(d for document in documents for d in document.declarations),
                 tuple(e for document in documents for e in document._walk))
    return merged


def lookup(document: ModelDocument, ident: str) -> Element | None:
    return document.lookup(ident)


def iter_elements(document: ModelDocument, kind: str) -> tuple[Element, ...]:
    return document.iter_elements(kind)
