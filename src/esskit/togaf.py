"""ADM phase specifications: the bundled corpus and the practice mapper.

The mapping is deterministic and follows fixed rules: a phase becomes a
practice named for its position in the ADM (R1); each step becomes one
top-level activity space (R2); an atomic tagged action becomes an activity
(R3); a decomposed action becomes a nested space holding its sub-activities
(R4); outputs become the practice's work products and every feed becomes a
contribution, each naming a part of its own whenever an output has two or
more feeders (R5); tags select required competencies (R6) at level 3 unless
the named role grades that competency differently. Analysis is reserved for
endorsement: an activity tagged ``endorses_requirements`` requires Analysis
and never Stakeholder Representation, whatever its co-tags.

The declared area is the plurality of the mapped competency requirements'
areas; ties break toward Endeavor, then by kernel area order.
"""

from __future__ import annotations

from importlib import resources

from . import dsl
from .model import (
    PHASE_PRACTICE_NAMES,
    TAG_COMPETENCIES,
    Activity,
    ActivitySpec,
    Area,
    CompetencyGrade,
    ModelDocument,
    Practice,
    Space,
    StepSpec,
    TogafPhase,
    dotted_id,
    element_id,
    merge,
    walk_specs,
)
from .validator import ResolvedModel, mapping_faults

DEFAULT_REQUIREMENT_LEVEL = 3

_AREA_TIE_ORDER = (Area.ENDEAVOR, Area.CUSTOMER, Area.SOLUTION)

CORPUS_FILES = ("kernel.ess", "roles.ess", "phases.ess", "practices.ess",
                "method.ess")


class MappingError(Exception):
    """A phase specification cannot be mapped; the message names the chain."""


def map_phase(spec: TogafPhase, model: ResolvedModel, *, max_depth: int = 3) -> Practice:
    """Map one phase specification to a practice against a resolved kernel.

    Raises :class:`MappingError` with the first of the phase's
    :func:`esskit.validator.mapping_faults`, which ``check`` reports as V018.
    """
    for _, _, message in mapping_faults(spec, model, max_depth=max_depth):
        raise MappingError(message)

    walk = list(walk_specs(spec))
    # One entry per walk entry: the activity an atomic spec maps to, or None
    # for a step or a decomposed spec, which become spaces.
    requirement_areas: dict[Area, int] = {area: 0 for area in Area}
    mapped = [None if isinstance(node, StepSpec) or node.sub_activities
              else _map_activity(node, model, requirement_areas) for _, node, _, _ in walk]

    # Reversed pre-order meets every child before its parent. Sibling specs
    # may share a path, but a node's children all come between it and the
    # next node with its path, so collecting them by parent path is exact.
    members: dict[str, list] = {}
    for (path, node, _, parent), member in zip(reversed(walk), reversed(mapped)):
        if member is None:
            member = Space(name=node.name,
                           goal=node.goal if isinstance(node, StepSpec) else None,
                           members=tuple(reversed(members.pop(path, []))))
        members.setdefault(parent, []).append(member)
    return Practice(
        name=PHASE_PRACTICE_NAMES[spec.phase],
        area=_plurality_area(requirement_areas),
        goals=(spec.objective,),
        outputs=spec.outputs,
        members=tuple(reversed(members.pop(element_id(spec), []))),
    )


def _map_activity(activity: ActivitySpec, model: ResolvedModel,
                  areas: dict[Area, int]) -> Activity:
    """R3/R6: one atomic spec as an activity; counts its requirements' areas."""
    wanted = {TAG_COMPETENCIES[tag] for tag in activity.tags}
    if "endorses_requirements" in activity.tags:
        # Endorsement absorbs the stakeholder-facing tags: such an activity
        # demands Analysis, never Stakeholder Representation.
        wanted.discard("Stakeholder Representation")
    role = model.roles.get(activity.role) if activity.role else None
    requires = []
    # In declared order; mapping_faults checked that every one is declared.
    for name in [n for n in model.competencies if n in wanted]:
        level = DEFAULT_REQUIREMENT_LEVEL
        if role is not None:
            declared = role.level_for(name)
            if declared is not None:
                level = declared
        requires.append(CompetencyGrade(competency=name, level=level))
        areas[model.competencies[name].area] += 1

    return Activity(
        name=activity.name,
        requires=tuple(requires),
        produces=activity.feeds,
        role=activity.role,
    )


def _plurality_area(counts: dict[Area, int]) -> Area:
    best = max(counts.values())
    return next(area for area in _AREA_TIE_ORDER if counts[area] == best)


# Bundled corpus ------------------------------------------------------------


def corpus_files() -> dict[str, str]:
    """Name-to-text mapping of every bundled corpus file, manifest included."""
    root = resources.files(__package__) / "corpus"
    out = {name: (root / name).read_text(encoding="utf-8")
           for name in CORPUS_FILES}
    out["manifest.json"] = (root / "manifest.json").read_text(encoding="utf-8")
    return out


def load_corpus() -> ModelDocument:
    """The bundled corpus as one document: kernel, roles, phases, the mapped
    practices, and the adm method."""
    files = corpus_files()
    documents = [dsl.parse(files[name], name) for name in CORPUS_FILES]
    return merge(*documents)


def load_manifest() -> dict:
    import json

    return json.loads(corpus_files()["manifest.json"])


def phase_labels(document: ModelDocument) -> dict[str, str]:
    """Practice id to phase id, for documents that carry phase specifications."""
    labels = {}
    for phase in document.phases():
        practice = PHASE_PRACTICE_NAMES.get(phase.phase)
        if practice is not None:
            labels[dotted_id("practice", practice)] = phase.phase
    return labels
