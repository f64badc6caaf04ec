"""ADM phase specifications: the bundled corpus and the practice mapper.

The mapping is deterministic and follows fixed rules: a phase becomes a
practice named for its position in the ADM (R1); each step becomes one
top-level activity space (R2); an atomic tagged action becomes an activity
(R3); a decomposed action becomes a nested space holding its sub-activities
(R4); outputs become the practice's work products and every feed becomes a
contribution, with the part text mandatory whenever an output has two or
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
    Activity,
    ActivitySpec,
    Area,
    CompetencyGrade,
    Contribution,
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
from .validator import ResolvedModel

#: R1: the practice name for each phase position in the ADM.
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

#: R6: which competency each activity tag demands.
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

DEFAULT_REQUIREMENT_LEVEL = 3

_AREA_TIE_ORDER = (Area.ENDEAVOR, Area.CUSTOMER, Area.SOLUTION)

CORPUS_FILES = ("kernel.ess", "roles.ess", "phases.ess", "practices.ess",
                "method.ess")


class MappingError(Exception):
    """A phase specification cannot be mapped; the message names the chain."""


def _chain(names: tuple[str, ...]) -> str:
    return " > ".join(repr(n) for n in names)


def map_phase(spec: TogafPhase, model: ResolvedModel, *, max_depth: int = 3) -> Practice:
    """Map one phase specification to a practice against a resolved kernel.

    Raises :class:`MappingError` for the first fault found, checking the
    phase id, the kernel's competencies and then, in passes over the specs
    in pre-order: tags on a decomposed spec or a feed of an undeclared
    output; a feed that needs a part; a decomposition that would nest spaces
    deeper than ``max_depth``, an undeclared role or an unknown tag.

    The undeclared-output and undeclared-role checks guard library callers
    that pass a phase the model did not resolve: for every phase of a
    resolved document, :func:`esskit.validator.resolve` has already reported
    both as V001, which is what ``esskit map`` prints.
    """
    if spec.phase not in PHASE_PRACTICE_NAMES:
        raise MappingError(f"phase id {spec.phase!r} is not one of "
                           + ", ".join(PHASE_PRACTICE_NAMES))
    missing = [name for name in TAG_COMPETENCIES.values()
               if name not in model.competencies]
    if missing:
        raise MappingError(
            "kernel is missing required competencies: "
            + ", ".join(sorted(set(missing))))

    walk = list(walk_specs(spec))
    activity_specs = [(node, chain) for _, node, chain, _ in walk
                      if isinstance(node, ActivitySpec)]
    declared_outputs = {wp.name for wp in spec.outputs}
    feeder_counts: dict[str, int] = {}
    for activity, chain in activity_specs:
        if activity.tags and activity.sub_activities:
            raise MappingError(
                f"phase {spec.phase}: activity {_chain(chain)} is decomposed and "
                "cannot also carry tags")
        for contribution in activity.feeds:
            if contribution.work_product not in declared_outputs:
                raise MappingError(
                    f"phase {spec.phase}: activity {_chain(chain)} feeds "
                    f"undeclared output {contribution.work_product!r}")
            feeder_counts[contribution.work_product] = feeder_counts.get(
                contribution.work_product, 0) + 1
    for activity, chain in activity_specs:
        for contribution in activity.feeds:
            if feeder_counts[contribution.work_product] >= 2 and not contribution.part:
                raise MappingError(
                    f"phase {spec.phase}: output {contribution.work_product!r} "
                    f"has {feeder_counts[contribution.work_product]} feeders, so "
                    f"the contribution from {_chain(chain)} must name its part")

    # One entry per walk entry: the activity an atomic spec maps to, or None
    # for a step or a decomposed spec, which become spaces. A decomposed spec
    # nests its space at the depth of its chain (a step's space is depth 1).
    requirement_areas: dict[Area, int] = {area: 0 for area in Area}
    mapped: list[Activity | None] = []
    for _, node, chain, _ in walk:
        if isinstance(node, StepSpec) or node.sub_activities:
            if isinstance(node, ActivitySpec) and len(chain) > max_depth:
                raise MappingError(
                    f"phase {spec.phase}: decomposing {_chain(chain)} would nest "
                    f"spaces at depth {len(chain)}, beyond the maximum of "
                    f"{max_depth}")
            mapped.append(None)
        else:
            mapped.append(_map_activity(spec, node, chain, model, requirement_areas))

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


def _map_activity(spec: TogafPhase, activity: ActivitySpec, chain: tuple[str, ...],
                  model: ResolvedModel, areas: dict[Area, int]) -> Activity:
    """R3/R6: one atomic spec as an activity; counts its requirements' areas."""
    if activity.role is not None and activity.role not in model.roles:
        raise MappingError(
            f"phase {spec.phase}: activity {_chain(chain)} names undeclared "
            f"role {activity.role!r}")
    for tag in activity.tags:
        if tag not in TAG_COMPETENCIES:
            raise MappingError(
                f"phase {spec.phase}: activity {_chain(chain)} carries "
                f"unknown tag {tag!r}")

    wanted = {TAG_COMPETENCIES[tag] for tag in activity.tags}
    if "endorses_requirements" in activity.tags:
        # Endorsement absorbs the stakeholder-facing tags: such an activity
        # demands Analysis, never Stakeholder Representation.
        wanted.discard("Stakeholder Representation")
    role = model.roles.get(activity.role) if activity.role else None
    requires = []
    # In declared order; map_phase checked that every one is declared.
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
        produces=tuple(Contribution(work_product=c.work_product, part=c.part)
                       for c in activity.feeds),
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
