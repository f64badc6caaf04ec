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
areas; ties break toward Endeavor, then by kernel area order. One walk over
a phase's specs states each rule beside the refusal that guards it; the
refusals, in ``check``'s order, are its V018 diagnostics: :func:`mapping_faults`.
"""

from __future__ import annotations

from collections import Counter

from . import dsl
from .diagnostics import Diagnostic, Severity, ordered
from .model import (
    PHASE_IDS,
    PHASE_PRACTICE_NAMES,
    TAG_COMPETENCIES,
    Activity,
    ActivitySpec,
    Area,
    CompetencyGrade,
    ModelDocument,
    Practice,
    Role,
    Space,
    StepSpec,
    TogafPhase,
    dotted_id,
    element_id,
    merge,
    walk_specs,
)
from .validator import MAPPING_FAULT, ResolvedModel, _part_faults

DEFAULT_REQUIREMENT_LEVEL = 3

_AREA_TIE_ORDER = (Area.ENDEAVOR, Area.CUSTOMER, Area.SOLUTION)

CORPUS_FILES = ("kernel.ess", "roles.ess", "phases.ess", "practices.ess",
                "method.ess")


class MappingError(Exception):
    """A phase specification cannot be mapped; the message names the chain."""


def map_phase(spec: TogafPhase, model: ResolvedModel, *, max_depth: int = 3) -> Practice:
    """Map one phase specification to a practice against a resolved kernel, or
    raise :class:`MappingError` with the message of the first of its
    :func:`mapping_faults`, the first V018 line ``check`` prints for it."""
    faults, walk = _mapping(spec, model, max_depth)
    if faults:
        raise MappingError(faults[0].message)

    areas = Counter()
    # Reversed pre-order meets every child before its parent. With no fault
    # no two spaces share a path, so collecting children by path is exact.
    members: dict[str, list] = {}
    for path, node, _, parent in reversed(walk):
        if isinstance(node, ActivitySpec) and not node.sub_activities:
            node = _map_activity(node, model.roles.get(node.role), model)
            areas.update(model.competencies[grade.competency].area for grade in node.requires)
        else:
            node = Space(name=node.name,
                         goal=node.goal if isinstance(node, StepSpec) else None,
                         members=tuple(reversed(members.pop(path, []))))
        members.setdefault(parent, []).append(node)
    return Practice(
        name=PHASE_PRACTICE_NAMES[spec.phase],
        area=max(_AREA_TIE_ORDER, key=areas.__getitem__),
        goals=(spec.objective,),
        outputs=spec.outputs,
        members=tuple(reversed(members.pop(element_id(spec), []))),
    )


def mapping_faults(phase: TogafPhase, model: ResolvedModel, *, max_depth: int = 3):
    """Why ``phase`` cannot be mapped to a practice: one V018 diagnostic per
    fault, in the order of :func:`esskit.diagnostics.ordered`, which is the
    order ``check`` prints them in."""
    return _mapping(phase, model, max_depth)[0]


def _mapping(phase: TogafPhase, model: ResolvedModel, max_depth: int):
    """The faults of ``phase``, ordered, and the one walk over its specs."""
    faults = []

    def fault(path: str, spec, chain, text: str, noun: str | None = None) -> None:
        # A spec's fault names its chain; the phase's own faults have none.
        if chain:
            text = (f"phase {phase.phase}: {noun or spec.kind} "
                    f"{' > '.join(map(repr, chain))} {text}")
        faults.append(Diagnostic(MAPPING_FAULT, Severity.ERROR, path, text, spec.span))

    # R1 names the practice for the phase id; R6 needs every tag's competency.
    if phase.phase not in PHASE_IDS:
        fault(element_id(phase), phase, (),
              f"phase id {phase.phase!r} is not one of {', '.join(PHASE_IDS)}")
    missing = sorted({name for name in TAG_COMPETENCIES.values()
                      if name not in model.competencies})
    if missing:
        fault(element_id(phase), phase, (),
              "kernel is missing required competencies: " + ", ".join(missing))

    declared = {wp.name for wp in phase.outputs}
    # R5: an output's feeders, as (path, spec, chain, part).
    fed: dict[str, list] = {}
    # R2-R4: siblings share a mapped id when both map to activities or spaces.
    mapped: set[tuple[str, bool]] = set()
    walk = list(walk_specs(phase))
    for path, spec, chain, _ in walk:
        atomic = isinstance(spec, ActivitySpec) and not spec.sub_activities
        if (path, atomic) in mapped:
            fault(path, spec, chain, "would map to the same id as an earlier sibling")
        mapped.add((path, atomic))
        if atomic:
            # R5: each feed contributes to a declared output, as resolve checks.
            for contribution in spec.feeds:
                output = contribution.work_product
                if output not in declared:
                    fault(path, spec, chain, f"feeds undeclared output {output!r}")
                fed.setdefault(output, []).append((path, spec, chain, contribution.part))
            # R3/R6: the tags select the requirements, at a declared role's levels.
            if spec.role is not None and spec.role not in model.roles:
                fault(path, spec, chain, f"names undeclared role {spec.role!r}")
            for tag in spec.tags:
                if tag not in TAG_COMPETENCIES:
                    fault(path, spec, chain, f"carries unknown tag {tag!r}")
        elif isinstance(spec, ActivitySpec):
            # R4: a decomposed spec maps to a space, which has no tags, feeds or role.
            for carried, text in ((spec.tags, "carry tags"), (spec.feeds, "feed an output"),
                                  (spec.role, "name a role")):
                if carried:
                    fault(path, spec, chain, f"is decomposed and cannot also {text}")
            if len(chain) > max_depth:
                fault(path, spec, chain, f"would nest spaces at depth {len(chain)}, "
                      f"beyond the maximum of {max_depth}", "decomposing")

    # R5: an output with two or more feeders needs a distinct part from each.
    for output, feeders in fed.items():
        for at in _part_faults([part for *_, part in feeders]):
            path, spec, chain, part = feeders[at]
            fault(path, spec, chain,
                  f"must not repeat part {part!r}" if part else "must name its part",
                  f"output {output!r} has {len(feeders)} feeders, so the contribution from")
    return ordered(faults), walk


def _map_activity(activity: ActivitySpec, role: Role | None, model: ResolvedModel) -> Activity:
    """R3/R6: one atomic spec as an activity, at ``role``'s levels."""
    wanted = {TAG_COMPETENCIES[tag] for tag in activity.tags}
    if "endorses_requirements" in activity.tags:
        # Endorsement absorbs the stakeholder-facing tags: such an activity
        # demands Analysis, never Stakeholder Representation.
        wanted.discard("Stakeholder Representation")
    requires = []
    # In declared order; the pass checked that every one is declared.
    for name in model.competencies:
        if name in wanted:
            level = role.level_for(name) if role is not None else None
            requires.append(CompetencyGrade(
                competency=name, level=DEFAULT_REQUIREMENT_LEVEL if level is None else level))
    return Activity(
        name=activity.name,
        requires=tuple(requires),
        produces=activity.feeds,
        role=activity.role,
    )


# Bundled corpus ------------------------------------------------------------


def corpus_files() -> dict[str, str]:
    """Name-to-text mapping of every bundled corpus file, manifest included."""
    from importlib import resources

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
