from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esskit import dsl, render, togaf, validator
from esskit.model import (
    PHASE_IDS,
    Activity,
    ActivitySpec,
    CompetencyGrade,
    Contribution,
    ModelDocument,
    Space,
    StepSpec,
    TogafPhase,
    WorkProduct,
    WorkProductCategory,
    merge,
    walk_element,
    walk_specs,
)
from esskit.togaf import (
    PHASE_PRACTICE_NAMES,
    TAG_COMPETENCIES,
    MappingError,
    map_phase,
)

from conftest import KERNEL_PRELUDE

MAPPING_FIXTURE = KERNEL_PRELUDE + """
role "Lead Architect" {
  competency Analysis @ 5
  competency Stakeholder_Representation @ 4
}
role "Coordinator" {
  competency Management @ 2
}
"""

FIXTURE_ROLES = (None, "Lead Architect", "Coordinator")


@pytest.fixture(scope="module")
def fixture_model():
    return validator.resolve(dsl.parse(MAPPING_FIXTURE, "mapping-fixture"))


def activities_of(practice) -> list[Activity]:
    """Every activity of ``practice``, in source order."""
    return [e for _, e, _, _ in walk_element(practice) if isinstance(e, Activity)]


def _phase(steps=(), outputs=(), phase="A", objective="obj") -> TogafPhase:
    return TogafPhase(phase=phase, name="Fixture", objective=objective,
                      steps=tuple(steps), outputs=tuple(outputs))


# Explicit rule fixtures ------------------------------------------------------


def test_minimal_phase_maps_to_minimal_practice(fixture_model):
    spec = _phase(
        steps=[StepSpec(name="Only Step", activities=(
            ActivitySpec(name="Gather context", tags=("acquires_information",),
                         feeds=(Contribution("Vision"),)),))],
        outputs=[WorkProduct(name="Vision")])
    practice = map_phase(spec, fixture_model)
    assert practice.name == "Phase A"
    assert practice.goals == ("obj",)
    assert [m.kind for m in practice.members] == ["space"]
    activities = activities_of(practice)
    assert len(activities) == 1
    assert activities[0].requires == (
        CompetencyGrade("Stakeholder Representation", 3),)
    assert activities[0].produces == (Contribution("Vision"),)
    assert [wp.name for wp in practice.outputs] == ["Vision"]


def test_decomposed_activity_becomes_nested_space(fixture_model):
    spec = _phase(steps=[StepSpec(name="Step", activities=(
        ActivitySpec(name="Identify Stakeholders", sub_activities=(
            ActivitySpec(name="sub one", tags=("understands_stakeholders",)),
            ActivitySpec(name="sub two", tags=("understands_stakeholders",)),
            ActivitySpec(name="sub three", tags=("builds",)),
        )),))])
    practice = map_phase(spec, fixture_model)
    below = [(element.kind, element.name, depth)
             for _, element, _, depth in walk_element(practice.members[0])]
    assert below == [("space", "Step", 0), ("space", "Identify Stakeholders", 1),
                     ("activity", "sub one", 2), ("activity", "sub two", 2),
                     ("activity", "sub three", 2)]


def test_colon_convention_for_multi_feeder_output(fixture_model):
    spec = _phase(
        steps=[StepSpec(name="Step", activities=(
            ActivitySpec(name="a1", tags=("builds",),
                         feeds=(Contribution("Statement of Architecture Work",
                                             "scope"),)),
            ActivitySpec(name="a2", tags=("builds",),
                         feeds=(Contribution("Statement of Architecture Work",
                                             "schedule"),)),
        ))],
        outputs=[WorkProduct(name="Statement of Architecture Work")])
    practice = map_phase(spec, fixture_model)
    rendered = [c.rendered_name() for a in activities_of(practice)
                for c in a.produces]
    assert rendered == ["Statement of Architecture Work: scope",
                        "Statement of Architecture Work: schedule"]


def test_endorsement_absorbs_stakeholder_tags(fixture_model):
    spec = _phase(steps=[StepSpec(name="Step", activities=(
        ActivitySpec(name="endorse", tags=("processes_requirements",
                                           "endorses_requirements",
                                           "acquires_information")),))])
    practice = map_phase(spec, fixture_model)
    (activity,) = activities_of(practice)
    competencies = [g.competency for g in activity.requires]
    assert "Analysis" in competencies
    assert "Stakeholder Representation" not in competencies


def test_role_overrides_default_level(fixture_model):
    spec = _phase(steps=[StepSpec(name="Step", activities=(
        ActivitySpec(name="endorse", tags=("endorses_requirements",),
                     role="Lead Architect"),
        ActivitySpec(name="plan", tags=("coordinates", "builds"),
                     role="Coordinator"),))])
    practice = map_phase(spec, fixture_model)
    endorse, plan = activities_of(practice)
    assert endorse.requires[0] == endorse.requires[0].__class__("Analysis", 5)
    by_name = {g.competency: g.level for g in plan.requires}
    assert by_name == {"Development": 3, "Management": 2}
    assert plan.role == "Coordinator"


def test_stub_phase_maps_to_bare_practice(fixture_model):
    spec = _phase(phase="B", steps=(), outputs=())
    practice = map_phase(spec, fixture_model)
    assert practice.name == "Phase B"
    assert practice.members == ()
    merged = merge(dsl.parse(MAPPING_FIXTURE), ModelDocument([practice]))
    model, diagnostics = validator.check(merged)
    assert diagnostics == []


def test_mapping_errors(fixture_model):
    with pytest.raises(MappingError, match="phase id 'Z' is not one of P, A, "):
        map_phase(_phase(phase="Z"), fixture_model)

    with pytest.raises(MappingError, match="undeclared output"):
        map_phase(_phase(steps=[StepSpec(name="S", activities=(
            ActivitySpec(name="a", tags=("builds",),
                         feeds=(Contribution("Ghost"),)),))]), fixture_model)

    with pytest.raises(MappingError, match="must name its part"):
        map_phase(_phase(
            steps=[StepSpec(name="S", activities=(
                ActivitySpec(name="a", tags=("builds",),
                             feeds=(Contribution("W", "x"),)),
                ActivitySpec(name="b", tags=("builds",),
                             feeds=(Contribution("W"),)),))],
            outputs=[WorkProduct(name="W")]), fixture_model)

    with pytest.raises(MappingError, match="decomposed"):
        map_phase(_phase(steps=[StepSpec(name="S", activities=(
            ActivitySpec(name="a", tags=("builds",), sub_activities=(
                ActivitySpec(name="b", tags=("builds",)),)),))]), fixture_model)

    with pytest.raises(MappingError, match="unknown tag"):
        map_phase(_phase(steps=[StepSpec(name="S", activities=(
            ActivitySpec(name="a", tags=("sings",)),))]), fixture_model)

    with pytest.raises(MappingError, match="undeclared role"):
        map_phase(_phase(steps=[StepSpec(name="S", activities=(
            ActivitySpec(name="a", tags=("builds",), role="Nobody"),))]),
            fixture_model)

    # Step space is depth 1, so three decomposition levels reach depth 4.
    deep = ActivitySpec(name="d1", sub_activities=(
        ActivitySpec(name="d2", sub_activities=(
            ActivitySpec(name="d3", sub_activities=(
                ActivitySpec(name="d4", tags=("builds",)),)),)),))
    with pytest.raises(MappingError, match="depth"):
        map_phase(_phase(steps=[StepSpec(name="S", activities=(deep,))]),
                  fixture_model)
    relaxed = map_phase(_phase(steps=[StepSpec(name="S", activities=(deep,))]),
                        fixture_model, max_depth=4)
    nested = relaxed.members[0].members[0]
    assert (nested.kind, nested.name) == ("space", "d1")


def test_sibling_specs_may_share_a_name(fixture_model):
    # A decomposed and an atomic "D" share a spec path but map to a space and
    # an activity, whose ids differ; two steps "S" would map to one space id.
    def leaf(name, tag):
        return ActivitySpec(name=name, tags=(tag,))

    steps = [StepSpec(name="S", goal="first", activities=(
                 ActivitySpec(name="D", sub_activities=(leaf("x", "builds"),)),
                 leaf("D", "leads"))),
             StepSpec(name="S", activities=(leaf("z", "coordinates"),))]
    practice = map_phase(_phase(steps=steps[:1]), fixture_model)

    def shape(member):
        if isinstance(member, Space):
            return (member.name, member.goal, [shape(m) for m in member.members])
        return (member.name, [g.competency for g in member.requires])

    assert [shape(m) for m in practice.members] == [
        ("S", "first", [("D", None, [("x", ["Development"])]), ("D", ["Leadership"])]),
    ]
    with pytest.raises(MappingError, match="^phase A: step 'S' would map to the same "
                                           "id as an earlier sibling$"):
        map_phase(_phase(steps=steps), fixture_model)


def test_missing_kernel_competencies_rejected():
    bare = validator.resolve(dsl.parse(
        'kernel "K" { area Customer color green '
        'competency Analysis area Customer }'))
    with pytest.raises(MappingError, match="missing required competencies"):
        map_phase(_phase(), bare)


# Property suite over generated phase specifications --------------------------


@st.composite
def phase_specs(draw):
    counter = itertools.count(1)

    def name(prefix: str) -> str:
        return f"{prefix} {next(counter)}"

    outputs = tuple(
        WorkProduct(name=name("Output"),
                    category=draw(st.sampled_from(list(WorkProductCategory))))
        for _ in range(draw(st.integers(0, 3))))
    output_names = [wp.name for wp in outputs]

    def activity(depth: int) -> ActivitySpec:
        if depth < 3 and draw(st.integers(0, 5)) == 0:
            subs = tuple(activity(depth + 1)
                         for _ in range(draw(st.integers(1, 3))))
            return ActivitySpec(name=name("Group"), sub_activities=subs)
        tags = tuple(draw(st.sets(st.sampled_from(sorted(TAG_COMPETENCIES)),
                                  min_size=1, max_size=3)))
        feeds = tuple(
            Contribution(work_product=draw(st.sampled_from(output_names)),
                         part=draw(st.one_of(st.none(),
                                             st.just(f"part {next(counter)}"))))
            for _ in range(draw(st.integers(0, 2)))) if output_names else ()
        role = draw(st.sampled_from(FIXTURE_ROLES))
        return ActivitySpec(name=name("Act"), tags=tags, feeds=feeds, role=role)

    steps = tuple(
        StepSpec(name=name("Step"),
                 goal=draw(st.one_of(st.none(), st.just(f"goal {next(counter)}"))),
                 activities=tuple(activity(1)
                                  for _ in range(draw(st.integers(0, 3)))))
        for _ in range(draw(st.integers(0, 4))))

    spec = _phase(steps=steps, outputs=outputs,
                  phase=draw(st.sampled_from(PHASE_IDS)))
    return _with_mandatory_parts(spec, counter)


def _leaves(spec: ActivitySpec):
    if spec.sub_activities:
        for sub in spec.sub_activities:
            yield from _leaves(sub)
    else:
        yield spec


def _with_mandatory_parts(phase: TogafPhase, counter) -> TogafPhase:
    """Give every feed of a multi-fed output a unique part, keeping validity."""
    feeder_counts: dict[str, int] = {}
    for step in phase.steps:
        for spec in step.activities:
            for leaf in _leaves(spec):
                for feed in leaf.feeds:
                    feeder_counts[feed.work_product] = \
                        feeder_counts.get(feed.work_product, 0) + 1

    def fix_spec(spec: ActivitySpec) -> ActivitySpec:
        if spec.sub_activities:
            return ActivitySpec(
                name=spec.name,
                sub_activities=tuple(fix_spec(s) for s in spec.sub_activities))
        feeds = tuple(
            Contribution(f.work_product, f.part or f"part {next(counter)}")
            if feeder_counts[f.work_product] >= 2 else f
            for f in spec.feeds)
        return ActivitySpec(name=spec.name, tags=spec.tags, feeds=feeds,
                            role=spec.role)

    return TogafPhase(
        phase=phase.phase, name=phase.name, objective=phase.objective,
        steps=tuple(StepSpec(name=s.name, goal=s.goal,
                             activities=tuple(fix_spec(a) for a in s.activities))
                    for s in phase.steps),
        outputs=phase.outputs)


def _assert_members_match(members, specs, model):
    assert len(members) == len(specs)
    for member, spec in zip(members, specs):
        if spec.sub_activities:
            assert isinstance(member, Space) and member.name == spec.name
            _assert_members_match(member.members, spec.sub_activities, model)
        else:
            assert isinstance(member, Activity) and member.name == spec.name
            expected = {TAG_COMPETENCIES[t] for t in spec.tags}
            if "endorses_requirements" in spec.tags:
                expected.discard("Stakeholder Representation")
            got = {g.competency for g in member.requires}
            assert got == expected
            names = list(model.competencies)
            order = [names.index(g.competency) for g in member.requires]
            assert order == sorted(order)
            role = model.roles.get(spec.role) if spec.role else None
            for grade in member.requires:
                declared = role.level_for(grade.competency) if role else None
                assert grade.level == (declared if declared is not None else 3)
            assert [c.work_product for c in member.produces] == \
                   [f.work_product for f in spec.feeds]


def check_mapping_rules(spec: TogafPhase, model) -> None:
    """Assert R1-R6 hold for one specification; shared with acceptance."""
    practice = map_phase(spec, model)

    # R1: one practice per phase, named for the phase's ADM position.
    assert practice.name == PHASE_PRACTICE_NAMES[spec.phase]
    assert practice.goals == (spec.objective,)

    # R2: step-to-space bijection, order preserved.
    spaces = practice.members
    assert [s.kind for s in spaces] == ["space"] * len(spec.steps)
    assert [s.name for s in spaces] == [s.name for s in spec.steps]
    for space, step in zip(spaces, spec.steps):
        assert space.goal == step.goal
        # R3/R4: atomic specs map to activities, decomposed ones to nested
        # spaces, in declaration order.
        _assert_members_match(space.members, step.activities, model)

    # R5: outputs totality and the colon convention.
    assert practice.outputs == spec.outputs
    contributions: dict[str, list[Contribution]] = {}
    for activity in activities_of(practice):
        for c in activity.produces:
            contributions.setdefault(c.work_product, []).append(c)
    feed_count: dict[str, int] = {}
    for step in spec.steps:
        for top in step.activities:
            for leaf in _leaves(top):
                for f in leaf.feeds:
                    feed_count[f.work_product] = feed_count.get(f.work_product, 0) + 1
    assert {k: len(v) for k, v in contributions.items()} == feed_count
    for name, group in contributions.items():
        if len(group) >= 2:
            assert all(c.part for c in group)
            rendered = [c.rendered_name() for c in group]
            assert len(set(rendered)) == len(rendered)

    # R6: Analysis appears exactly on endorsement.
    for step, space in zip(spec.steps, spaces):
        for spec_leaf, activity in zip(
                (l for a in step.activities for l in _leaves(a)),
                (e for _, e, _, _ in walk_element(space) if e.kind == "activity")):
            has_analysis = any(g.competency == "Analysis"
                               for g in activity.requires)
            assert has_analysis == ("endorses_requirements" in spec_leaf.tags)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(spec=phase_specs())
def test_mapping_rules_r1_to_r6(fixture_model, spec):
    check_mapping_rules(spec, fixture_model)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(spec=phase_specs())
def test_mapping_is_deterministic_and_wellformed(fixture_model, spec):
    first = map_phase(spec, fixture_model)
    second = map_phase(spec, fixture_model)
    assert first == second
    assert render.render_canonical(ModelDocument([first])) == \
           render.render_canonical(ModelDocument([second]))

    merged = merge(dsl.parse(MAPPING_FIXTURE), ModelDocument([first]))
    model, diagnostics = validator.check(merged)
    assert model is not None
    assert [d for d in diagnostics if d.is_error] == []
    assert [d for d in diagnostics if d.rule == "V015"] == []


@st.composite
def faulty_phase_specs(draw):
    """Phase specifications that may break any mapping rule: names come from a
    small pool, so siblings collide; parts repeat, or go missing when the
    mandatory parts are not filled in; decompositions reach past depth 3 and
    may carry tags, feeds and a role."""
    names = st.sampled_from(["a", "A", "b", "c", "d"])
    outputs = [WorkProduct(name=n) for n in
               draw(st.lists(st.sampled_from(["W", "V"]), unique=True, max_size=2))]

    def activity(depth: int) -> ActivitySpec:
        tags = tuple(draw(st.sets(st.sampled_from(sorted(TAG_COMPETENCIES)),
                                  min_size=1, max_size=2)))
        feeds = tuple(Contribution(draw(st.sampled_from(outputs)).name,
                                   draw(st.sampled_from([None, "x", "y"])))
                      for _ in range(draw(st.integers(0, 2)) if outputs else 0))
        role = draw(st.sampled_from(FIXTURE_ROLES))
        if depth < 5 and draw(st.integers(0, 2)) == 0:
            return ActivitySpec(
                name=draw(names), tags=tags if draw(st.integers(0, 3)) == 0 else (),
                feeds=feeds if draw(st.integers(0, 3)) == 0 else (),
                role=role if draw(st.integers(0, 3)) == 0 else None,
                sub_activities=tuple(activity(depth + 1)
                                     for _ in range(draw(st.integers(1, 2)))))
        return ActivitySpec(name=draw(names), tags=tags, feeds=feeds, role=role)

    steps = [StepSpec(name=draw(names), activities=tuple(
                 activity(2) for _ in range(draw(st.integers(0, 3)))))
             for _ in range(draw(st.integers(0, 3)))]
    spec = _phase(steps=steps, outputs=outputs, phase=draw(st.sampled_from(PHASE_IDS)))
    return _with_mandatory_parts(spec, itertools.count()) if draw(st.booleans()) else spec


@settings(max_examples=150, derandomize=True, deadline=None)
@given(spec=faulty_phase_specs())
def test_check_and_map_agree(fixture_model, spec):
    kernel = fixture_model.document
    model, diagnostics = validator.check(merge(kernel, ModelDocument([spec])))
    assert model is not None
    try:
        text = render.render_canonical(ModelDocument([map_phase(spec, model)]))
    except MappingError as refusal:
        # map prints the first V018 line check prints for the phase.
        assert str(refusal) == next(d.message for d in diagnostics if d.rule == "V018")
        text = None
    except ValueError:
        text = None
    assert (text is not None) == (not any(d.is_error for d in diagnostics))
    if text is not None:
        _, rechecked = validator.check(merge(kernel, dsl.parse(text, "mapped.ess")))
        assert [d for d in rechecked if d.is_error] == []


# Corpus ----------------------------------------------------------------------


def test_corpus_counts_match_manifest(corpus, manifest):
    kernel = manifest["kernel"]
    assert len(corpus.iter_elements("area")) == kernel["areas"]
    assert len(corpus.iter_elements("alpha")) == kernel["alphas"]
    assert len(corpus.iter_elements("state")) == kernel["alpha_states"]
    assert len(corpus.iter_elements("competency")) == kernel["competencies"]
    assert len(corpus.iter_elements("role")) == manifest["roles"]
    assert len(corpus.methods()) == manifest["methods"]
    assert len(corpus.iter_elements("practice")) == manifest["practices"]
    assert len(corpus.phases()) == len(manifest["phases"]) == 10

    for phase in corpus.phases():
        entry = manifest["phases"][phase.phase]
        assert phase.name == entry["name"]
        assert len(phase.steps) == entry["steps"]
        assert sum(spec.kind == "activity"
                   for _, spec, _, _ in walk_specs(phase)) == entry["activities"]
        assert len(phase.outputs) == entry["outputs"]


@pytest.mark.parametrize("stage", [
    lambda corpus, model: [map_phase(phase, model) for phase in corpus.phases()],
    lambda corpus, model: validator.resolve(corpus),
    lambda corpus, model: validator.check_wellformedness(model),
    lambda corpus, model: render.export_json(model),
], ids=["map_phase", "resolve", "check_wellformedness", "export_json"])
def test_map_phase_walks_a_phase_once(stage, corpus, corpus_model, monkeypatch):
    walked = []

    def counting(phase):
        walked.append(phase.phase)
        return walk_specs(phase)

    for module in [m for name, m in sys.modules.items() if name.startswith("esskit")]:
        if getattr(module, "walk_specs", None) is walk_specs:
            monkeypatch.setattr(module, "walk_specs", counting)
    stage(corpus, corpus_model)
    assert walked == [phase.phase for phase in corpus.phases()]


def test_mapping_fault_chains_after_a_deeper_subtree(fixture_model):
    # The walk comes back from D > E to y; x's fault is reported after the
    # walk, so it must still name x's own chain.
    step = StepSpec(name="S", activities=(
        ActivitySpec(name="D", sub_activities=(
            ActivitySpec(name="E", sub_activities=(
                ActivitySpec(name="x", tags=("builds",), feeds=(Contribution("W"),)),)),)),
        ActivitySpec(name="y", tags=("builds",), feeds=(Contribution("W", "p"),)),
        ActivitySpec(name="y", tags=("leads",))))
    phase = _phase(steps=[step], outputs=[WorkProduct(name="W")])
    assert [d.message for d in togaf.mapping_faults(phase, fixture_model)] == [
        "phase A: output 'W' has 2 feeders, so the contribution from "
        "'S' > 'D' > 'E' > 'x' must name its part",
        "phase A: activity 'S' > 'y' would map to the same id as an earlier sibling",
    ]


def test_check_builds_no_mapped_activity(corpus_model, monkeypatch):
    # Only map_phase builds activities; check's mapping pass finds faults alone.
    expected = validator.check_wellformedness(corpus_model)

    def refuse(*args):
        raise AssertionError("check built a mapped activity")

    monkeypatch.setattr(togaf, "_map_activity", refuse)
    assert validator.check_wellformedness(corpus_model) == expected


def test_corpus_practices_are_the_mapper_output(corpus, corpus_model, manifest):
    regenerated = ModelDocument([map_phase(phase, corpus_model)
                                 for phase in corpus.phases()])
    shipped = ModelDocument(corpus.iter_elements("practice"))
    assert render.render_canonical(regenerated) == \
           render.render_canonical(shipped)

    for practice, phase in zip(regenerated.declarations, corpus.phases()):
        mapped = manifest["phases"][phase.phase]["mapped"]
        assert len(practice.members) == mapped["top_spaces"]
        nested = sum(element.kind == "space" and depth > 1
                     for _, element, _, depth in walk_element(practice))
        assert nested == mapped["nested_spaces"]
        assert len(activities_of(practice)) == mapped["activities"]


def test_corpus_method_shape(corpus):
    (method,) = corpus.methods()
    assert method.name == "adm"
    assert method.preamble == "Preliminary"
    assert method.cycle == tuple(f"Phase {x}" for x in "ABCDEFGH")
    assert method.concurrent == ("Requirements Management",)
