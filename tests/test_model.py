from __future__ import annotations

import pytest

from esskit.model import (
    Activity,
    ActivitySpec,
    Alpha,
    AlphaState,
    Area,
    Contribution,
    Kernel,
    ModelDocument,
    Practice,
    Space,
    StepSpec,
    TogafPhase,
    WorkProduct,
    WorkProductCategory,
    dotted_id,
    element_id,
    iter_elements,
    lookup,
    merge,
    slug,
    walk_specs,
)


@pytest.mark.parametrize("name,expected", [
    ("Phase A", "phase_a"),
    ("Stakeholder Representation", "stakeholder_representation"),
    ("Refined Statements of Business Principles, Goals, and Drivers",
     "refined_statements_of_business_principles_goals_and_drivers"),
    ("  padded  ", "padded"),
    ("ALL CAPS", "all_caps"),
])
def test_slug(name, expected):
    assert slug(name) == expected


def test_slug_rejects_unusable_names():
    with pytest.raises(ValueError):
        slug("...")


def test_area_pairing_is_fixed():
    assert [a.value for a in Area] == ["Customer", "Solution", "Endeavor"]
    assert Area.CUSTOMER.color == "green"
    assert Area.SOLUTION.color == "yellow"
    assert Area.ENDEAVOR.color == "blue"
    assert len(list(WorkProductCategory)) == 4


def test_contribution_text_round_trip():
    assert Contribution.from_text("Vision") == Contribution("Vision", None)
    split = Contribution.from_text("Statement of Architecture Work: scope")
    assert split == Contribution("Statement of Architecture Work", "scope")
    assert split.rendered_name() == "Statement of Architecture Work: scope"
    nested = Contribution.from_text("A: b: c")
    assert (nested.work_product, nested.part) == ("A", "b: c")


def test_alpha_item_keys_positional():
    alpha = Alpha(name="Work", area=Area.ENDEAVOR, states=(
        AlphaState(name="Started", checklist=("a", "b")),
        AlphaState(name="Done", checklist=("c",)),
    ))
    assert alpha.item_keys() == ("1.1", "1.2", "2.1")


def _tiny_practice() -> Practice:
    inner = Space(name="Inner", members=(
        Activity(name="Act Two"),
    ))
    return Practice(name="Phase A", area=Area.CUSTOMER, goals=("g",),
                    members=(Space(name="Outer", members=(
                        Activity(name="Act One"), inner)),))


def test_element_ids_qualify_by_containment():
    practice = _tiny_practice()
    document = ModelDocument([practice])
    assert element_id(practice) == "practice.phase_a"
    assert document.lookup("practice.phase_a/space.outer") is not None
    activity = document.lookup("practice.phase_a/space.outer/space.inner/activity.act_two")
    assert activity is not None and activity.name == "Act Two"


def test_lookup_absent_is_none():
    empty = ModelDocument()
    assert lookup(empty, "practice.anything") is None
    assert iter_elements(empty, "practice") == ()


def test_corpus_lookup_and_iteration(corpus):
    governance = lookup(corpus, "competency.governance")
    assert governance is not None and governance.name == "Governance"
    assert governance.kernel_builtin is False
    management = lookup(corpus, "competency.management")
    assert management.kernel_builtin is True

    phase_a = lookup(corpus, "practice.phase_a")
    assert phase_a is not None and phase_a.name == "Phase A"

    areas = iter_elements(corpus, "area")
    assert [a.name for a in areas] == ["Customer", "Solution", "Endeavor"]
    assert len(iter_elements(corpus, "competency")) == 7


def test_document_equality_ignores_spans(corpus):
    from esskit import dsl, render

    text = render.render_canonical(corpus)
    again = dsl.parse(text, "elsewhere.ess")
    assert again == corpus


def test_id_collisions_detected():
    practice = _tiny_practice()
    document = ModelDocument([practice, practice])
    collisions = document.id_collisions()
    assert collisions
    assert collisions[0][0] == "practice.phase_a"


def test_merge_preserves_order(corpus):
    first = ModelDocument([_tiny_practice()])
    combined = merge(first, ModelDocument())
    assert combined.declarations == first.declarations


def test_dotted_id():
    assert dotted_id("practice", "Phase A") == "practice.phase_a"


def test_walk_carries_ids_parents_and_depths():
    kernel = Kernel(name="K", members=(
        Alpha(name="Work", area=Area.ENDEAVOR,
              states=(AlphaState(name="Started", checklist=("a",)),)),
        Space(name="Explore", area=Area.CUSTOMER),
    ))
    practice = Practice(
        name="P", area=Area.SOLUTION, goals=("g",),
        outputs=(WorkProduct(name="Plan"),),
        members=(
            Space(name="Outer", members=(
                Space(name="Inner", members=(Activity(name="Draft"),)),
                Activity(name="Review"))),
            Activity(name="Loose"),
        ))
    again = Kernel(name="L", members=(Space(name="Explore", area=Area.SOLUTION),))
    document = ModelDocument([kernel, practice, again])
    outer = "practice.p/space.outer"
    assert [(ident, parent, depth) for ident, _, parent, depth in document.walk()] == [
        ("kernel.k", None, 0),
        ("alpha.work", None, 0),
        ("alpha.work/state.started", "alpha.work", 1),
        ("space.explore", None, 0),
        ("practice.p", None, 0),
        ("practice.p/workproduct.plan", "practice.p", 1),
        (outer, "practice.p", 1),
        (f"{outer}/space.inner", outer, 2),
        (f"{outer}/space.inner/activity.draft", f"{outer}/space.inner", 3),
        (f"{outer}/activity.review", outer, 2),
        ("practice.p/activity.loose", "practice.p", 1),
        ("kernel.l", None, 0),
        ("space.explore", None, 0),
    ]
    assert document.walk() is document.walk()
    for kind in ("kernel", "alpha", "state", "space", "workproduct",
                 "activity", "practice", "role"):
        assert document.iter_elements(kind) == tuple(
            element for _, element, _, _ in document.walk()
            if getattr(element, "kind", None) == kind)
    first: dict = {}
    for ident, element, _, _ in document.walk():
        first.setdefault(ident, element)
    for ident in first:
        assert lookup(document, ident) is first[ident]
    assert lookup(document, "space.explore").area is Area.CUSTOMER


def test_walk_specs_carries_paths_chains_and_parents():
    leaf = ActivitySpec(name="Leaf", tags=("builds",))
    phase = TogafPhase(phase="A", name="Vision", objective="o", steps=(
        StepSpec(name="Scope", activities=(
            ActivitySpec(name="Engage", sub_activities=(leaf,)),
            ActivitySpec(name="Engage", tags=("leads",)))),
        StepSpec(name="Scope"),
    ))
    step = "phase.a/step.scope"
    assert [(path, chain, parent) for path, _, chain, parent in walk_specs(phase)] == [
        (step, ("Scope",), "phase.a"),
        (f"{step}/activity.engage", ("Scope", "Engage"), step),
        (f"{step}/activity.engage/activity.leaf", ("Scope", "Engage", "Leaf"),
         f"{step}/activity.engage"),
        (f"{step}/activity.engage", ("Scope", "Engage"), step),
        (step, ("Scope",), "phase.a"),
    ]
    assert [spec for _, spec, _, _ in walk_specs(phase)][2] is leaf
    # Specs are not elements: the document walk, index and collisions skip them.
    document = ModelDocument([phase])
    assert [ident for ident, _, _, _ in document.walk()] == ["phase.a"]
    assert document.lookup(step) is None and document.id_collisions() == ()
