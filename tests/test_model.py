from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esskit import dsl, model, render
from esskit.diagnostics import Diagnostic, Severity, SourceSpan
from esskit.lint import LintRule
from esskit.model import (
    Activity,
    ActivitySpec,
    Alpha,
    AlphaState,
    Area,
    AreaDecl,
    Competency,
    CompetencyGrade,
    Contribution,
    Kernel,
    Method,
    ModelDocument,
    Practice,
    Role,
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
    walk_element,
    walk_specs,
)
from esskit.progress import EnactmentState
from esskit.validator import AreaProfile

from conftest import generate_document


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


def test_slug_memo_refuses_an_unusable_name_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="cannot derive an identifier"):
            slug("-- !")


def test_slug_memo_is_bounded():
    assert slug.cache_info().maxsize is not None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(name=st.text())
def test_slug_memo_returns_what_slugging_returns(name):
    try:
        expected = slug.__wrapped__(name)
    except ValueError:
        with pytest.raises(ValueError):
            slug(name)
        return
    assert slug(name) == expected


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


def _split(declarations, rng: random.Random) -> list[ModelDocument]:
    """``declarations`` as 1-3 files, each rendered and parsed on its own."""
    cuts = sorted(rng.sample(range(len(declarations) + 1), rng.randint(0, 2)))
    bounds = [0, *cuts, len(declarations)]
    return [dsl.parse(render.render_canonical(ModelDocument(declarations[a:b])),
                      f"part-{index}.ess")
            for index, (a, b) in enumerate(zip(bounds, bounds[1:]))]


def _duplicated_documents() -> list[list[ModelDocument]]:
    """Hand-built files that redeclare each other's and their own ids."""
    role = Role(name="Lead", competencies=(CompetencyGrade("Analysis", 3),))
    kernel = Kernel(name="K", members=(
        Competency(name="Analysis", area=Area.SOLUTION),
        Competency(name="analysis", area=Area.CUSTOMER)))
    return [
        [ModelDocument([role, _tiny_practice()]), ModelDocument([role])],
        [ModelDocument([kernel]), ModelDocument(), ModelDocument([kernel, role])],
        [ModelDocument([_tiny_practice(), _tiny_practice()]),
         ModelDocument([Role(name="lead", competencies=())])],
    ]


def _assert_merge_joins_the_walks(documents: list[ModelDocument]) -> None:
    merged = merge(*documents)
    whole = ModelDocument([d for document in documents for d in document.declarations])
    assert merged == whole
    assert merged.walk() == whole.walk()
    assert merged.id_collisions() == whole.id_collisions()
    for ident, _, _, _ in whole.walk():
        assert merged.lookup(ident) is whole.lookup(ident)


def test_merge_joins_the_walks_of_its_inputs():
    rng = random.Random(20261021)
    for _ in range(60):
        declarations = list(generate_document(rng).declarations)
        _assert_merge_joins_the_walks(_split(declarations, rng))
    for documents in _duplicated_documents():
        assert merge(*documents).id_collisions()
        _assert_merge_joins_the_walks(documents)


def test_merge_walks_no_declaration(monkeypatch):
    rng = random.Random(20261022)
    inputs = [_split(list(generate_document(rng).declarations), rng) for _ in range(20)]
    inputs += _duplicated_documents()
    expected = [ModelDocument([d for document in documents for d in document.declarations])
                for documents in inputs]

    def refuse(element):
        raise AssertionError("merge walked a declaration")

    monkeypatch.setattr(model, "walk_element", refuse)
    for documents, whole in zip(inputs, expected):
        merged = merge(*documents)
        assert merged.walk() == whole.walk()
        assert merged.id_collisions() == whole.id_collisions()


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


def _records(span: SourceSpan) -> dict:
    """One instance of each record type, by type name; the model elements
    and the diagnostic carry ``span``."""
    grade = CompetencyGrade(competency="Analysis", level=3)
    feed = Contribution(work_product="W", part="p")
    state = AlphaState(name="Initiated", checklist=("c",), span=span)
    method = Method(name="M", cycle=("A", "B"), preamble="P", span=span)
    spec = ActivitySpec(name="x", tags=("builds",), span=span)
    return {type(record).__name__: record for record in (
        span,
        Diagnostic(rule="V001", severity=Severity.ERROR, path="role.r", message="m",
                   span=span, hint="h"),
        LintRule("L009", "spare", Severity.WARNING, "d"),
        AreaDecl(area=Area.CUSTOMER, span=span),
        state,
        Alpha(name="Work", area=Area.ENDEAVOR, states=(state,), span=span),
        Competency(name="Analysis", area=Area.SOLUTION, max_level=4, span=span),
        grade,
        feed,
        WorkProduct(name="W", category=WorkProductCategory.CATALOG, span=span),
        Activity(name="a", requires=(grade,), produces=(feed,), role="R", span=span),
        Space(name="S", goal="g", members=(Activity(name="b", span=span),), span=span),
        Practice(name="P", area=Area.CUSTOMER, goals=("g",),
                 members=(Space(name="T", span=span),), span=span),
        Role(name="R", competencies=(grade,), span=span),
        method,
        spec,
        StepSpec(name="s", activities=(spec,), span=span),
        TogafPhase(phase="A", name="V", objective="o", span=span),
        Kernel(name="K", members=(AreaDecl(area=Area.SOLUTION, span=span),), span=span),
        EnactmentState(method=method, step=3),
        AreaProfile(counts={Area.SOLUTION: 2}),
    )}


_SPAN = SourceSpan("a.ess", 1, 1, 2, 3)
_MOVED = SourceSpan("b.ess", 7, 4, 7, 9)

# repr of each record in _records(_SPAN), as the dataclass-based types
# printed them.
_PINNED_REPRS = {
    "SourceSpan": "SourceSpan(file='a.ess', start_line=1, start_col=1, end_line=2, end_col=3)",
    "Diagnostic": ("Diagnostic(rule='V001', severity=<Severity.ERROR: 'error'>, "
                   "path='role.r', message='m', span=SourceSpan(file='a.ess', "
                   "start_line=1, start_col=1, end_line=2, end_col=3), hint='h')"),
    "LintRule": ("LintRule(id='L009', name='spare', severity=<Severity.WARNING: "
                 "'warning'>, description='d')"),
    "AreaDecl": "AreaDecl(area=<Area.CUSTOMER: 'Customer'>)",
    "AlphaState": "AlphaState(name='Initiated', checklist=('c',))",
    "Alpha": ("Alpha(name='Work', area=<Area.ENDEAVOR: 'Endeavor'>, "
              "states=(AlphaState(name='Initiated', checklist=('c',)),))"),
    "Competency": "Competency(name='Analysis', area=<Area.SOLUTION: 'Solution'>, max_level=4)",
    "CompetencyGrade": "CompetencyGrade(competency='Analysis', level=3)",
    "Contribution": "Contribution(work_product='W', part='p')",
    "WorkProduct": ("WorkProduct(name='W', category=<WorkProductCategory.CATALOG: "
                    "'catalog'>, description=None)"),
    "Activity": ("Activity(name='a', requires=(CompetencyGrade(competency='Analysis', "
                 "level=3),), produces=(Contribution(work_product='W', part='p'),), "
                 "role='R', tags=())"),
    "Space": ("Space(name='S', area=None, parent=None, goal='g', members=(Activity("
              "name='b', requires=(), produces=(), role=None, tags=()),))"),
    "Practice": ("Practice(name='P', area=<Area.CUSTOMER: 'Customer'>, goals=('g',), "
                 "inputs=(), outputs=(), members=(Space(name='T', area=None, "
                 "parent=None, goal=None, members=()),))"),
    "Role": "Role(name='R', competencies=(CompetencyGrade(competency='Analysis', level=3),))",
    "Method": "Method(name='M', cycle=('A', 'B'), preamble='P', concurrent=())",
    "ActivitySpec": ("ActivitySpec(name='x', tags=('builds',), feeds=(), role=None, "
                     "sub_activities=())"),
    "StepSpec": ("StepSpec(name='s', goal=None, activities=(ActivitySpec(name='x', "
                 "tags=('builds',), feeds=(), role=None, sub_activities=()),))"),
    "TogafPhase": "TogafPhase(phase='A', name='V', objective='o', steps=(), outputs=())",
    "Kernel": "Kernel(name='K', members=(AreaDecl(area=<Area.SOLUTION: 'Solution'>),))",
    "EnactmentState": ("EnactmentState(method=Method(name='M', cycle=('A', 'B'), "
                       "preamble='P', concurrent=()), step=3)"),
    "AreaProfile": ("AreaProfile(counts={<Area.SOLUTION: 'Solution'>: 2, "
                    "<Area.CUSTOMER: 'Customer'>: 0, <Area.ENDEAVOR: 'Endeavor'>: 0})"),
}


@pytest.mark.parametrize("kind", sorted(_PINNED_REPRS))
def test_record_contract(kind):
    record, copy, moved = (_records(span)[kind] for span in (_SPAN, _SPAN, _MOVED))
    assert repr(record) == _PINNED_REPRS[kind]
    assert record == copy and not record != copy
    if kind in ("SourceSpan", "Diagnostic"):
        assert record != moved
    else:
        assert record == moved  # model elements ignore their spans
    if kind == "AreaProfile":
        return  # unhashable; see test_area_profile_is_frozen_and_unhashable
    assert hash(record) == hash(copy)
    if record == moved:
        assert hash(record) == hash(moved)
    field = next(iter(vars(record)))
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == _PINNED_REPRS[kind]


def test_area_profile_is_frozen_and_unhashable():
    given = {Area.SOLUTION: 2}
    profile = AreaProfile(given)
    assert given == {Area.SOLUTION: 2}  # filled in a copy
    assert profile == AreaProfile({Area.SOLUTION: 2, Area.CUSTOMER: 0})
    assert profile != AreaProfile()
    with pytest.raises(AttributeError):
        profile.counts = {}
    with pytest.raises(AttributeError):
        del profile.counts
    with pytest.raises(TypeError):
        hash(profile)


def test_source_span_rejects_an_end_before_its_start():
    with pytest.raises(ValueError, match="span ends before it starts"):
        SourceSpan("a.ess", 2, 5, 2, 4)


def test_activity_iterators_keep_source_order_without_recursion():
    depth = 3000
    inner = Space(name="S0", members=(Activity(name="deepest"),))
    for level in range(1, depth):
        inner = Space(name=f"S{level}", members=(Activity(name=f"a{level}"), inner))
    practice = Practice(name="P", area=Area.CUSTOMER, goals=("g",),
                        members=(inner, Space(name="last", members=(Activity(name="z"),))))
    expected = [f"a{level}" for level in range(depth - 1, 0, -1)] + ["deepest"]
    assert [e.name for _, e, _, _ in walk_element(inner) if e.kind == "activity"] == expected
    assert [e.name for _, e, _, _ in walk_element(practice)
            if e.kind == "activity"] == expected + ["z"]


def test_walk_of_deep_nesting_carries_ids_parents_and_depths():
    depth = 3000
    inner = Space(name="S", members=(Activity(name="A"),))
    for _ in range(depth - 1):
        inner = Space(name="S", members=(inner,))
    walk = ModelDocument([Practice(name="P", area=Area.CUSTOMER, goals=("g",),
                                   members=(inner,))]).walk()
    assert [entry[2:] for entry in walk[:2]] == [(None, 0), ("practice.p", 1)]
    assert [entry[3] for entry in walk] == list(range(depth + 2))
    for (parent_id, *_), (ident, element, owner_id, _) in zip(walk, walk[1:]):
        assert owner_id == parent_id
        assert ident == f"{parent_id}/{element.kind}.{element.name.lower()}"
    assert walk[-1][1].kind == "activity"
