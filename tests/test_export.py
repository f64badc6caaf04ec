from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esskit import dsl, render, validator
from esskit.diagnostics import Diagnostic, ResolveError, Severity, SourceSpan
from esskit.model import (Activity, ActivitySpec, Alpha, AlphaState, Area, Competency,
                          CompetencyGrade, Contribution, Kernel, Method, ModelDocument,
                          Practice, Role, Space, StepSpec, TogafPhase, WorkProduct)

from conftest import (EXPORT_TREE_KEYS, collision_document, generate_document,
                      parse_with_kernel)


def test_minimal_kernel_export_shape():
    document = dsl.parse('kernel "K" { area Customer color green }')
    tree = json.loads(render.export_json(document))
    assert tree["areas"] == [{"id": "area.customer", "name": "Customer",
                              "kind": "area", "color": "green"}]
    assert list(tree) == EXPORT_TREE_KEYS
    for key in EXPORT_TREE_KEYS[1:]:
        assert tree[key] == []


def test_export_requires_resolution():
    document = dsl.parse('method "m" { cycle "Ghost Practice" }')
    with pytest.raises(ResolveError) as failure:
        render.export_json(document)
    assert "Ghost Practice" in str(failure.value)


def test_export_corpus_is_deterministic(corpus):
    first = render.export_json(corpus)
    second = render.export_json(corpus)
    assert first == second
    tree = json.loads(first)
    assert len(tree["competencies"]) == 7
    assert [c["name"] for c in tree["competencies"]] == [
        "Stakeholder Representation", "Analysis", "Development", "Testing",
        "Leadership", "Management", "Governance"]
    assert [c["builtin"] for c in tree["competencies"]] == [True] * 6 + [False]


def test_export_references_are_ids(corpus):
    tree = json.loads(render.export_json(corpus))
    (method,) = tree["methods"]
    assert method["preamble"] == "practice.preliminary"
    assert method["cycle"][0] == "practice.phase_a"
    assert method["concurrent"] == ["practice.requirements_management"]

    phase_a = next(p for p in tree["practices"] if p["id"] == "practice.phase_a")
    space = next(s for s in phase_a["spaces"] if s["id"].endswith("define_scope"))
    produced = space["activities"][0]["produces"][0]
    assert produced["work_product"] == \
           "practice.phase_a/workproduct.statement_of_architecture_work"
    assert produced["rendered"] == "Statement of Architecture Work: scope"


def test_export_dot_escapes_quotes():
    document = parse_with_kernel(
        'practice "The \\"Practice\\"" area Customer { goal "g" }')
    dot = render.export_dot(document)
    assert '[label="The \\"Practice\\""' in dot


def test_phase_records_keep_same_named_siblings_apart():
    document = parse_with_kernel(
        'togaf_phase A "Vision" { objective "o"\n'
        '  step "S" { activity "D" { activity "x" tag builds } }\n'
        '  step "S" { activity "D" tag leads } }')
    phase = json.loads(render.export_json(document))["phases"][0]

    def names(records):
        return [(r["name"], names(r["activities"])) for r in records]

    assert [(step["name"], names(step["activities"])) for step in phase["steps"]] == [
        ("S", [("D", [("x", [])])]),
        ("S", [("D", [])]),
    ]


def test_export_takes_a_resolved_model_without_resolving_again(corpus, monkeypatch):
    model = validator.resolve(corpus)
    expected = render.export_json(corpus)

    def refuse(document):
        raise AssertionError("resolved twice")

    monkeypatch.setattr(validator, "resolve", refuse)
    assert render.export_json(model) == expected


@pytest.mark.parametrize("level", [None, "3", 2.5])
def test_export_refuses_a_level_that_is_not_an_int(level):
    # Only a hand-built document holds one; the writer raises rather than
    # write text that is not JSON.
    document = ModelDocument([Role(name="R", competencies=(CompetencyGrade("A", level),))])
    with pytest.raises((TypeError, ValueError)):
        render.export_json(validator.ResolvedModel(document))


# Strings with quotes, backslashes, control characters, non-ASCII characters
# and lone surrogates, which the standard encoder passes through unescaped.
_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                          st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\udfff')))
# Every string field the writer quotes: the names, which the test prefixes
# with a letter so that each yields an id, and the other strings.
_NAMES = ("alpha", "state", "competency", "kernel_space", "kernel_output", "role",
          "practice", "output", "space", "activity", "product", "method", "letter",
          "phase", "phase_output", "step", "spec")
_STRINGS = ("item", "kernel_goal", "description", "goal", "input", "space_goal", "part",
            "tag", "objective", "step_goal", "spec_tag", "feed_part", "path", "message",
            "hint", "file")


def _drawn_document(s: dict):
    """A document built by hand with the string ``s[field]`` in each field,
    and a diagnostic built likewise."""
    kernel = Kernel(name="K", members=(
        Alpha(name=s["alpha"], area=Area.CUSTOMER, states=(
            AlphaState(name=s["state"], checklist=(s["item"],)),)),
        Competency(name=s["competency"], area=Area.SOLUTION),
        Space(name=s["kernel_space"], area=Area.ENDEAVOR, goal=s["kernel_goal"]),
        WorkProduct(name=s["kernel_output"], description=s["description"])))
    practice = Practice(
        name=s["practice"], area=Area.CUSTOMER, goals=(s["goal"],), inputs=(s["input"],),
        outputs=(WorkProduct(name=s["output"]),), members=(Space(
            name=s["space"], goal=s["space_goal"], members=(Activity(
                name=s["activity"], produces=(Contribution(s["product"], s["part"]),),
                role=s["role"], tags=(s["tag"],)),)),))
    phase = TogafPhase(
        phase=s["letter"], name=s["phase"], objective=s["objective"],
        outputs=(WorkProduct(name=s["phase_output"]),), steps=(StepSpec(
            name=s["step"], goal=s["step_goal"], activities=(ActivitySpec(
                name=s["spec"], tags=(s["spec_tag"],),
                feeds=(Contribution(s["phase_output"], s["feed_part"]),)),)),))
    document = ModelDocument([
        kernel, Role(name=s["role"], competencies=(CompetencyGrade(s["competency"], 2),)),
        practice, Method(name=s["method"], cycle=(s["practice"],)), phase])
    diagnostic = Diagnostic("V001", Severity.ERROR, s["path"], s["message"],
                            SourceSpan(s["file"], 1, 2, 1, 3), s["hint"])
    return document, diagnostic


@settings(max_examples=150, derandomize=True, deadline=None)
@given(drawn=st.fixed_dictionaries({field: _TEXT for field in _NAMES + _STRINGS}))
def test_emitter_writes_what_the_standard_encoder_writes(drawn):
    s = {field: "n" + text if field in _NAMES else text for field, text in drawn.items()}
    document, diagnostic = _drawn_document(s)
    out = render.export_json(validator.ResolvedModel(document), diagnostics=[diagnostic])
    assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"
    tree = json.loads(out)
    (alpha,), (competency,), (space,), (output,), (role,), (practice,), (method,), (phase,) = (
        tree[key] for key in ("alphas", "competencies", "spaces", "work_products", "roles",
                              "practices", "methods", "phases"))
    (state,), (inner,), (step,) = alpha["states"], practice["spaces"], phase["steps"]
    (activity,), (spec,) = inner["activities"], step["activities"]
    (produced,) = activity["produces"]
    assert produced["rendered"] == f"{s['product']}: {s['part']}"
    read = {
        "alpha": alpha["name"], "state": state["name"], "item": state["checklist"][0]["text"],
        "competency": competency["name"], "kernel_space": space["name"],
        "kernel_goal": space["goal"], "kernel_output": output["name"],
        "description": output["description"], "role": role["name"],
        "practice": practice["name"], "goal": practice["goals"][0],
        "input": practice["inputs"][0], "output": practice["outputs"][0]["name"],
        "space": inner["name"], "space_goal": inner["goal"], "activity": activity["name"],
        "product": s["product"], "part": produced["part"], "tag": activity["tags"][0],
        "method": method["name"], "letter": phase["phase"], "phase": phase["name"],
        "objective": phase["objective"], "phase_output": phase["outputs"][0]["name"],
        "step": step["name"], "step_goal": step["goal"], "spec": spec["name"],
        "spec_tag": spec["tags"][0], "feed_part": spec["feeds"][0]["part"],
        **{key: tree["diagnostics"][0][key] for key in ("path", "message", "hint", "file")},
    }
    assert read == s
    assert tree["diagnostics"] == [diagnostic.to_record()]


def test_emitter_writes_tuples_as_arrays():
    # Element fields are tuples, some empty and some holding records that
    # hold tuples; each is written as the standard encoder writes an array.
    practice = Practice(name="P", area=Area.CUSTOMER, goals=("g1", "g2"), members=(Space(
        name="S", members=(Activity(name="A", requires=(CompetencyGrade("C", 1),),
                                    tags=("t",)),)),))
    document = ModelDocument([
        Kernel(name="K", members=(Competency(name="C", area=Area.SOLUTION),)), practice])
    out = render.export_json(validator.ResolvedModel(document))
    assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"
    (written,) = json.loads(out)["practices"]
    assert (written["goals"], written["inputs"], written["outputs"]) == (["g1", "g2"], [], [])
    (space,) = written["spaces"]
    assert (space["spaces"], written["activities"]) == ([], [])
    (activity,) = space["activities"]
    assert activity["requires"] == [{"competency": "competency.c", "level": 1}]
    assert (activity["produces"], activity["tags"]) == ([], ["t"])


def _models(corpus):
    # Generated documents need not resolve; the tree is built from the model
    # as given.
    rng = random.Random(20260809)
    yield validator.resolve(corpus)
    for _ in range(120):
        yield validator.ResolvedModel(generate_document(rng))


def test_export_is_the_standard_encoding_of_its_tree(corpus):
    for model in _models(corpus):
        out = render.export_json(model)
        assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"


def test_exports_are_pinned():
    # sha256 over both exports of 60 generated documents and the hand-built
    # one, taken with the exporters that walked each practice again, with
    # the tree's always-empty "assessments" member removed.
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for document in [generate_document(rng) for _ in range(60)] + [collision_document()]:
        digest.update(render.export_json(validator.ResolvedModel(document)).encode("utf-8"))
        digest.update(render.export_dot(document).encode("utf-8"))
    assert digest.hexdigest() == (
        "aec91892894fa6a7f26f2032270d671c6277a76b78951aa8e08f6b572b9621e3")
