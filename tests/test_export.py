from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esskit import dsl, render, validator
from esskit.diagnostics import ResolveError

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


# Strings with quotes, backslashes, control characters, non-ASCII characters
# and lone surrogates, which the standard encoder passes through unescaped.
_TEXT = st.text(st.one_of(st.characters(exclude_categories=()),
                          st.sampled_from('"\\\x00\x1f\x7f\u2028\ud800\udfff')))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _TEXT),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=40)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(value=_JSON)
def test_emitter_writes_what_the_standard_encoder_writes(value):
    assert render._json(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def test_emitter_writes_tuples_as_arrays():
    value = {"pair": (1, ("x", ())), "empty": {}}
    assert render._json(value) == json.dumps(value, indent=2, ensure_ascii=False) + "\n"


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
