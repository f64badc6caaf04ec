from __future__ import annotations

from collections import Counter

import pytest

from esskit import lint, validator
from esskit.lint import LINT_RULES, UnknownRuleError, run_lints
from esskit.model import Activity, Area, ModelDocument, Practice, Space

from conftest import parse_with_kernel


def _lint(source: str, enabled=None):
    model = validator.resolve(parse_with_kernel(source))
    return run_lints(model, enabled)


def test_catalog_is_exactly_four_warning_rules():
    assert [r.id for r in LINT_RULES] == ["L001", "L002", "L003", "L004"]
    assert all(r.severity.value == "warning" for r in LINT_RULES)


def test_empty_model_lints_clean():
    model = validator.resolve(ModelDocument())
    assert run_lints(model) == []


def test_unfed_output_fires_l001():
    diagnostics = _lint(
        'practice "P" area Customer { goal "g" output "Architecture Vision" }')
    assert [d.rule for d in diagnostics] == ["L001"]
    assert "Architecture Vision" in diagnostics[0].message
    assert diagnostics[0].path.endswith("workproduct.architecture_vision")


def test_l001_monotonicity_under_feeding():
    unfed = ('practice "P" area Customer { goal "g"\n'
             '  output "Architecture Vision"\n'
             '  output "Capability Assessment"\n'
             '  space "S" { ACTIVITY } }')
    before = _lint(unfed.replace("ACTIVITY", 'activity "idle" tag builds'))
    after = _lint(unfed.replace(
        "ACTIVITY", 'activity "idle" produces "Architecture Vision" tag builds'))
    removed = set(d.path for d in before) - set(d.path for d in after)
    assert len(before) == 2 and len(after) == 1
    assert removed == {"practice.p/workproduct.architecture_vision"}


def test_conflicting_definitions_fire_l002():
    diagnostics = _lint(
        'practice "P1" area Customer { goal "g"\n'
        '  output "Request for Architecture Work" category other }\n'
        'practice "P2" area Customer { goal "g"\n'
        '  output "Request for Architecture Work" category catalog }',
        enabled={"L002"})
    assert [d.rule for d in diagnostics] == ["L002", "L002"]
    assert "'P1'" in diagnostics[0].message and "'P2'" in diagnostics[0].message


def test_l002_normalizes_description_whitespace():
    diagnostics = _lint(
        'practice "P1" area Customer { goal "g"\n'
        '  output "W" category other description "one  two" }\n'
        'practice "P2" area Customer { goal "g"\n'
        '  output "W" category other description "one two" }',
        enabled={"L002"})
    assert diagnostics == []


def test_l002_conflicting_descriptions_fire():
    diagnostics = _lint(
        'practice "P1" area Customer { goal "g"\n'
        '  output "W" category other description "left" }\n'
        'practice "P2" area Customer { goal "g"\n'
        '  output "W" category other description "right" }',
        enabled={"L002"})
    assert len(diagnostics) == 2


def test_unassigned_role_fires_l003():
    diagnostics = _lint('role "Idle Architect" { competency Analysis @ 3 }',
                        enabled={"L003"})
    assert [d.rule for d in diagnostics] == ["L003"]

    assigned = _lint(
        'role "Busy Architect" { competency Analysis @ 3 }\n'
        'practice "P" area Customer { goal "g" space "S" {\n'
        '  activity "a" role "Busy Architect" tag builds } }',
        enabled={"L003"})
    assert assigned == []


def test_opaque_space_fires_l004():
    diagnostics = _lint(
        'practice "P" area Customer { goal "g" space "Mystery" { } }',
        enabled={"L004"})
    assert [d.rule for d in diagnostics] == ["L004"]
    assert "Mystery" in diagnostics[0].message


def test_space_with_goal_or_nested_activities_is_not_opaque():
    assert _lint('practice "P" area Customer { goal "g"\n'
                 '  space "S" goal "explained" { } }', enabled={"L004"}) == []
    assert _lint('practice "P" area Customer { goal "g"\n'
                 '  space "Parent" { space "Child" {\n'
                 '    activity "a" tag builds } } }', enabled={"L004"}) == []


def test_goalless_kernel_space_is_opaque():
    diagnostics = _lint('kernel "K2" { space "Bare" area Customer }',
                        enabled={"L004"})
    assert [d.rule for d in diagnostics] == ["L004"]


def test_l004_on_a_deep_chain_is_exact():
    depth = 400
    blocks = []
    for level in range(1, depth + 1):
        goal = ' goal "known"' if level == 300 else ""
        activity = 'activity "a" tag builds ' if level == 200 else ""
        blocks.append(f'space "S{level}"{goal} {{ {activity}')
    diagnostics = _lint('practice "P" area Customer { goal "g" ' + "".join(blocks)
                        + "} " * depth + "}", enabled={"L004"})
    opaque = sorted(int(d.path.rsplit("/space.s", 1)[1]) for d in diagnostics)
    assert opaque == [level for level in range(201, depth + 1) if level != 300]


@pytest.mark.parametrize("busy_first", [False, True])
def test_l004_tells_sibling_spaces_with_one_id_apart(busy_first):
    twins = (Space(name="Twin"), Space(name="Twin", members=(Activity(name="a"),)))
    practice = Practice(name="P", area=Area.CUSTOMER, goals=("g",),
                        members=twins[::-1] if busy_first else twins)
    model = validator.ResolvedModel(ModelDocument([practice]))
    assert [d.path for d in run_lints(model, {"L004"})] == ["practice.p/space.twin"]


def test_empty_enabled_set_runs_nothing(corpus_model):
    assert run_lints(corpus_model, set()) == []


def test_unknown_rule_id_rejected(corpus_model):
    with pytest.raises(UnknownRuleError) as failure:
        run_lints(corpus_model, {"L001", "L999"})
    message = str(failure.value)
    assert "L999" in message
    for valid in ("L001", "L002", "L003", "L004"):
        assert valid in message


def test_corpus_lint_counts_match_manifest(corpus_model, manifest):
    counts = Counter(d.rule for d in run_lints(corpus_model))
    assert dict(counts) == manifest["lints"]
    assert counts["L001"] >= 1
    assert counts["L003"] >= 1
    assert counts["L004"] >= 1


def test_lints_are_warnings_only(corpus_model):
    assert all(not d.is_error for d in run_lints(corpus_model))


def test_ordering_by_declaration_then_rule():
    source = ('role "Zed" { competency Analysis @ 3 }\n'
              'practice "P" area Customer { goal "g"\n'
              '  output "Unfed"\n'
              '  space "Opaque" { } }')
    diagnostics = _lint(source)
    assert [d.rule for d in diagnostics] == ["L003", "L001", "L004"]
