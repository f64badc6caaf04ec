from __future__ import annotations

import hashlib
import random
import re
from collections import Counter

import pytest

from esskit import dsl, lint, togaf, validator
from esskit.diagnostics import ParseError, ResolveError
from esskit.model import (
    Activity,
    Area,
    CompetencyGrade,
    Contribution,
    Kernel,
    Method,
    ModelDocument,
    Practice,
    Role,
    Space,
    WorkProduct,
    merge,
)
from esskit.validator import AreaProfile

from conftest import KERNEL_PRELUDE, collision_document, generate_document, parse_with_kernel


def _rules(diagnostics):
    return [d.rule for d in diagnostics]


def _check(source: str, max_depth: int = 3):
    model, diagnostics = validator.check(dsl.parse(KERNEL_PRELUDE + source),
                                         max_depth=max_depth)
    return model, diagnostics


def test_empty_model_has_no_diagnostics():
    model, diagnostics = validator.check(ModelDocument())
    assert model is not None
    assert diagnostics == []


def test_corpus_resolves_clean(corpus):
    model, diagnostics = validator.check(corpus)
    assert model is not None
    assert diagnostics == []


def test_dangling_competency_is_v001():
    source = ('practice "P" area Customer { goal "g" space "S" {\n'
              '  activity "a" requires Alchemy @ 3\n} }')
    with pytest.raises(ResolveError) as failure:
        validator.resolve(dsl.parse(KERNEL_PRELUDE + source))
    diagnostics = failure.value.diagnostics
    assert _rules(diagnostics) == ["V001"]
    assert "Alchemy" in diagnostics[0].message
    assert diagnostics[0].path.endswith("activity.a")


def test_dangling_method_and_role_and_feed_references():
    source = ('method "m" { cycle "Ghost" }\n'
              'togaf_phase A "V" { objective "o"\n'
              '  step "S" { activity "a" tag builds feeds "Nothing" role "Nobody" } }')
    with pytest.raises(ResolveError) as failure:
        validator.resolve(dsl.parse(KERNEL_PRELUDE + source))
    messages = " | ".join(d.message for d in failure.value.diagnostics)
    assert "Ghost" in messages
    assert "Nothing" in messages
    assert "Nobody" in messages


def test_duplicate_work_product_names_are_v002():
    practice = Practice(
        name="P", area=Area.CUSTOMER, goals=("g",),
        outputs=(WorkProduct(name="Architecture Vision"),
                 WorkProduct(name="Architecture Vision")))
    with pytest.raises(ResolveError) as failure:
        validator.resolve(ModelDocument([practice]))
    diagnostics = failure.value.diagnostics
    assert _rules(diagnostics) == ["V002"]
    assert "Architecture Vision" in diagnostics[0].message


def test_practice_without_goal_is_v010():
    practice = Practice(name="P", area=Area.CUSTOMER, goals=())
    model = validator.resolve(ModelDocument([practice]))
    diagnostics = validator.check_wellformedness(model)
    assert _rules(diagnostics) == ["V010"]


def test_nesting_depth_boundary():
    source = ('practice "P" area Customer { goal "g"\n'
              '  space "d1" { space "d2" { space "d3" { space "d4" {\n'
              '  } } } } }')
    _, diagnostics = _check(source)
    assert _rules(diagnostics) == ["V011"]
    assert "depth 4" in diagnostics[0].message

    _, relaxed = _check(source, max_depth=4)
    assert relaxed == []


def test_kernel_space_cycle_is_v012():
    source = ('kernel "K2" {\n'
              '  space "A" area Customer in "B"\n'
              '  space "B" area Customer in "A"\n'
              '}')
    _, diagnostics = _check(source)
    assert set(_rules(diagnostics)) == {"V012"}
    assert len(diagnostics) == 2


def test_kernel_space_chain_depth_counts_from_root():
    source = ('kernel "K2" {\n'
              '  space "A" area Customer\n'
              '  space "B" area Customer in "A"\n'
              '  space "C" area Customer in "B"\n'
              '  space "D" area Customer in "C"\n'
              '}')
    _, diagnostics = _check(source)
    assert _rules(diagnostics) == ["V011"]


def test_level_out_of_range_is_v013():
    source = ('role "R" { competency Analysis @ 6 }\n'
              'practice "P" area Customer { goal "g" space "S" {\n'
              '  activity "a" requires Analysis @ 0\n} }')
    _, diagnostics = _check(source)
    assert _rules(diagnostics).count("V013") == 2


def test_grades_above_the_declared_levels_are_v013():
    source = ('kernel "K2" { competency Modeling area Solution levels 2 }\n'
              'role "R" { competency Modeling @ 4 }\n'
              'practice "P" area Solution { goal "g" space "S" {\n'
              '  activity "a" requires Modeling @ 3 role "R"\n'
              '  activity "b" requires Modeling @ 2 } }')
    _, diagnostics = _check(source)
    assert [(d.path, d.message) for d in diagnostics if d.rule == "V013"] == [
        ("role.r", "level 4 for competency 'Modeling' is outside 1..2"),
        ("practice.p/space.s/activity.a",
         "required level 3 for 'Modeling' is outside 1..2"),
    ]


def test_multi_feeder_missing_part_is_v014():
    source = ('practice "P" area Customer { goal "g"\n'
              '  output "Statement of Architecture Work"\n'
              '  space "S" {\n'
              '    activity "one" produces "Statement of Architecture Work"\n'
              '    activity "two" produces "Statement of Architecture Work"\n'
              '  } }')
    _, diagnostics = _check(source)
    assert _rules(diagnostics) == ["V014"]
    assert "one" in diagnostics[0].message and "two" in diagnostics[0].message


def test_multi_feeder_duplicate_parts_are_v014():
    source = ('practice "P" area Customer { goal "g"\n'
              '  output "W"\n'
              '  space "S" {\n'
              '    activity "one" produces "W: scope"\n'
              '    activity "two" produces "W: scope"\n'
              '  } }')
    _, diagnostics = _check(source)
    assert _rules(diagnostics) == ["V014"]
    assert "distinct" in diagnostics[0].message


def test_multi_feeder_with_parts_is_clean():
    source = ('practice "P" area Customer { goal "g"\n'
              '  output "W"\n'
              '  space "S" {\n'
              '    activity "one" produces "W: scope"\n'
              '    activity "two" produces "W: schedule"\n'
              '  } }')
    _, diagnostics = _check(source)
    assert diagnostics == []


def test_area_mismatch_is_v015_warning():
    source = ('practice "P" area Endeavor { goal "g" space "S" {\n'
              '  activity "a" requires Stakeholder_Representation @ 3\n'
              '  activity "b" requires Stakeholder_Representation @ 3\n'
              '  activity "c" requires Stakeholder_Representation @ 3\n'
              '} }')
    _, diagnostics = _check(source)
    assert _rules(diagnostics) == ["V015"]
    assert not diagnostics[0].is_error
    assert "Customer" in diagnostics[0].message


def test_declared_area_in_plurality_tie_is_silent():
    # One Endeavor space (inherited) against one Customer requirement: tied,
    # and the declared area is in the tie, so no warning.
    source = ('practice "P" area Endeavor { goal "g" space "S" {\n'
              '  activity "a" requires Stakeholder_Representation @ 3\n'
              '} }')
    _, diagnostics = _check(source)
    assert diagnostics == []


def test_stray_activity_is_v016():
    practice = Practice(name="P", area=Area.CUSTOMER, goals=("g",),
                        members=(Activity(name="loose"),))
    model = validator.resolve(ModelDocument([practice]))
    diagnostics = validator.check_wellformedness(model)
    assert _rules(diagnostics) == ["V016"]
    assert diagnostics[0].path == "practice.p/activity.loose"


@pytest.mark.parametrize("method,messages", [
    (Method(name="m", cycle=()), ["method 'm' has an empty cycle"]),
    (Method(name="m", cycle=("A",), preamble="A"),
     ["method 'm' lists preamble 'A' inside the cycle"]),
    (Method(name="m", cycle=("A", "B"), concurrent=("B",)),
     ["method 'm' lists concurrent practice(s) B inside the cycle"]),
    (Method(name="m", cycle=("A",), preamble="P", concurrent=("P",)),
     ["method 'm' lists preamble 'P' as concurrent"]),
    # enact prints the first V017 line check prints.
    (Method(name="m", cycle=("P", "Q"), preamble="P", concurrent=("Q",)),
     ["method 'm' lists concurrent practice(s) Q inside the cycle",
      "method 'm' lists preamble 'P' inside the cycle"]),
], ids=["empty-cycle", "preamble-in-cycle", "concurrent-in-cycle",
        "preamble-concurrent", "preamble-and-concurrent-in-cycle"])
def test_unenactable_method_is_v017(method, messages):
    from esskit.progress import EnactmentError, start_enactment

    practices = [Practice(name=name, area=Area.CUSTOMER, goals=("g",))
                 for name in ("A", "B", "P", "Q")]
    model = validator.resolve(ModelDocument([*practices, method]))
    assert [(d.rule, d.path, d.message) for d in validator.check_wellformedness(model)] == [
        ("V017", "method.m", message) for message in messages]
    with pytest.raises(EnactmentError) as failure:
        start_enactment(method)
    assert str(failure.value) == messages[0]


def test_area_profile_single_area_example(kernel_model):
    document = parse_with_kernel(
        'practice "P" area Customer { goal "g"\n'
        '  space "S1" { activity "a" requires Stakeholder_Representation @ 3\n'
        '               activity "b" requires Stakeholder_Representation @ 3 }\n'
        '  space "S2" { activity "c" requires Stakeholder_Representation @ 3 }\n'
        '}')
    model = validator.resolve(document)
    profile = validator.compute_area_profile(model, model.practices["P"])
    assert profile.counts == {Area.CUSTOMER: 5, Area.SOLUTION: 0,
                              Area.ENDEAVOR: 0}
    assert profile.plurality == {Area.CUSTOMER}


def test_area_profile_empty_practice():
    document = parse_with_kernel('practice "P" area Customer { goal "g" }')
    model = validator.resolve(document)
    profile = validator.compute_area_profile(model, model.practices["P"])
    assert profile.total == 0
    assert profile.plurality == frozenset()



def test_unresolved_model_requirement_counts_in_no_area():
    # ResolvedModel is public and skips resolve(), so a requirement may name
    # a competency the model does not declare.
    document = parse_with_kernel(
        'practice "P" area Customer { goal "g"\n'
        '  space "S" { activity "a" requires Nope @ 3\n'
        '              activity "b" requires Analysis @ 3 } }')
    model = validator.ResolvedModel(document)
    profile = validator.compute_area_profile(model, model.practices["P"])
    assert profile.counts == {Area.CUSTOMER: 1, Area.SOLUTION: 1, Area.ENDEAVOR: 0}
    assert validator.check_wellformedness(model) == []

# Hand counts over the corpus files, recorded before the implementation ran:
# Preliminary has 6 top-level spaces and requirement areas C6/S6/E2; Phase A
# has 11 top-level spaces and requirement areas C11/S10/E4. Spaces inherit
# the practice area (Customer for both).
PRELIMINARY_PROFILE = {Area.CUSTOMER: 12, Area.SOLUTION: 6, Area.ENDEAVOR: 2}
PHASE_A_PROFILE = {Area.CUSTOMER: 22, Area.SOLUTION: 10, Area.ENDEAVOR: 4}


def test_corpus_area_profiles_match_hand_count(corpus_model):
    preliminary = validator.compute_area_profile(
        corpus_model, corpus_model.practices["Preliminary"])
    assert preliminary.counts == PRELIMINARY_PROFILE
    assert preliminary.plurality == {Area.CUSTOMER}

    phase_a = validator.compute_area_profile(
        corpus_model, corpus_model.practices["Phase A"])
    assert phase_a.counts == PHASE_A_PROFILE
    assert phase_a.plurality == {Area.CUSTOMER}


def test_plurality_invariant_under_duplication(kernel_model):
    base = parse_with_kernel(
        'practice "P" area Endeavor { goal "g"\n'
        '  space "S1" { activity "a" requires Analysis @ 3 }\n'
        '  space "S2" { activity "b" requires Stakeholder_Representation @ 3\n'
        '               activity "c" requires Stakeholder_Representation @ 3 }\n'
        '}')
    model = validator.resolve(base)
    practice = model.practices["P"]
    profile = validator.compute_area_profile(model, practice)

    doubled = Practice(
        name="P doubled", area=practice.area, goals=practice.goals,
        members=practice.members + tuple(
            Space(name=s.name + " copy", goal=s.goal, members=s.members)
            for s in practice.members))
    doubled_model = validator.resolve(
        ModelDocument(base.declarations + (doubled,)))
    doubled_profile = validator.compute_area_profile(doubled_model, doubled)

    assert doubled_profile.counts == {a: 2 * n for a, n in profile.counts.items()}
    assert doubled_profile.plurality == profile.plurality


def test_validation_is_idempotent(corpus):
    first = validator.check(corpus)[1]
    second = validator.check(corpus)[1]
    assert first == second


def test_diagnostic_paths_resolve(corpus):
    source = ('practice "Q" area Endeavor { goal "g" space "S" {\n'
              '  activity "a" requires Stakeholder_Representation @ 3\n'
              '  activity "b" requires Stakeholder_Representation @ 3\n'
              '  activity "c" requires Stakeholder_Representation @ 3\n'
              '} }')
    document = parse_with_kernel(source)
    model, diagnostics = validator.check(document)
    assert diagnostics
    for diagnostic in diagnostics:
        assert document.lookup(diagnostic.path) is not None


def test_area_profile_defaults_all_areas():
    profile = AreaProfile()
    assert profile.counts == {a: 0 for a in Area}


def test_kernel_space_chain_declared_child_first_needs_no_recursion():
    count = 2000
    source = 'kernel "K2" {\n' + "".join(
        f'  space "S{n}" area Customer in "S{n - 1}"\n' for n in range(count - 1, 0, -1)
    ) + '  space "S0" area Customer\n}'
    _, diagnostics = _check(source)
    assert _rules(diagnostics) == ["V011"] * (count - 3)
    assert diagnostics[0].message == ("space nested at depth 2000 exceeds the "
                                      "maximum of 3")
    _, relaxed = _check(source, max_depth=10**6)
    assert relaxed == []


def test_parentless_records_count_as_document_level():
    # The walk lists kernel members and declarations with no parent, so a role
    # or a practice among a kernel's members and a space among the
    # declarations are all checked and linted like the declarations and
    # kernel members parse builds.
    document = ModelDocument([
        Kernel(name="K", members=(
            Role(name="R", competencies=(CompetencyGrade("X", 9),)),
            Practice(name="P", area=Area.CUSTOMER, goals=("g",),
                     outputs=(WorkProduct(name="W"),)))),
        Space(name="S", area=Area.CUSTOMER, parent="Nope")])
    model, diagnostics = validator.check(document)
    assert model is None
    assert [(d.rule, d.path, d.message) for d in diagnostics] == [
        ("V001", "role.r", "reference to undeclared competency 'X'"),
        ("V001", "space.s", "reference to undeclared space 'Nope'")]
    unresolved = validator.ResolvedModel(document)
    assert (list(unresolved.roles), list(unresolved.practices),
            list(unresolved.kernel_spaces)) == (["R"], ["P"], ["S"])
    assert [(d.rule, d.path, d.message)
            for d in validator.check_wellformedness(unresolved)] == [
        ("V013", "role.r", "level 9 for competency 'X' is outside 1..5")]
    assert [(d.rule, d.path, d.message) for d in lint.run_lints(unresolved)] == [
        ("L001", "practice.p/workproduct.w",
         "output 'W' is not produced by any activity of practice 'P'"),
        ("L003", "role.r", "role 'R' is never named responsible for any activity"),
        ("L004", "space.s", "space 'S' has no goal and no activities")]


def _corpus_line_mutations(count: int, seed: int):
    """The merged corpus with one line of one file deleted, doubled, or with
    its digits, strings or capitalised words replaced; variants that no longer
    parse are dropped."""
    rng = random.Random(seed)
    files = togaf.corpus_files()
    parsed = {name: dsl.parse(files[name], name) for name in togaf.CORPUS_FILES}
    for _ in range(count):
        name = rng.choice(togaf.CORPUS_FILES)
        lines = files[name].split("\n")
        at = rng.choice([i for i, line in enumerate(lines) if line.strip()])
        line = lines[at]
        edit = rng.randrange(5)
        if edit == 0:
            del lines[at]
        elif edit == 1:
            lines.insert(at, line)
        else:
            pattern = (r"\d", r'"[^"]*"', r"\b[A-Z][A-Za-z_]+\b")[edit - 2]
            pool = "0123456789" if edit == 2 else re.findall(pattern, files[name])
            lines[at] = re.sub(pattern, lambda _: rng.choice(pool), line)
        try:
            document = dsl.parse("\n".join(lines), name)
        except ParseError:
            continue
        yield merge(*(document if n == name else parsed[n] for n in togaf.CORPUS_FILES))


def _rule_outcome_lines(document: ModelDocument):
    for depth in (3, 1):
        model, found = validator.check(document, max_depth=depth)
        yield f"check {depth} {'resolved' if model else 'unresolved'}"
        yield from (d.render_line() for d in found)
        yield f"wellformed {depth}"
        yield from (d.render_line() for d in validator.check_wellformedness(
            validator.ResolvedModel(document), max_depth=depth))
    yield "lint"
    yield from (d.render_line() for d in lint.run_lints(validator.ResolvedModel(document)))


# sha256 of the outcome lines of 300 generated documents, the hand-built
# collision document, one document for the rules neither reaches (V010, V012)
# and the corpus variants, taken from the validator that walked each
# declaration kind on its own; V018 lines are left out.
_RULE_OUTCOMES_SHA256 = "f0620b5ec15c68c84f58e13f639da29bd3c9870cc71a9b55f638ea34c4908de0"
# sha256 of the V018 lines alone, taken when the mapper's refusals became a
# rule, and the count of each kind of fault among them under ``check 3``.
_MAPPING_FAULTS_SHA256 = "59f5cb471dd283b5e35c52f720369bc1f1830ae8d9c7949aa96b9d419afa13ee"
_MAPPING_FAULTS_AT_CHECK_3 = {
    "kernel is missing required competencies": 22,
    "would map to the same": 8,
    "must name its part": 2,
    "must not repeat part": 2,
}


def test_rule_outcomes_are_pinned():
    rng = random.Random(20261019)
    unreached = ModelDocument([
        Kernel(name="K", members=(Space(name="A", area=Area.CUSTOMER, parent="B"),
                                  Space(name="B", area=Area.CUSTOMER, parent="A"))),
        Practice(name="P", area=Area.CUSTOMER, goals=())])
    documents = [generate_document(rng) for _ in range(300)]
    documents += [collision_document(), unreached]
    documents += _corpus_line_mutations(600, seed=20261019)
    digest, faults = hashlib.sha256(), hashlib.sha256()
    rules, section, kinds = set(), "", Counter()
    for document in documents:
        for line in _rule_outcome_lines(document):
            rules.add(line.split()[0])
            if line.split()[0] in ("check", "wellformed", "lint"):
                section = line
            if not line.startswith("V018 "):
                digest.update(line.encode("utf-8") + b"\n")
                continue
            faults.update(line.encode("utf-8") + b"\n")
            if section.startswith("check 3 "):
                kinds[next((kind for kind in _MAPPING_FAULTS_AT_CHECK_3 if kind in line),
                           line)] += 1
    every_rule = {"V001", "V002", *(f"V{n:03}" for n in range(10, 19)), *lint.VALID_RULE_IDS}
    assert every_rule <= rules
    assert digest.hexdigest() == _RULE_OUTCOMES_SHA256
    assert dict(kinds) == _MAPPING_FAULTS_AT_CHECK_3
    assert faults.hexdigest() == _MAPPING_FAULTS_SHA256
