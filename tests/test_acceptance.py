"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a failed assertion is the corresponding fail line.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from itertools import product

from hypothesis import given, settings

from esskit import dsl, lint, progress, render, togaf, validator
from esskit.cli import run
from esskit.model import ModelDocument, walk_specs

from conftest import generate_document, parse_with_kernel
from test_progress import KEYS, THREE_BY_TWO, oracle_achieved, _state_index
from test_togaf import MAPPING_FIXTURE, check_mapping_rules, phase_specs


def _materialize(tmp_path):
    dest = tmp_path / "corpus"
    dest.mkdir()
    for name, text in togaf.corpus_files().items():
        (dest / name).write_text(text, encoding="utf-8")
    return sorted(str(p) for p in dest.glob("*.ess"))


def test_criterion_1_corpus_integrity(tmp_path, capsys, manifest):
    started = time.perf_counter()
    code = run(["check", *_materialize(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "0 errors, 0 warnings\n"

    corpus = togaf.load_corpus()
    kernel = manifest["kernel"]
    assert len(corpus.iter_elements("area")) == kernel["areas"] == 3
    assert len(corpus.iter_elements("alpha")) == kernel["alphas"]
    assert len(corpus.iter_elements("competency")) == kernel["competencies"] == 7
    assert len(corpus.phases()) == 10
    assert len(corpus.iter_elements("practice")) == manifest["practices"]
    assert len(corpus.iter_elements("role")) == manifest["roles"]
    assert len(corpus.methods()) == manifest["methods"]
    for phase in corpus.phases():
        entry = manifest["phases"][phase.phase]
        assert len(phase.steps) == entry["steps"]
        assert sum(spec.kind == "activity"
                   for _, spec, _, _ in walk_specs(phase)) == entry["activities"]
        assert len(phase.outputs) == entry["outputs"]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"corpus check took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 PASS: corpus checks clean and matches the "
          f"manifest in {elapsed:.2f}s")


def test_criterion_2_round_trip(corpus):
    started = time.perf_counter()
    documents = [corpus]
    rng = random.Random(20260809)
    documents.extend(generate_document(rng) for _ in range(110))
    for index, document in enumerate(documents):
        text = render.render_canonical(document)
        reparsed = dsl.parse(text, f"rt-{index}.ess")
        assert reparsed == document
        assert render.render_canonical(reparsed) == text
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"round-trip took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2 PASS: {len(documents)} documents round-trip "
          f"with idempotent rendering in {elapsed:.2f}s")


def test_criterion_3_mapping_rules():
    model = validator.resolve(dsl.parse(MAPPING_FIXTURE, "fixture"))

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(spec=phase_specs())
    def run_property(spec):
        check_mapping_rules(spec, model)
        first = togaf.map_phase(spec, model)
        second = togaf.map_phase(spec, model)
        assert render.render_canonical(ModelDocument([first])) == \
               render.render_canonical(ModelDocument([second]))

    run_property()
    print("\nACCEPTANCE 3 PASS: mapping rules R1-R6 hold on generated "
          "phase specifications with byte-identical renders")


def test_criterion_4_assessment_oracle():
    vectors = list(product([False, True], repeat=len(KEYS)))
    assert len(vectors) == 64
    for bits in vectors:
        answers = dict(zip(KEYS, bits))
        assert progress.assess_alpha(THREE_BY_TWO, answers) == \
               oracle_achieved(THREE_BY_TWO, answers)
        before = _state_index(THREE_BY_TWO,
                              progress.assess_alpha(THREE_BY_TWO, answers))
        for key in KEYS:
            raised = dict(answers, **{key: True})
            after = _state_index(THREE_BY_TWO,
                                 progress.assess_alpha(THREE_BY_TWO, raised))
            assert after >= before
    print("\nACCEPTANCE 4 PASS: all 64 answer vectors match the brute-force "
          "oracle and all 384 single-bit raises are monotone")


def test_criterion_5_adm_cycle(corpus):
    (method,) = corpus.methods()
    labels = togaf.phase_labels(corpus)

    state = progress.start_enactment(method)
    visited = [labels[state.current]]
    assert "practice.requirements_management" in progress.active_practices(state)
    for _ in range(19):
        state = progress.next_phase(state)
        visited.append(labels[state.current])
        assert "practice.requirements_management" in \
               progress.active_practices(state)

    assert visited == ["P", "A", "B", "C", "D", "E", "F", "G", "H",
                       "A", "B", "C", "D", "E", "F", "G", "H",
                       "A", "B", "C"]
    print("\nACCEPTANCE 5 PASS: 20-step enactment visits "
          "P,A-H,A-H,A,B,C with Requirements Management always active")


def test_criterion_6_lint_reproduction(corpus_model, manifest):
    counts = Counter(d.rule for d in lint.run_lints(corpus_model))
    assert dict(counts) == manifest["lints"]
    for rule in ("L001", "L003", "L004"):
        assert counts[rule] >= 1, f"{rule} did not fire on the corpus"

    conflict = parse_with_kernel(
        'practice "P1" area Customer { goal "g"\n'
        '  output "Request for Architecture Work" category other }\n'
        'practice "P2" area Customer { goal "g"\n'
        '  output "Request for Architecture Work" category catalog }')
    fixture_lints = lint.run_lints(validator.resolve(conflict), {"L002"})
    assert fixture_lints and all(d.rule == "L002" for d in fixture_lints)
    print(f"\nACCEPTANCE 6 PASS: corpus lints match the frozen manifest "
          f"({json.dumps(manifest['lints'])}) and L002 fires on the "
          "constructed conflict")


def test_criterion_7_validator_invariants(tmp_path, capsys):
    # Empty model: zero diagnostics.
    model, diagnostics = validator.check(ModelDocument())
    assert model is not None and diagnostics == []

    # Plurality is invariant under duplication of a practice's elements.
    base = parse_with_kernel(
        'practice "P" area Endeavor { goal "g"\n'
        '  space "S1" { activity "a" requires Analysis @ 3 }\n'
        '  space "S2" { activity "b" requires Stakeholder_Representation @ 3\n'
        '               activity "c" requires Stakeholder_Representation @ 3 }\n'
        '}')
    resolved = validator.resolve(base)
    practice = resolved.practices["P"]
    single = validator.compute_area_profile(resolved, practice)
    from esskit.model import Practice, Space
    doubled = Practice(
        name="P2", area=practice.area, goals=practice.goals,
        members=practice.members + tuple(
            Space(name=s.name + " copy", goal=s.goal, members=s.members)
            for s in practice.members))
    doubled_model = validator.resolve(ModelDocument(base.declarations + (doubled,)))
    assert validator.compute_area_profile(doubled_model, doubled).plurality \
           == single.plurality

    # Depth 4 rejected by default, accepted at --max-depth 4 (library + CLI).
    deep_source = ('practice "Deep" area Customer { goal "g"\n'
                   '  space "d1" { space "d2" { space "d3" { space "d4" { '
                   '} } } } }')
    deep = parse_with_kernel(deep_source)
    _, strict = validator.check(deep)
    assert [d.rule for d in strict] == ["V011"]
    _, relaxed = validator.check(deep, max_depth=4)
    assert relaxed == []

    deep_file = tmp_path / "deep.ess"
    from conftest import KERNEL_PRELUDE
    deep_file.write_text(KERNEL_PRELUDE + deep_source, encoding="utf-8")
    assert run(["check", str(deep_file)]) == 1
    assert run(["check", "--max-depth", "4", str(deep_file)]) == 0
    capsys.readouterr()
    print("\nACCEPTANCE 7 PASS: empty model clean, plurality stable under "
          "duplication, depth boundary obeys configuration")
