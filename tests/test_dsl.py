from __future__ import annotations

import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esskit import dsl, render, togaf, validator
from esskit.diagnostics import ParseError
from esskit.model import (
    Activity,
    ActivitySpec,
    Alpha,
    AlphaState,
    Area,
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
    WorkProductCategory,
)

from conftest import generate_document


def _diagnostics(source: str):
    with pytest.raises(ParseError) as failure:
        dsl.parse(source, "bad.ess")
    return failure.value.diagnostics


def test_minimal_kernel():
    document = dsl.parse('kernel "K" { area Customer color green }')
    assert [a.area for a in document.iter_elements("area")] == [Area.CUSTOMER]


def test_ident_underscores_decode_to_spaces():
    document = dsl.parse(
        'kernel "K" { competency Stakeholder_Representation area Customer }')
    (competency,) = document.declarations[0].members
    assert competency.name == "Stakeholder Representation"
    assert competency.max_level == 5


def test_practice_requires_goal():
    diagnostics = _diagnostics('practice "P" area Customer {}')
    assert any("practice requires at least one goal" in d.message
               for d in diagnostics)


def test_syntax_error_has_span_and_hint():
    diagnostics = _diagnostics('kernel "K" { area Customer colour green }')
    d = diagnostics[0]
    assert d.span is not None and d.span.file == "bad.ess"
    assert d.span.start_line == 1
    assert d.hint == "'color'"
    assert 1 <= d.span.start_col <= 41


def test_error_spans_stay_inside_input():
    source = 'kernel "K" {\n  area Customer color blue\n}'
    for d in _diagnostics(source):
        lines = source.split("\n")
        assert 1 <= d.span.start_line <= len(lines)
        assert d.span.start_col <= len(lines[d.span.start_line - 1]) + 1


def test_area_color_pairing_enforced():
    diagnostics = _diagnostics('kernel "K" { area Customer color blue }')
    assert "must be green" in diagnostics[0].message


def test_unknown_area_category_tag_and_phase():
    assert "unknown area" in _diagnostics(
        'kernel "K" { area Wonderland color green }')[0].message
    assert "unknown category" in _diagnostics(
        'kernel "K" { workproduct "W" category scroll }')[0].message
    assert "unknown tag" in _diagnostics(
        'togaf_phase A "V" { objective "o" step "S" { activity "a" tag sings } }'
    )[0].message
    assert "unknown phase id" in _diagnostics(
        'togaf_phase Z "V" { objective "o" }')[0].message


def test_duplicate_id_names_both_spans():
    source = 'kernel "K" { area Customer color green }\n' \
             'kernel "K2" { area Customer color green }'
    diagnostics = _diagnostics(source)
    assert diagnostics[0].rule == "P002"
    assert "first declared at bad.ess:1" in diagnostics[0].message
    assert diagnostics[0].span.start_line == 2


def test_recovery_reports_multiple_errors():
    source = ('practice "P" area Customer {}\n'
              'kernel "K" { area Customer color blue }\n')
    diagnostics = _diagnostics(source)
    assert len(diagnostics) >= 2


def test_unterminated_string():
    diagnostics = _diagnostics('kernel "K')
    assert "unterminated string" in diagnostics[0].message


def test_invalid_escape():
    diagnostics = _diagnostics('kernel "a\\n" { }')
    assert "invalid escape" in diagnostics[0].message


def test_escaped_quote_round_trips():
    document = dsl.parse('role "The \\"Board\\"" { competency Analysis @ 3 }')
    (role,) = document.declarations
    assert role.name == 'The "Board"'
    assert dsl.parse(render.render_canonical(document)) == document


def test_produces_splits_on_first_colon():
    document = dsl.parse(
        'practice "P" area Customer { goal "g" output "W" space "S" {\n'
        '  activity "a" produces "W: left: right"\n} }')
    (activity,) = document.iter_elements("activity")
    contribution = activity.produces[0]
    assert contribution.work_product == "W"
    assert contribution.part == "left: right"


def test_crlf_and_comments_accepted():
    source = 'kernel "K" {\r\n  # comment\r\n  area Customer color green\r\n}\r\n'
    document = dsl.parse(source)
    assert len(document.declarations[0].members) == 1


def test_empty_document():
    document = dsl.parse("")
    assert document == ModelDocument()
    assert render.render_canonical(document) == ""


def test_practice_output_category_defaults_to_other():
    document = dsl.parse('practice "P" area Customer { goal "g" output "W" }')
    (wp,) = document.declarations[0].outputs
    assert wp.category is WorkProductCategory.OTHER


def test_corpus_parses_with_expected_shape(corpus):
    assert len(corpus.iter_elements("area")) == 3
    assert len(corpus.iter_elements("competency")) == 7
    assert len(corpus.iter_elements("practice")) == 10
    assert len(corpus.methods()) == 1


def test_corpus_round_trip(corpus):
    text = render.render_canonical(corpus)
    reparsed = dsl.parse(text, "round-trip.ess")
    assert reparsed == corpus
    assert render.render_canonical(reparsed) == text


def test_round_trip_generated_documents():
    rng = random.Random(20260809)
    for index in range(120):
        document = generate_document(rng)
        text = render.render_canonical(document)
        reparsed = dsl.parse(text, f"generated-{index}.ess")
        assert reparsed == document, f"document {index} did not round-trip"
        assert render.render_canonical(reparsed) == text


def test_render_deterministic(corpus):
    assert render.render_canonical(corpus) == render.render_canonical(corpus)


def test_render_rejects_backslash():
    document = ModelDocument([Role(name="bad\\name", competencies=())])
    with pytest.raises(ValueError):
        render.render_canonical(document)


_LEXER_STRING = re.compile(dsl._TOKEN_PATTERNS["STRING"], re.VERBOSE).fullmatch


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=st.one_of(st.text(alphabet=st.sampled_from('ab "\\\n\r\té#{')), st.text()))
def test_render_writes_a_string_exactly_when_the_lexer_reads_it_back(text):
    quoted = '"' + text.replace('"', '\\"') + '"'
    if _LEXER_STRING(quoted) is None:
        with pytest.raises(ValueError, match="not representable as a string"):
            render._string(text)
    else:
        assert render._string(text) == quoted


def test_render_writers_call_the_string_check():
    assert render._WRITERS["name"] is render._string
    assert render._WRITERS["string"] is render._string
    with pytest.raises(ValueError, match="not representable as a string"):
        render._WRITERS["contribution"](Contribution("W", "line\nbreak"))


def test_render_refuses_an_activity_directly_in_a_practice():
    # The V016 case: constructible by hand, but the grammar has no clause for it.
    practice = Practice(name="P", area=Area.CUSTOMER, goals=("g",),
                        members=(Activity(name="loose"),))
    with pytest.raises(TypeError, match="cannot render practice member Activity"):
        render.render_canonical(ModelDocument([practice]))


def _phase(phase: str = "A", tags: tuple[str, ...] = ("builds",)) -> TogafPhase:
    return TogafPhase(phase=phase, name="Vision", objective="o", steps=(
        StepSpec(name="S", activities=(ActivitySpec(name="x", tags=tags),)),))


@pytest.mark.parametrize("document, message", [
    (ModelDocument([Practice(name="P", area=Area.CUSTOMER, goals=("g",), members=(
        Space(name="S", members=(Activity(name="a", tags=("two words",)),)),))]),
     "tag 'two words' is not representable as an identifier"),
    (ModelDocument([_phase(tags=("sings",))]), "activity tag 'sings' is not one of"),
    (ModelDocument([_phase(phase="Z")]), "phase id 'Z' is not one of"),
    (ModelDocument([Kernel(name="K", members=(Space(
        name="S", area=Area.CUSTOMER, members=(Activity(name="a"),)),))]),
     "kernel_space block cannot write the members of space 'S'"),
    (ModelDocument([Practice(name="P", area=Area.CUSTOMER, goals=("g",), members=(
        Space(name="S", area=Area.SOLUTION),))]),
     "space block cannot write the area of space 'S'"),
    (ModelDocument([Practice(name="P", area=Area.CUSTOMER, goals=("g",), members=(
        Space(name="S"), Space(name="T", parent="S")))]),
     "space block cannot write the parent of space 'T'"),
    (ModelDocument([Practice(name="P", area=Area.CUSTOMER, goals=())]),
     "practice block of practice 'P' requires at least one 'goal' clause"),
    (ModelDocument([Role(name="R", competencies=())]),
     "role block of role 'R' requires at least one 'competency' clause"),
    (ModelDocument([Method(name="M", cycle=())]),
     "method block of method 'M' requires at least one 'cycle' clause"),
    (ModelDocument([Kernel(name="K", members=(Alpha(name="A", area=Area.CUSTOMER, states=()),))]),
     "alpha block of alpha 'A' requires at least one 'state' clause"),
    (ModelDocument([Kernel(name="K", members=(Alpha(name="A", area=Area.CUSTOMER, states=(
        AlphaState(name="S", checklist=()),)),))]),
     "state block of state 'S' requires at least one 'check' clause"),
    (ModelDocument([_phase(tags=())]), "activity 'x' requires a 'tag' clause or a sub-activity"),
    (ModelDocument([_phase(tags=("builds", "verifies", "builds"))]),
     "activity 'x' repeats a 'tag' clause"),
    (ModelDocument([Role(name="R", competencies=(CompetencyGrade("A", -1),))]),
     "level -1 is not representable as an integer"),
    (ModelDocument([Role(name="R", competencies=(CompetencyGrade("A", True),))]),
     "level True is not representable as an integer"),
    (ModelDocument([Kernel(name="K", members=(
        Competency(name="A", area=Area.SOLUTION, max_level=-2),))]),
     "level -2 is not representable as an integer"),
    (ModelDocument([Practice(name="P", area=Area.CUSTOMER, goals=("g",), members=(
        Space(name="S", members=(Activity(name="a", requires=(
            CompetencyGrade("A", -3),)),)),))]),
     "level -3 is not representable as an integer"),
    (ModelDocument([Practice(name="P", area=Area.CUSTOMER, goals=("g",), members=(
        Space(name="S", members=(Activity(name="a", produces=(
            Contribution("Vision: Draft"),)),)),))]),
     "work product 'Vision: Draft' is not representable in a contribution"),
    (ModelDocument([TogafPhase(phase="A", name="Vision", objective="o", steps=(
        StepSpec(name="S", activities=(ActivitySpec(name="x", tags=("builds",), feeds=(
            Contribution("Vision: Draft", "scope"),)),)),))]),
     "work product 'Vision: Draft' is not representable in a contribution"),
    (ModelDocument([Kernel(name="K", members=(
        Competency(name="Foo_Bar", area=Area.SOLUTION),))]),
     "name 'Foo_Bar' is not representable as an identifier"),
    (ModelDocument([Kernel(name="K", members=(Alpha(name="Work_Item", area=Area.CUSTOMER,
        states=(AlphaState(name="S", checklist=("c",)),)),))]),
     "name 'Work_Item' is not representable as an identifier"),
    (ModelDocument([Kernel(name="K", members=(Alpha(name="A", area=Area.CUSTOMER,
        states=(AlphaState(name="Work_Item", checklist=("c",)),)),))]),
     "name 'Work_Item' is not representable as an identifier"),
    (ModelDocument([Role(name="R", competencies=(CompetencyGrade("Foo_Bar", 2),))]),
     "name 'Foo_Bar' is not representable as an identifier"),
], ids=["word", "tag", "phase", "kernel-space-members", "practice-space-area",
        "practice-space-parent", "practice-goals", "role-competencies", "method-cycle",
        "alpha-states", "state-checklist", "spec-without-tags", "spec-repeated-tag",
        "role-negative-level", "role-bool-level", "competency-negative-levels",
        "activity-negative-requires", "produces-separator-in-name",
        "feeds-separator-in-name", "competency-underscore", "alpha-underscore",
        "state-underscore", "grade-underscore"])
def test_render_refuses_values_the_parser_rejects(document, message):
    with pytest.raises(ValueError, match=message):
        render.render_canonical(document)
    assert dsl.parse(render.render_canonical(ModelDocument([_phase()])))


def test_deep_nesting_is_a_parse_error():
    body = 'space "S" { ' * 3000 + "} " * 3000
    diagnostics = _diagnostics('practice "P" area Customer { goal "g" ' + body + "}")
    assert diagnostics[-1].rule == dsl.SYNTAX_RULE
    assert diagnostics[-1].message == "blocks nested too deeply to parse"
    assert diagnostics[-1].span.file == "bad.ess"


def test_levels_zero_is_kept_and_out_of_range():
    document = dsl.parse('kernel "K" { competency Analysis area Solution levels 0 '
                         'competency Testing area Solution }')
    assert [c.max_level for c in document.iter_elements("competency")] == [0, 5]
    _, diagnostics = validator.check(document)
    assert [(d.rule, d.path) for d in diagnostics] == [("V013", "competency.analysis")]


def test_underscore_only_names_are_parse_errors():
    diagnostics = _diagnostics(
        'kernel "K" { alpha A area Customer { state _ { check "c" } } }')
    assert [(d.rule, d.message) for d in diagnostics] == [
        ("P001", "state name ' ' contains no usable characters")]


# Properties -------------------------------------------------------------------

# Lexemes of every token kind, each as it appears in the source.
_LEXEMES = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True).map(lambda t: ("IDENT", t)),
    st.from_regex(r"[0-9]+", fullmatch=True).map(lambda t: ("INT", t)),
    st.from_regex(r'"(?:[^"\\\n]|\\")*"', fullmatch=True).map(lambda t: ("STRING", t)),
    st.sampled_from([("LBRACE", "{"), ("RBRACE", "}"), ("AT", "@")]),
)
_SEPARATORS = st.one_of(st.from_regex(r"[ \t\r\n]+", fullmatch=True),
                        st.from_regex(r"#[^\n]*\n", fullmatch=True))
# Text built from the language's own words, so that parsing gets past the
# first token more often than on arbitrary text.
_WORDS = st.lists(st.sampled_from([
    "kernel", "practice", "method", "role", "togaf_phase", "area", "alpha",
    "state", "check", "competency", "levels", "space", "workproduct", "category",
    "goal", "input", "output", "activity", "requires", "produces", "tag", "in",
    "preamble", "cycle", "concurrent", "objective", "step", "feeds", "color",
    "description", "Customer", "Solution", "green", "A", "_", "__", "3", "0",
    "{", "}", "@", '"x"', '"x: y"', '"!"', '"', "\\", "#", "\n", "\r", "é"]),
    max_size=40).map(" ".join)


def _lexed(source: str):
    line_starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    words = [t for t in dsl.tokenize(source) if t[0] in ("IDENT", "STRING", "INT")]
    return source, line_starts, words


_CORPUS = [_lexed(text) for name, text in sorted(togaf.corpus_files().items())
           if name.endswith(".ess")]


@st.composite
def _mutated_corpus(draw):
    """A corpus file with one to three words, names or numbers replaced, so
    that parsing reaches the declaration rules with odd names and numbers."""
    source, line_starts, words = draw(st.sampled_from(_CORPUS))
    chosen = draw(st.lists(st.integers(0, len(words) - 1), min_size=1, max_size=3,
                           unique=True))
    for index in sorted(chosen, reverse=True):
        _, _, line, col, end_line, end_col = words[index]
        start = line_starts[line - 1] + col - 1
        end = line_starts[end_line - 1] + end_col
        replacement = draw(st.sampled_from(
            ["_", "__", "A", '"!"', '""', "0", "9", "{", "}", "@", ""]))
        source = source[:start] + replacement + source[end:]
    return source


# Role declarations with arbitrary string names, so that some inputs parse.
_ROLES = st.lists(st.from_regex(r'(?:[^"\\\n]|\\")*', fullmatch=True), max_size=3).map(
    lambda names: "".join(f'role "{name}" {{ competency A @ 1 }}\n' for name in names))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(source=st.one_of(st.text(), _WORDS, _ROLES))
def test_tokenize_and_parse_are_total(source):
    try:
        dsl.tokenize(source)
        document = dsl.parse(source)
    except ParseError:
        return
    assert dsl.parse(render.render_canonical(document)) == document


def _slice_stops(source: str) -> list[int]:
    """Where the lexer's slices of ``source`` end."""
    stops, start = [], 0
    while start < len(source):
        start = source.find("\n", start + dsl._SLICE) + 1 or len(source)
        stops.append(start)
    return stops


# Lines that end one slice and start the next in _sliced_source.
_EDGE_LINES = ("# only a comment, with \"quotes\" and { @ }", "\r",
               'role "R \\"1\\"" { competency Analysis @ 3 }\r', "  # indented comment",
               '"a string" "two" 12ab', "\t\r")
_FILLER = ('kernel "K" {\r', "  area Customer color green # trailing", "",
           '  competency Stakeholder_Representation area Customer levels 5', "}")


def _sliced_source() -> str:
    """Text of more than three slices whose edges fall on _EDGE_LINES."""
    lines: list[str] = []
    size, start = 0, 0
    for ending, starting in zip(_EDGE_LINES[::2], _EDGE_LINES[1::2]):
        stop = start + dsl._SLICE  # the slice ends with the line holding this
        index = 0
        while size + len(_FILLER[index % 5]) + 1 < stop - len(ending) - 80:
            lines.append(_FILLER[index % 5])
            size += len(lines[-1]) + 1
            index += 1
        lines.append(" " * (stop - len(ending) - size - 1))  # blanks up to ``ending``
        lines += [ending, starting]
        start = stop + 1
        size = start + len(starting) + 1
    lines += _FILLER * 40
    return "\n".join(lines)


def _lexed_line_by_line(source: str) -> list[tuple]:
    tokens = []
    lines = source.split("\n")
    for number, line in enumerate(lines, 1):
        tokens += [(kind, value, number, col, number, end_col)
                   for kind, value, _, col, _, end_col in dsl.tokenize(line, "f.ess")[:-1]]
    return tokens + [("EOF", "", len(lines), len(lines[-1]) + 1,
                      len(lines), len(lines[-1]) + 1)]


def test_lexing_in_slices_matches_each_line_lexed_alone():
    source = _sliced_source()
    stops = _slice_stops(source)
    assert len(stops) > 3
    for stop, ending, starting in zip(stops, _EDGE_LINES[::2], _EDGE_LINES[1::2]):
        assert source[:stop - 1].rsplit("\n", 1)[-1] == ending
        assert source[stop:].split("\n", 1)[0] == starting
    for text in (source, source + "\n", source + "\n  \t", source + "  "):
        assert dsl.tokenize(text, "f.ess") == _lexed_line_by_line(text)


@pytest.mark.parametrize("bad, message, offset", [
    ("\x0b", "unexpected character '\\x0b'", 0),
    ('"a\\n"', 'invalid escape sequence; only \\" is supported', 2),
    ('"open', "unterminated string", 0),
], ids=["character", "escape", "unterminated"])
def test_lexical_errors_after_the_first_slice(bad, message, offset):
    source = _sliced_source()
    stops = _slice_stops(source)
    for at in (stops[0], stops[1] + 1, stops[2] - 2):
        line = source.count("\n", 0, at) + 1
        col = at - (source.rfind("\n", 0, at) + 1) + 1
        with pytest.raises(ParseError) as failure:
            dsl.tokenize(source[:at] + bad + source[at:], "f.ess")
        (diagnostic,) = failure.value.diagnostics
        assert diagnostic.message == message
        assert (diagnostic.span.start_line, diagnostic.span.start_col) == \
            (line, col + offset)


def test_parse_lexes_through_the_public_tokenize_once(monkeypatch):
    # A profiler that wraps dsl.tokenize sees every parse's lexing.
    rng = random.Random(20261020)
    sources = [(text, name) for name, text in sorted(togaf.corpus_files().items())
               if name.endswith(".ess")]
    sources += [(render.render_canonical(generate_document(rng)), f"gen{n}.ess")
                for n in range(20)]
    expected = [dsl.parse(source, file) for source, file in sources]
    calls = []
    tokenize = dsl.tokenize

    def counting(*args):
        calls.append(args)
        return tokenize(*args)

    monkeypatch.setattr(dsl, "tokenize", counting)
    for (source, file), document in zip(sources, expected):
        calls.clear()
        assert dsl.parse(source, file) == document
        assert calls == [(source, file)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(source=_mutated_corpus())
def test_parse_is_total_on_mutated_corpus(source):
    try:
        dsl.parse(source)
    except ParseError:
        pass


@settings(max_examples=100, derandomize=True, deadline=None)
@given(lexemes=st.lists(st.tuples(_LEXEMES, _SEPARATORS)))
def test_token_spans_slice_back_to_their_text(lexemes):
    source = "".join(text + separator for (_, text), separator in lexemes)
    tokens = dsl.tokenize(source)
    lines = source.split("\n")
    assert [t[0] for t in tokens] == [kind for (kind, _), _ in lexemes] + ["EOF"]
    for (kind, value, line, col, end_line, end_col), ((_, text), _) in zip(tokens, lexemes):
        assert end_line == line
        assert lines[line - 1][col - 1:end_col] == text
        if kind == "STRING":
            assert text == '"' + value.replace('"', '\\"') + '"'
        elif kind == "INT":
            assert value == int(text)
        else:
            assert value == text
    eof = tokens[-1]
    assert eof[2:4] == (len(lines), len(lines[-1]) + 1)


# Guards on the grammar table -----------------------------------------------------

# Fragments spliced into corpus text: punctuation, keywords in the wrong
# place, names and numbers.
_FRAGMENTS = ['"', '""', '"x"', "{", "}", "@", "\\", "#", "\n", " ", "_", "0", "7",
              "goal", "space", "activity", "area", "color", "tag", "levels", "check",
              "state", "output", "step", "feeds", "category", "in", "role", "kernel",
              "Customer", "green", "scroll", "sings", "Z"]
_TOP_LEVEL = ("kernel", "practice", "method", "role", "togaf_phase")


def _corpus_variants(count: int, seed: int, fragments=tuple(_FRAGMENTS)):
    """Seeded mutations and truncations of corpus windows of 1-60 lines,
    most of them starting at a top-level declaration."""
    rng = random.Random(seed)
    files = [text.split("\n") for name, text in sorted(togaf.corpus_files().items())
             if name.endswith(".ess")]
    for index in range(count):
        lines = rng.choice(files)
        starts = [i for i, line in enumerate(lines) if line.startswith(_TOP_LEVEL)]
        at_declaration = starts and rng.random() < 0.8
        start = rng.choice(starts) if at_declaration else rng.randrange(len(lines))
        source = "\n".join(lines[start:start + rng.randint(1, 60)])
        if index % 4 == 0:
            yield source[:rng.randrange(len(source) + 1)]
            continue
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(source) + 1)
            source = source[:at] + rng.choice(fragments) + source[at + rng.randint(0, 6):]
        yield source


def _outcome_lines(source: str):
    try:
        dsl.parse(source, "variant.ess")
    except ParseError as failure:
        for d in failure.diagnostics:
            span = d.span and (d.span.start_line, d.span.start_col,
                               d.span.end_line, d.span.end_col)
            yield f"{d.rule}|{d.message}|{d.hint}|{span}"
    else:
        yield "parsed"


# sha256 of the outcome lines of 2,000 variants, taken from the hand-written
# parser that the grammar table replaced.
_VARIANTS_SHA256 = "ca72e52e22418e36bfd47225fce072951ab6ceee40e94c44ce4d030bd6fc28a1"


def test_parse_messages_on_corpus_variants_are_unchanged():
    digest = hashlib.sha256()
    for source in _corpus_variants(2000, seed=20261018):
        for line in _outcome_lines(source):
            digest.update(line.encode("utf-8") + b"\n")
    assert digest.hexdigest() == _VARIANTS_SHA256


# Fragments that reach every lexical outcome: escapes, carriage returns and
# tabs, the form feed and vertical tab the lexer refuses, NUL, non-ASCII
# characters and comments.
_LEXICAL_FRAGMENTS = (*_FRAGMENTS, '\\"', '"\\', "\r", "\r\n", "\t", "\f", "\x0b",
                      "\x00", "é", "\u2028", "# x", "12ab")


def _lexical_lines(source: str):
    try:
        tokens = dsl.tokenize(source, "variant.ess")
    except ParseError as failure:
        for d in failure.diagnostics:
            yield f"{d.rule}|{d.message}|{d.span}"
    else:
        for token in tokens:
            yield repr(token)


# sha256 of the token streams and lexical errors of the corpus and of 2,000
# variants, taken from the lexer that matched at each position of the whole
# source.
_LEXER_SHA256 = "1eb14bb53b3131a07639cf754c9da772b809028722f788721e71adfaad9da61f"


def test_token_streams_on_corpus_variants_are_unchanged():
    sources = [text for name, text in sorted(togaf.corpus_files().items())
               if name.endswith(".ess")]
    sources += _corpus_variants(2000, seed=20261019, fragments=_LEXICAL_FRAGMENTS)
    digest = hashlib.sha256()
    for source in sources:
        for line in _lexical_lines(source):
            digest.update(line.encode("utf-8") + b"\n")
    assert digest.hexdigest() == _LEXER_SHA256


def _filled_clauses(documents):
    """(block key, clause word, field) of every clause some element fills."""
    top = {dsl.GRAMMAR[clause.kind].cls: clause.kind for clause in dsl._DOCUMENT}
    stack = [(top[type(d)], d) for document in documents for d in document.declarations]
    filled = set()
    while stack:
        key, element = stack.pop()
        block = dsl.GRAMMAR[key]
        for clause in (*block.head, *(clause for run in block.body for clause in run)):
            value = getattr(element, clause.field)
            if clause.kind in dsl.GRAMMAR:
                children = [(clause.kind, child) for child in value
                            if type(child) is dsl.GRAMMAR[clause.kind].cls]
                stack.extend(children)
                value = children
            if value not in (None, (), []):
                filled.add((key, clause.word, clause.field))
    return filled


def test_every_grammar_clause_is_exercised(corpus):
    # The documents the round-trip tests render: the corpus and the
    # generated documents of test_round_trip_generated_documents and of
    # test_acceptance.test_criterion_2_round_trip (the same seed).
    rng = random.Random(20260809)
    documents = [corpus] + [generate_document(rng) for _ in range(120)]
    clauses = {(key, clause.word, clause.field) for key, block in dsl.GRAMMAR.items()
               for clause in (*block.head, *(c for run in block.body for c in run))}
    assert clauses - _filled_clauses(documents) == set()


def test_docstring_grammar_uses_the_table_words():
    grammar = dsl.__doc__.split("\n\n")[2]
    assert grammar.lstrip().startswith("document    :=")
    words = {block.word for block in dsl.GRAMMAR.values()} | {
        clause.word for block in dsl.GRAMMAR.values()
        for clause in (*block.head, *(c for run in block.body for c in run)) if clause.word}
    assert set(re.findall(r'"([a-z_]+)"', grammar)) == words
