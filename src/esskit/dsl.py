"""Lexer and table-driven parser for the ``.ess`` declaration language.

Surface grammar (``#`` comments run to end of line; strings are
double-quoted with ``\\"`` as the only escape; the language is
newline-insensitive):

    document    := (kernel | practice | method | role | phase)*
    kernel      := "kernel" STRING "{" (area | alpha | competency | space | workproduct)* "}"
    area        := "area" IDENT "color" IDENT
    alpha       := "alpha" IDENT "area" IDENT "{" state+ "}"
    state       := "state" IDENT "{" ("check" STRING)+ "}"
    competency  := "competency" IDENT "area" IDENT ("levels" INT)?
    space       := "space" STRING "area" IDENT ("in" STRING)? ("goal" STRING)?
    workproduct := "workproduct" STRING "category" IDENT ("description" STRING)?
    role        := "role" STRING "{" ("competency" IDENT "@" INT)+ "}"
    practice    := "practice" STRING "area" IDENT "{" ("goal" STRING)+ ("input" STRING)*
                   output* space_block* "}"
    output      := "output" STRING ("category" IDENT)? ("description" STRING)?
    space_block := "space" STRING ("goal" STRING)? "{" (space_block | activity)* "}"
    activity    := "activity" STRING ("requires" IDENT "@" INT)* ("produces" STRING)*
                   ("role" STRING)? ("tag" IDENT)*
    method      := "method" STRING "{" ("preamble" STRING)? ("cycle" STRING)+
                   ("concurrent" STRING)* "}"
    phase       := "togaf_phase" IDENT STRING "{" "objective" STRING (output | step)* "}"
    step        := "step" STRING ("goal" STRING)? ("{" spec_activity* "}")?
    spec_activity := "activity" STRING ("tag" IDENT)* ("feeds" STRING)* ("role" STRING)?
                   ("{" spec_activity* "}")?

:data:`GRAMMAR` is this grammar as data: the parser below reads it and
:func:`esskit.render.render_canonical` writes it, so a clause exists in one
place and rendered text parses back to the same document. A phase's
``output`` needs its category.

IDENT tokens encode display-name spaces as underscores
(``Stakeholder_Representation`` names "Stakeholder Representation").
A ``produces`` or ``feeds`` string containing ``": "`` splits at the first
occurrence into work-product name and contributed part.

Cross-references are left unresolved here; resolution belongs to the
validator. Syntax errors and same-file duplicate ids raise
:class:`~esskit.diagnostics.ParseError` carrying every diagnostic found.
"""

from __future__ import annotations

import re
from functools import partial

from .diagnostics import Diagnostic, ParseError, Record, Severity, SourceSpan, ordered
from .model import (
    ACTIVITY_TAGS,
    PHASE_IDS,
    Activity,
    ActivitySpec,
    Alpha,
    AlphaState,
    Area,
    AreaDecl,
    CompetencyGrade,
    Competency,
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
    slug,
)

SYNTAX_RULE = "P001"
DUPLICATE_RULE = "P002"

# One alternative per token kind. ``open`` matches what ``STRING`` cannot: a
# string cut short by the end of its line or a backslash not followed by a
# quote. The classes are spelled out because ``\s``, ``\d`` and ``\w`` also
# match non-ASCII characters. Strings are written as runs between escaped
# quotes, which the regex engine matches far faster than one alternation per
# character.
_TOKEN_PATTERNS = {
    "STRING": r'" [^"\\\n]* (?: \\" [^"\\\n]* )* "',
    "open": r'" [^"\\\n]* (?: \\" [^"\\\n]* )*',
    "INT": r"[0-9]+",
    "IDENT": r"[A-Za-z_] [A-Za-z0-9_]*",
}
# One scan: the blanks before a token, then the token. Exactly one of the
# token groups is set; ``comment`` runs to the end of its line and ``bad`` is
# any other character. Blanks at the very end of the source match nothing.
_SCAN = re.compile(r"""([ \t\r]*) (?: ({STRING}) | ({INT}) | ({IDENT}) | ([{{}}@])
                     | (\# [^\n]*) | (\n) | ({open}) | ([^ \t\r\n]) )""".format(
    **_TOKEN_PATTERNS), re.VERBOSE).findall
_MARKS = {"{": "LBRACE", "}": "RBRACE", "@": "AT"}
# Characters per scan: a slice ends just after the first line break past
# this many, which bounds the memory of one scan's match list.
_SLICE = 4096


def _describe(token: tuple) -> str:
    """What a syntax error says it found: ``token`` starts ``(type, value)``."""
    if token[0] == "EOF":
        return "end of input"
    if token[0] == "STRING":
        return f'string "{token[1]}"'
    return repr(str(token[1]))


class _SyntaxFailure(Exception):
    def __init__(self, diagnostic: Diagnostic) -> None:
        self.diagnostic = diagnostic
        super().__init__(diagnostic.message)


def _diagnostic(file: str, line: int, col: int, message: str, *,
                hint: str | None = None, end_line: int | None = None,
                end_col: int | None = None) -> Diagnostic:
    span = SourceSpan(file, line, col, end_line or line, end_col or col)
    return Diagnostic(rule=SYNTAX_RULE, severity=Severity.ERROR, path="",
                      message=message, span=span, hint=hint)


def tokenize(source: str, file: str = "<input>") -> list[tuple]:
    """The tokens of ``source``; lexical errors raise :class:`ParseError`.

    Each token is a ``(type, value, line, col, end_line, end_col)`` tuple,
    the form the parser reads by index. ``type`` is ``IDENT``, ``STRING``,
    ``INT``, ``LBRACE``, ``RBRACE``, ``AT`` or ``EOF``; the last token is
    always ``EOF``. Positions are 1-based and the end column is inclusive.

    Strings cannot hold a line break, so no token spans one, and the source
    is scanned in slices that each end just after a line break. Offsets,
    lines and columns are sums of the matched lengths. Equal words and
    strings share one value object, which keeps the token list of a large
    file small.
    """
    tokens: list[tuple] = []
    append = tokens.append
    values: dict[str, str] = {}
    size = len(source)
    line, line_start, pos = 1, 0, 0
    while pos < size:
        stop = source.find("\n", pos + _SLICE) + 1 or size
        for blank, string, number, word, mark, comment, newline, opened, bad \
                in _SCAN(source, pos, stop):
            pos += len(blank)
            col = pos - line_start
            if word:
                pos += len(word)
                append(("IDENT", values.setdefault(word, word), line, col + 1,
                        line, pos - line_start))
            elif newline:
                pos += 1
                line += 1
                line_start = pos
            elif mark:
                pos += 1
                append((_MARKS[mark], mark, line, col + 1, line, col + 1))
            elif string:
                pos += len(string)
                value = string[1:-1].replace('\\"', '"')
                append(("STRING", values.setdefault(value, value), line, col + 1,
                        line, pos - line_start))
            elif number:
                pos += len(number)
                append(("INT", int(number), line, col + 1, line, pos - line_start))
            elif comment:
                pos += len(comment)
            else:
                if bad:
                    message = f"unexpected character {bad!r}"
                elif source.startswith("\\", pos + len(opened)):
                    col += len(opened)
                    message = "invalid escape sequence; only \\\" is supported"
                else:
                    message = "unterminated string"
                raise ParseError([_diagnostic(file, line, col + 1, message)])
        pos = stop  # also past blanks at the end of the source, which match nothing
    col = size - line_start + 1
    append(("EOF", "", line, col, line, col))
    return tokens


def _decode(ident: str) -> str:
    """Display name for an IDENT token: underscores become spaces."""
    return ident.replace("_", " ")


# The grammar ------------------------------------------------------------------


class _Clause(Record):
    """One clause of a block: ``word`` then a value, or a child block.

    ``word`` is None for a value written right after the block's keyword.
    ``kind`` names a value kind (a key of the parser's readers and of the
    renderer's writers) or a child block (a key of :data:`GRAMMAR`).
    ``repeat`` is ``one``, ``opt``, ``many`` or ``some`` (one or more).
    """

    word: str | None
    field: str
    kind: str
    repeat: str = "one"


class _Block(Record):
    """One block: its keyword, the element it builds, and its clauses.

    ``head`` clauses precede the braces, in order. ``body`` is a sequence of
    runs inside them: the clauses of one run interleave, and runs follow
    each other in order. ``braces`` is ``yes``, ``no`` or ``opt``; optional
    braces are written only around a body that is not empty.
    """

    word: str
    cls: type
    head: tuple[_Clause, ...]
    body: tuple[tuple[_Clause, ...], ...] = ()
    braces: str = "no"


_NAME = _Clause(None, "name", "name")
_DESCRIPTION = _Clause("description", "description", "string", "opt")

GRAMMAR: dict[str, _Block] = {
    "kernel": _Block("kernel", Kernel, (_NAME,), ((
        _Clause("area", "members", "area_decl", "many"),
        _Clause("alpha", "members", "alpha", "many"),
        _Clause("competency", "members", "competency", "many"),
        _Clause("space", "members", "kernel_space", "many"),
        _Clause("workproduct", "members", "workproduct", "many")),), "yes"),
    "area_decl": _Block("area", AreaDecl, (
        _Clause(None, "area", "area"), _Clause("color", "area", "color"))),
    "alpha": _Block("alpha", Alpha, (
        _Clause(None, "name", "ident"), _Clause("area", "area", "area")),
        ((_Clause("state", "states", "state", "some"),),), "yes"),
    "state": _Block("state", AlphaState, (_Clause(None, "name", "ident"),),
                    ((_Clause("check", "checklist", "string", "some"),),), "yes"),
    "competency": _Block("competency", Competency, (
        _Clause(None, "name", "ident"), _Clause("area", "area", "area"),
        _Clause("levels", "max_level", "int", "opt"))),
    "kernel_space": _Block("space", Space, (
        _NAME, _Clause("area", "area", "area"), _Clause("in", "parent", "string", "opt"),
        _Clause("goal", "goal", "string", "opt"))),
    "workproduct": _Block("workproduct", WorkProduct, (
        _NAME, _Clause("category", "category", "category"), _DESCRIPTION)),
    "role": _Block("role", Role, (_NAME,),
                   ((_Clause("competency", "competencies", "grade", "some"),),), "yes"),
    "practice": _Block("practice", Practice, (_NAME, _Clause("area", "area", "area")), (
        (_Clause("goal", "goals", "string", "some"),),
        (_Clause("input", "inputs", "string", "many"),),
        (_Clause("output", "outputs", "practice_output", "many"),),
        (_Clause("space", "members", "space", "many"),)), "yes"),
    "practice_output": _Block("output", WorkProduct, (
        _NAME, _Clause("category", "category", "category", "opt"), _DESCRIPTION)),
    "space": _Block("space", Space, (_NAME, _Clause("goal", "goal", "string", "opt")), ((
        _Clause("space", "members", "space", "many"),
        _Clause("activity", "members", "activity", "many")),), "yes"),
    "activity": _Block("activity", Activity, (
        _NAME, _Clause("requires", "requires", "grade", "many"),
        _Clause("produces", "produces", "contribution", "many"),
        _Clause("role", "role", "string", "opt"), _Clause("tag", "tags", "word", "many"))),
    "method": _Block("method", Method, (_NAME,), (
        (_Clause("preamble", "preamble", "string", "opt"),),
        (_Clause("cycle", "cycle", "string", "some"),),
        (_Clause("concurrent", "concurrent", "string", "many"),)), "yes"),
    "togaf_phase": _Block("togaf_phase", TogafPhase, (
        _Clause(None, "phase", "phase"), _NAME), (
        (_Clause("objective", "objective", "string"),),
        (_Clause("output", "outputs", "phase_output", "many"),
         _Clause("step", "steps", "step", "many"))), "yes"),
    "phase_output": _Block("output", WorkProduct, (
        _NAME, _Clause("category", "category", "category"), _DESCRIPTION)),
    "step": _Block("step", StepSpec, (_NAME, _Clause("goal", "goal", "string", "opt")),
                   ((_Clause("activity", "activities", "spec_activity", "many"),),), "opt"),
    "spec_activity": _Block("activity", ActivitySpec, (
        _NAME, _Clause("tag", "tags", "tag", "many"),
        _Clause("feeds", "feeds", "contribution", "many"),
        _Clause("role", "role", "string", "opt")),
        ((_Clause("activity", "sub_activities", "spec_activity", "many"),),), "opt"),
}

# A document is one run of top-level blocks, in this order in hints.
_DOCUMENT = tuple(_Clause(word, "declarations", word, "many")
                  for word in ("kernel", "practice", "method", "role", "togaf_phase"))

# What the "requires at least one ..." error calls a ``some`` clause.
_AT_LEAST = {"check": "checklist item", "cycle": "cycle practice"}


# The parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[tuple], file: str) -> None:
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # Cursor helpers ------------------------------------------------------

    @property
    def current(self) -> tuple:
        return self.tokens[self.pos]

    def _advance(self) -> tuple:
        token = self.tokens[self.pos]
        if token[0] != "EOF":
            self.pos += 1
        return token

    def _fail(self, message: str, *, hint: str | None = None,
              token: tuple | None = None) -> _SyntaxFailure:
        _, _, line, col, end_line, end_col = token or self.current
        return _SyntaxFailure(_diagnostic(self.file, line, col, message, hint=hint,
                                          end_line=end_line, end_col=end_col))

    def _expect(self, token_type: str, hint: str | None = None) -> tuple:
        if self.current[0] != token_type:
            names = {"IDENT": "an identifier", "STRING": "a string",
                     "INT": "an integer", "LBRACE": "'{'", "RBRACE": "'}'",
                     "AT": "'@'"}
            raise self._fail(f"found {_describe(self.current)}",
                             hint=hint or names.get(token_type, token_type))
        return self._advance()

    def _span_from(self, start: tuple) -> SourceSpan:
        """From ``start`` to the last token consumed, which is never EOF."""
        end = self.tokens[self.pos - 1]
        return SourceSpan(self.file, start[2], start[3], end[4], end[5])

    # Value readers, each ``(parser, values)`` where ``values`` holds the
    # fields of the block read so far ------------------------------------

    def _named(self, values, what: str, token_type: str) -> str:
        """A declared name: a string, or an IDENT whose underscores are spaces.

        A name must yield an id, so one with no usable characters is an error.
        """
        token = self._expect(token_type)
        name = str(token[1]) if token_type == "STRING" else _decode(str(token[1]))
        try:
            slug(name)
        except ValueError:
            raise self._fail(f"{what} name {name!r} contains no usable characters",
                             token=token) from None
        return name

    def _choice(self, values, hint: str, what: str, choices: dict):
        """An IDENT naming one of ``choices``, which map its text to its value."""
        token = self._expect("IDENT", hint=hint)
        if token[1] not in choices:
            raise self._fail(f"unknown {what} {token[1]!r}",
                             hint="one of " + ", ".join(choices), token=token)
        return choices[token[1]]

    def _color(self, values) -> Area:
        """The color of the area just read, which it must match."""
        area = values["area"]
        token = self._expect("IDENT", hint="a color name")
        if token[1] != area.color:
            raise self._fail(f"area {area.value} must be {area.color}, not {token[1]!r}",
                             token=token)
        return area

    def _grade(self, values) -> CompetencyGrade:
        competency = _decode(str(self._expect("IDENT")[1]))
        self._expect("AT")
        return CompetencyGrade(competency=competency, level=self._expect("INT")[1])

    # Blocks --------------------------------------------------------------

    def parse_document(self) -> list:
        declarations = []
        while self.current[0] != "EOF":
            token = self.current
            key = _TOP.get(token[1]) if token[0] == "IDENT" else None
            try:
                if key is None:
                    raise self._fail(f"found {_describe(token)} at top level",
                                     hint=_TOP_HINT)
                declarations.append(self._block(key))
            except _SyntaxFailure as failure:
                self.diagnostics.append(failure.diagnostic)
                self._recover()
        return declarations

    def _recover(self) -> None:
        """Skip to the next plausible top-level declaration keyword."""
        depth = 0
        while self.current[0] != "EOF":
            kind, value = self.current[:2]
            if kind == "LBRACE":
                depth += 1
            elif kind == "RBRACE":
                depth = max(0, depth - 1)
            elif depth == 0 and kind == "IDENT" and value in _TOP:
                return
            self._advance()

    def _block(self, key: str):
        """The element of block ``key`` of :data:`GRAMMAR`, whose keyword is
        the current token.

        Runs the block's precomputed steps; a child block is one direct call
        of this method, so each level of nesting costs one frame.
        """
        cls, lists, steps = _PLANS[key]
        tokens = self.tokens
        start = self._advance()
        values = {field: [] for field in lists}
        for op, field, need, arg in steps:
            token = tokens[self.pos]
            if op is _RUN:
                while token[0] == "IDENT" and token[1] in arg:
                    target, read, child = arg[token[1]]
                    if child is None:
                        self.pos += 1
                        values[target].append(read(self, values))
                    else:
                        values[target].append(self._block(child))
                    token = tokens[self.pos]
                if need and not values[field]:
                    message, hint = need
                    if field != "goals":
                        raise self._fail(message, hint=hint)
                    # Recorded, not raised: one practice without a goal
                    # should not hide the findings after it.
                    self.diagnostics.append(Diagnostic(
                        rule=SYNTAX_RULE, severity=Severity.ERROR, path="",
                        message=message, span=self._span_from(start), hint=hint))
            elif op is _VALUE or op is _OPTIONAL:
                if need is not None:
                    if token[0] != "IDENT" or token[1] != need:
                        if op is _OPTIONAL:
                            continue
                        raise self._fail(f"found {_describe(token)}", hint=f"'{need}'")
                    self.pos += 1
                values[field] = arg(self, values)
            elif op is _OPEN:
                if token[0] != "LBRACE" and arg:
                    break
                self._expect("LBRACE")
            else:
                if token[0] != "RBRACE" and arg:
                    raise self._fail(f"found {_describe(token)} in kernel body", hint=arg)
                self._expect("RBRACE")
        for field in lists:
            values[field] = tuple(values[field])
        if cls is ActivitySpec:
            values["tags"] = tuple(dict.fromkeys(values["tags"]))
            if not values["tags"] and not values["sub_activities"]:
                raise self._fail(f"activity {values['name']!r} requires at least one "
                                 "tag or sub-activities", token=start)
        return cls(**values, span=self._span_from(start))


# Parse plans: each block's steps, computed once from GRAMMAR ------------------

# Step operations. A step is ``(op, field, need, arg)``:
#   _VALUE    a value clause; ``need`` is its word or None, ``arg`` its reader;
#   _OPTIONAL an optional value clause with word ``need`` and reader ``arg``;
#   _RUN      a run; ``arg`` maps each word to ``(field, reader, child)``, one
#             of reader and child block key being None, and a ``some`` clause
#             gives its ``field`` and the ``need`` ``(message, hint)`` raised
#             when the run is empty;
#   _OPEN     ``{``, which ``arg`` says may be absent (then the body is empty);
#   _CLOSE    ``}``; ``arg`` is the kernel's hint for a stray body token.
_VALUE, _OPTIONAL, _RUN, _OPEN, _CLOSE = "value", "optional", "run", "open", "close"

_READERS = {
    "string": lambda parser, values: parser._expect("STRING")[1],
    "int": lambda parser, values: parser._expect("INT")[1],
    "word": lambda parser, values: parser._expect("IDENT")[1],
    "contribution": lambda parser, values: Contribution.from_text(
        parser._expect("STRING")[1]),
    "color": _Parser._color,
    "grade": _Parser._grade,
    "area": partial(_Parser._choice, hint="an area name (Customer, Solution, Endeavor)",
                    what="area", choices={area.value: area for area in Area}),
    "category": partial(_Parser._choice, hint="a category", what="category",
                        choices={c.value: c for c in WorkProductCategory}),
    "tag": partial(_Parser._choice, hint="an activity tag", what="tag",
                   choices={tag: tag for tag in ACTIVITY_TAGS}),
    "phase": partial(_Parser._choice, hint="a phase id (P, A-H, RM)", what="phase id",
                     choices={phase: phase for phase in PHASE_IDS}),
}


def _reader(kind: str, what: str):
    if kind in ("name", "ident"):
        return partial(_Parser._named, what=what,
                       token_type="STRING" if kind == "name" else "IDENT")
    return _READERS[kind]


def _step(run: tuple[_Clause, ...], what: str) -> tuple:
    clause = run[0]
    if len(run) == 1 and clause.repeat in ("one", "opt"):
        op = _VALUE if clause.repeat == "one" else _OPTIONAL
        return (op, clause.field, clause.word, _reader(clause.kind, what))
    words, field, need = {}, None, None
    for clause in run:
        if clause.kind in GRAMMAR:
            words[clause.word] = (clause.field, None, clause.kind)
        else:
            words[clause.word] = (clause.field, _reader(clause.kind, what), None)
        if clause.repeat == "some":
            noun = _AT_LEAST.get(clause.word, clause.word)
            field = clause.field
            need = (f"{what} requires at least one {noun}", f"'{clause.word}'")
    return (_RUN, field, need, words)


def _plan(block: _Block) -> tuple:
    """``(element class, list fields, steps)``: what ``_Parser._block`` runs."""
    what = "work product" if block.cls is WorkProduct else block.cls.kind
    steps = [_step((clause,), what) for clause in block.head]
    if block.braces != "no":
        hint = None
        if block.cls is Kernel:
            hint = ", ".join(f"'{clause.word}'" for clause in block.body[0]) + ", or '}'"
        steps.append((_OPEN, None, None, block.braces == "opt"))
        steps.extend(_step(run, what) for run in block.body)
        steps.append((_CLOSE, None, None, hint))
    clauses = [*block.head, *(clause for run in block.body for clause in run)]
    lists = dict.fromkeys(c.field for c in clauses if c.repeat in ("many", "some"))
    return block.cls, tuple(lists), tuple(steps)


_PLANS = {key: _plan(block) for key, block in GRAMMAR.items()}
_TOP = {clause.word: clause.kind for clause in _DOCUMENT}
_TOP_HINT = "one of " + ", ".join(f"'{word}'" for word in _TOP)


def parse(source: str, file: str = "<input>") -> ModelDocument:
    """Parse ``source`` into a :class:`ModelDocument`.

    Raises :class:`ParseError` with every diagnostic found, in the order of
    :func:`esskit.diagnostics.ordered`, when the text has syntax errors or
    declares the same id twice; warnings never block.
    Blocks nested deeper than the interpreter's recursion limit allows are a
    syntax error at the token the parser had reached.
    """
    parser = _Parser(tokenize(source, file), file)
    try:
        declarations = parser.parse_document()
        document = ModelDocument(declarations)
    except RecursionError:
        too_deep = parser._fail("blocks nested too deeply to parse")
        raise ParseError(ordered([*parser.diagnostics, too_deep.diagnostic])) from None
    diagnostics = list(parser.diagnostics)
    for ident, first, second in document.id_collisions():
        first_at = first.span.location() if first.span else "an earlier declaration"
        diagnostics.append(Diagnostic(
            rule=DUPLICATE_RULE, severity=Severity.ERROR, path=ident,
            message=f"duplicate id {ident!r}; first declared at {first_at}",
            span=second.span))
    if diagnostics:
        raise ParseError(ordered(diagnostics))
    return document
