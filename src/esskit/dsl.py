"""Lexer and recursive-descent parser for the ``.ess`` declaration language.

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

_TOP_KEYWORDS = ("kernel", "practice", "method", "role", "togaf_phase")

# One alternative per token kind, tried at each position. ``open`` matches
# what ``STRING`` cannot: a string cut short by a line break, the end of the
# input or a backslash not followed by a quote. The classes are spelled out
# because ``\s``, ``\d`` and ``\w`` also match non-ASCII characters.
_TOKEN = re.compile(r"""
      (?P<skip>   [ \t\r\n]+ | \#[^\n]* )
    | (?P<STRING> " (?: [^"\\\n] | \\" )* " )
    | (?P<open>   " (?: [^"\\\n] | \\" )* )
    | (?P<INT>    [0-9]+ )
    | (?P<IDENT>  [A-Za-z_] [A-Za-z0-9_]* )
    | (?P<LBRACE> \{ )
    | (?P<RBRACE> \} )
    | (?P<AT>     @ )
""", re.VERBOSE)


class Token(Record):
    type: str  # IDENT | STRING | INT | LBRACE | RBRACE | AT | EOF
    value: str | int
    line: int
    col: int
    end_line: int
    end_col: int

    def describe(self) -> str:
        if self.type == "EOF":
            return "end of input"
        if self.type == "STRING":
            return f'string "{self.value}"'
        return repr(str(self.value))


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


def tokenize(source: str, file: str = "<input>") -> list[Token]:
    """Token stream for ``source``; lexical errors raise :class:`ParseError`.

    Strings cannot hold a line break, so no token spans one and only
    ``skip`` matches move to a new line.
    """
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(source):
        match = _TOKEN.match(source, pos)
        col = pos - line_start + 1
        kind = match.lastgroup if match else None
        if kind in (None, "open"):
            if kind is None:
                message = f"unexpected character {source[pos]!r}"
            elif source.startswith("\\", match.end()):
                col += match.end() - pos
                message = "invalid escape sequence; only \\\" is supported"
            else:
                message = "unterminated string"
            raise ParseError([_diagnostic(file, line, col, message)])
        end = match.end()
        if kind == "skip":
            breaks = source.count("\n", pos, end)
            if breaks:
                line += breaks
                line_start = source.rindex("\n", pos, end) + 1
        else:
            text = match.group()
            value = (int(text) if kind == "INT"
                     else text[1:-1].replace('\\"', '"') if kind == "STRING"
                     else text)
            tokens.append(Token(kind, value, line, col, line, col + end - pos - 1))
        pos = end
    col = len(source) - line_start + 1
    tokens.append(Token("EOF", "", line, col, line, col))
    return tokens


def _decode(ident: str) -> str:
    """Display name for an IDENT token: underscores become spaces."""
    return ident.replace("_", " ")


class _Parser:
    def __init__(self, tokens: list[Token], file: str) -> None:
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.last = tokens[0]
        self.diagnostics: list[Diagnostic] = []

    # Cursor helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type != "EOF":
            self.pos += 1
        self.last = token
        return token

    def _fail(self, message: str, *, hint: str | None = None,
              token: Token | None = None) -> _SyntaxFailure:
        token = token or self.current
        return _SyntaxFailure(_diagnostic(
            self.file, token.line, token.col, message, hint=hint,
            end_line=token.end_line, end_col=token.end_col))

    def _expect(self, token_type: str, hint: str | None = None) -> Token:
        if self.current.type != token_type:
            names = {"IDENT": "an identifier", "STRING": "a string",
                     "INT": "an integer", "LBRACE": "'{'", "RBRACE": "'}'",
                     "AT": "'@'"}
            raise self._fail(f"found {self.current.describe()}",
                             hint=hint or names.get(token_type, token_type))
        return self._advance()

    def _expect_word(self, word: str) -> Token:
        if not self._at_word(word):
            raise self._fail(f"found {self.current.describe()}", hint=f"'{word}'")
        return self._advance()

    def _at_word(self, word: str) -> bool:
        return self.current.type == "IDENT" and self.current.value == word

    def _optional(self, word: str, token_type: str = "STRING"):
        """The value after ``word`` when the clause is present, else None."""
        if not self._at_word(word):
            return None
        self._advance()
        return self._expect(token_type).value

    def _repeated(self, word: str, token_type: str = "STRING") -> list:
        """The values of a run of ``word <token>`` clauses, possibly none."""
        values = []
        while self._at_word(word):
            self._advance()
            values.append(self._expect(token_type).value)
        return values

    def _grades(self, word: str) -> list[CompetencyGrade]:
        """A run of ``word IDENT @ INT`` clauses, possibly none."""
        grades = []
        while self._at_word(word):
            self._advance()
            competency = self._competency_ref()
            self._expect("AT")
            grades.append(CompetencyGrade(competency=competency,
                                          level=self._expect("INT").value))
        return grades

    def _span_from(self, start: Token) -> SourceSpan:
        return SourceSpan(self.file, start.line, start.col,
                          self.last.end_line, self.last.end_col)

    def _named(self, what: str, token_type: str = "STRING") -> str:
        """A declared name: a string, or an IDENT whose underscores are spaces.

        A name must yield an id, so one with no usable characters is an error.
        """
        token = self._expect(token_type)
        name = str(token.value) if token_type == "STRING" else _decode(str(token.value))
        try:
            slug(name)
        except ValueError:
            raise self._fail(f"{what} name {name!r} contains no usable characters",
                             token=token) from None
        return name

    def _competency_ref(self) -> str:
        return _decode(str(self._expect("IDENT").value))

    def _area_ref(self) -> Area:
        token = self._expect("IDENT", hint="an area name (Customer, Solution, Endeavor)")
        try:
            return Area.from_name(_decode(str(token.value)))
        except KeyError:
            raise self._fail(
                f"unknown area {str(token.value)!r}",
                hint="one of Customer, Solution, Endeavor", token=token) from None

    # Declarations --------------------------------------------------------

    def parse_document(self) -> list:
        declarations = []
        while self.current.type != "EOF":
            try:
                declarations.append(self._parse_declaration())
            except _SyntaxFailure as failure:
                self.diagnostics.append(failure.diagnostic)
                self._recover()
        return declarations

    def _recover(self) -> None:
        """Skip to the next plausible top-level declaration keyword."""
        depth = 0
        while self.current.type != "EOF":
            token = self.current
            if token.type == "LBRACE":
                depth += 1
            elif token.type == "RBRACE":
                depth = max(0, depth - 1)
            elif (depth == 0 and token.type == "IDENT"
                  and token.value in _TOP_KEYWORDS):
                return
            self._advance()

    def _parse_declaration(self):
        token = self.current
        if token.type != "IDENT" or token.value not in _TOP_KEYWORDS:
            raise self._fail(
                f"found {token.describe()} at top level",
                hint="one of " + ", ".join(f"'{w}'" for w in _TOP_KEYWORDS))
        word = str(token.value)
        if word == "kernel":
            return self._parse_kernel()
        if word == "practice":
            return self._parse_practice()
        if word == "method":
            return self._parse_method()
        if word == "role":
            return self._parse_role()
        return self._parse_phase()

    def _parse_kernel(self) -> Kernel:
        start = self._expect_word("kernel")
        name = self._named("kernel")
        self._expect("LBRACE")
        members = []
        while not self.current.type == "RBRACE":
            if self._at_word("area"):
                members.append(self._parse_area())
            elif self._at_word("alpha"):
                members.append(self._parse_alpha())
            elif self._at_word("competency"):
                members.append(self._parse_competency())
            elif self._at_word("space"):
                members.append(self._parse_space_decl())
            elif self._at_word("workproduct"):
                members.append(self._parse_work_product("workproduct"))
            else:
                raise self._fail(
                    f"found {self.current.describe()} in kernel body",
                    hint="'area', 'alpha', 'competency', 'space', 'workproduct', or '}'")
        self._expect("RBRACE")
        return Kernel(name=name, members=tuple(members), span=self._span_from(start))

    def _parse_area(self) -> AreaDecl:
        start = self._expect_word("area")
        area = self._area_ref()
        self._expect_word("color")
        color_token = self._expect("IDENT", hint="a color name")
        color = str(color_token.value)
        if color != area.color:
            raise self._fail(
                f"area {area.value} must be {area.color}, not {color!r}",
                token=color_token)
        return AreaDecl(area=area, span=self._span_from(start))

    def _parse_alpha(self) -> Alpha:
        start = self._expect_word("alpha")
        name = self._named("alpha", "IDENT")
        self._expect_word("area")
        area = self._area_ref()
        self._expect("LBRACE")
        states = []
        while self._at_word("state"):
            states.append(self._parse_state())
        if not states:
            raise self._fail("alpha requires at least one state", hint="'state'")
        self._expect("RBRACE")
        return Alpha(name=name, area=area, states=tuple(states),
                     span=self._span_from(start))

    def _parse_state(self) -> AlphaState:
        start = self._expect_word("state")
        name = self._named("state", "IDENT")
        self._expect("LBRACE")
        checklist = self._repeated("check")
        if not checklist:
            raise self._fail("state requires at least one checklist item",
                             hint="'check'")
        self._expect("RBRACE")
        return AlphaState(name=name, checklist=tuple(checklist),
                          span=self._span_from(start))

    def _parse_competency(self) -> Competency:
        start = self._expect_word("competency")
        name = self._named("competency", "IDENT")
        self._expect_word("area")
        area = self._area_ref()
        levels = self._optional("levels", "INT")
        return Competency(name=name, area=area,
                          max_level=5 if levels is None else levels,
                          span=self._span_from(start))

    def _parse_space_decl(self) -> Space:
        start = self._expect_word("space")
        name = self._named("space")
        self._expect_word("area")
        area = self._area_ref()
        parent = self._optional("in")
        goal = self._optional("goal")
        return Space(name=name, area=area, parent=parent, goal=goal,
                     span=self._span_from(start))

    def _parse_work_product(self, keyword: str, *, require_category: bool = True) -> WorkProduct:
        start = self._expect_word(keyword)
        name = self._named("work product")
        category = WorkProductCategory.OTHER
        if require_category or self._at_word("category"):
            self._expect_word("category")
            token = self._expect("IDENT", hint="a category")
            try:
                category = WorkProductCategory(str(token.value))
            except ValueError:
                valid = ", ".join(c.value for c in WorkProductCategory)
                raise self._fail(f"unknown category {str(token.value)!r}",
                                 hint=f"one of {valid}", token=token) from None
        description = self._optional("description")
        return WorkProduct(name=name, category=category, description=description,
                           span=self._span_from(start))

    def _parse_role(self) -> Role:
        start = self._expect_word("role")
        name = self._named("role")
        self._expect("LBRACE")
        grades = self._grades("competency")
        if not grades:
            raise self._fail("role requires at least one competency",
                             hint="'competency'")
        self._expect("RBRACE")
        return Role(name=name, competencies=tuple(grades),
                    span=self._span_from(start))

    def _parse_practice(self) -> Practice:
        start = self._expect_word("practice")
        name = self._named("practice")
        self._expect_word("area")
        area = self._area_ref()
        self._expect("LBRACE")
        goals = self._repeated("goal")
        if not goals:
            # Recoverable: record the error but keep parsing the body so one
            # bad practice does not hide later findings.
            self.diagnostics.append(Diagnostic(
                rule=SYNTAX_RULE, severity=Severity.ERROR, path="",
                message="practice requires at least one goal",
                span=self._span_from(start), hint="'goal'"))
        inputs = self._repeated("input")
        outputs = []
        while self._at_word("output"):
            outputs.append(self._parse_work_product("output", require_category=False))
        members = []
        while self._at_word("space"):
            members.append(self._parse_space_block())
        self._expect("RBRACE")
        return Practice(name=name, area=area, goals=tuple(goals),
                        inputs=tuple(inputs), outputs=tuple(outputs),
                        members=tuple(members), span=self._span_from(start))

    def _parse_space_block(self) -> Space:
        start = self._expect_word("space")
        name = self._named("space")
        goal = self._optional("goal")
        self._expect("LBRACE")
        members = []
        while True:
            if self._at_word("space"):
                members.append(self._parse_space_block())
            elif self._at_word("activity"):
                members.append(self._parse_activity())
            else:
                break
        self._expect("RBRACE")
        return Space(name=name, goal=goal, members=tuple(members),
                     span=self._span_from(start))

    def _parse_activity(self) -> Activity:
        start = self._expect_word("activity")
        name = self._named("activity")
        requires = self._grades("requires")
        produces = [Contribution.from_text(text) for text in self._repeated("produces")]
        role = self._optional("role")
        tags = self._repeated("tag", "IDENT")
        return Activity(name=name, requires=tuple(requires), produces=tuple(produces),
                        role=role, tags=tuple(tags), span=self._span_from(start))

    def _parse_method(self) -> Method:
        start = self._expect_word("method")
        name = self._named("method")
        self._expect("LBRACE")
        preamble = self._optional("preamble")
        cycle = self._repeated("cycle")
        if not cycle:
            raise self._fail("method requires at least one cycle practice",
                             hint="'cycle'")
        concurrent = self._repeated("concurrent")
        self._expect("RBRACE")
        return Method(name=name, cycle=tuple(cycle), preamble=preamble,
                      concurrent=tuple(concurrent), span=self._span_from(start))

    def _parse_phase(self) -> TogafPhase:
        start = self._expect_word("togaf_phase")
        id_token = self._expect("IDENT", hint="a phase id (P, A-H, RM)")
        phase_id = str(id_token.value)
        if phase_id not in PHASE_IDS:
            raise self._fail(f"unknown phase id {phase_id!r}",
                             hint="one of " + ", ".join(PHASE_IDS), token=id_token)
        name = self._named("phase")
        self._expect("LBRACE")
        self._expect_word("objective")
        objective = str(self._expect("STRING").value)
        outputs = []
        steps = []
        while True:
            if self._at_word("output"):
                outputs.append(self._parse_work_product("output"))
            elif self._at_word("step"):
                steps.append(self._parse_step())
            else:
                break
        self._expect("RBRACE")
        return TogafPhase(phase=phase_id, name=name, objective=objective,
                          steps=tuple(steps), outputs=tuple(outputs),
                          span=self._span_from(start))

    def _parse_step(self) -> StepSpec:
        start = self._expect_word("step")
        name = self._named("step")
        goal = self._optional("goal")
        activities = []
        if self.current.type == "LBRACE":
            self._advance()
            while self._at_word("activity"):
                activities.append(self._parse_spec_activity())
            self._expect("RBRACE")
        return StepSpec(name=name, goal=goal, activities=tuple(activities),
                        span=self._span_from(start))

    def _parse_spec_activity(self) -> ActivitySpec:
        start = self._expect_word("activity")
        name = self._named("activity")
        tags = []
        while self._at_word("tag"):
            self._advance()
            token = self._expect("IDENT", hint="an activity tag")
            tag = str(token.value)
            if tag not in ACTIVITY_TAGS:
                raise self._fail(f"unknown tag {tag!r}",
                                 hint="one of " + ", ".join(ACTIVITY_TAGS),
                                 token=token)
            if tag not in tags:
                tags.append(tag)
        feeds = [Contribution.from_text(text) for text in self._repeated("feeds")]
        role = self._optional("role")
        subs = []
        if self.current.type == "LBRACE":
            self._advance()
            while self._at_word("activity"):
                subs.append(self._parse_spec_activity())
            self._expect("RBRACE")
        if not tags and not subs:
            raise self._fail(
                f"activity {name!r} requires at least one tag or sub-activities",
                token=start)
        return ActivitySpec(name=name, tags=tuple(tags), feeds=tuple(feeds),
                            role=role, sub_activities=tuple(subs),
                            span=self._span_from(start))


def parse(source: str, file: str = "<input>") -> ModelDocument:
    """Parse ``source`` into a :class:`ModelDocument`.

    Raises :class:`ParseError` with every diagnostic found, in the order of
    :func:`esskit.diagnostics.ordered`, when the text has syntax errors or
    declares the same id twice; warnings never block.
    Blocks nested deeper than the interpreter's recursion limit allows are a
    syntax error at the token the parser had reached.
    """
    tokens = tokenize(source, file)
    parser = _Parser(tokens, file)
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


def parse_file(path, file: str | None = None) -> ModelDocument:
    """Parse one ``.ess`` file from disk; I/O errors propagate as OSError."""
    from pathlib import Path

    p = Path(path)
    return parse(p.read_text(encoding="utf-8"), file or str(p))
