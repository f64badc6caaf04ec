"""Lexer and grammar-generated parser for the ``.ess`` declaration language.

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

:data:`GRAMMAR` is this grammar as data: at import, one parse function per
block is generated from it, and :func:`esskit.render.render_canonical` writes
it; :data:`_KINDS` states how each kind of value is read and written. So a
clause exists in one place and rendered text parses back to the same
document. A phase's ``output`` needs its category.

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
    checked_name,
    yields_id,
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


# The grammar ------------------------------------------------------------------


class _Clause(Record):
    """One clause of a block: ``word`` then a value, or a child block.

    ``word`` is None for a value written right after the block's keyword.
    ``kind`` names a value kind (a key of :data:`_KINDS`) or a child block
    (a key of :data:`GRAMMAR`).
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

    @property
    def current(self) -> tuple:
        return self.tokens[self.pos]

    def _fail(self, message: str, *, hint: str | None = None,
              token: tuple | None = None) -> _SyntaxFailure:
        _, _, line, col, end_line, end_col = token or self.current
        return _SyntaxFailure(_diagnostic(self.file, line, col, message, hint=hint,
                                          end_line=end_line, end_col=end_col))

    # Failures of the block functions. Each stores the cursor where recovery
    # resumes: at a token not allowed there, or past a refused value ---

    def _found(self, pos: int, hint: str, where: str = "") -> _SyntaxFailure:
        self.pos = pos
        return self._fail(f"found {_describe(self.current)}{where}", hint=hint)

    def _invalid(self, pos: int, kind: str, about=None) -> _SyntaxFailure:
        """Why a value of ``kind`` is refused; ``about``: a name's owner, a color's area."""
        if kind == "grade":
            for pos, token_type in enumerate(("IDENT", "AT", "INT"), pos):
                if self.tokens[pos][0] != token_type:
                    break
            return self._found(pos, _EXPECTED[token_type])
        token, value_kind = self.tokens[pos], _KINDS[kind]
        if token[0] != value_kind.token:
            return self._found(pos, value_kind.hint)
        self.pos = pos + 1
        if value_kind.choices:
            return self._fail(f"unknown {value_kind.noun} {token[1]!r}", token=token,
                              hint="one of " + ", ".join(value_kind.choices))
        if kind == "color":
            message = f"area {about.value} must be {about.color}, not {token[1]!r}"
        else:
            name = token[1] if kind == "name" else token[1].replace("_", " ")
            message = f"{about} name {name!r} contains no usable characters"
        return self._fail(message, token=token)

    def _none_of(self, start: tuple, pos: int, message: str, hint: str) -> None:
        """A run that needs a clause has none; a missing goal is recorded, not raised."""
        if hint != "'goal'":
            self.pos = pos
            raise self._fail(message, hint=hint)
        end = self.tokens[pos - 1]
        self.diagnostics.append(Diagnostic(
            rule=SYNTAX_RULE, severity=Severity.ERROR, path="", message=message,
            span=SourceSpan(self.file, start[2], start[3], end[4], end[5]), hint=hint))

    def parse_document(self) -> list:
        declarations = []
        while self.current[0] != "EOF":
            token = self.current
            block = _TOP.get(token[1]) if token[0] == "IDENT" else None
            try:
                if block is None:
                    raise self._fail(f"found {_describe(token)} at top level",
                                     hint=_TOP_HINT)
                declarations.append(block(self, self.tokens, self.pos))
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
            self.pos += 1


# Value kinds, read by the parser and written by the canonical renderer --------

_EXPECTED = {"IDENT": "an identifier", "STRING": "a string", "INT": "an integer", "AT": "'@'"}
# Full matches of the lexer's own IDENT and INT patterns.
_IDENT = re.compile(_TOKEN_PATTERNS["IDENT"], re.VERBOSE).fullmatch
_INT = re.compile(_TOKEN_PATTERNS["INT"]).fullmatch


def _string(text: str) -> str:
    # The lexer's STRING pattern takes any text whose quotes are escaped,
    # except a backslash of its own or a line break.
    if "\\" in text or "\n" in text:
        raise ValueError(f"text {text!r} is not representable as a string")
    return '"' + text.replace('"', '\\"') + '"'


def _identifier(name: str) -> str:
    encoded = name.replace(" ", "_")
    if "_" in name or _IDENT(encoded) is None:  # the reader reads "_" as " "
        raise ValueError(f"name {name!r} is not representable as an identifier")
    return encoded


def _named(write):  # the reader refuses a declared name that yields no id
    return lambda name: write(checked_name(name))


def _int(level: int) -> str:
    if _INT(str(level)) is None:
        raise ValueError(f"level {level!r} is not representable as an integer")
    return str(level)


def _word(text: str) -> str:
    if _IDENT(text) is None:
        raise ValueError(f"tag {text!r} is not representable as an identifier")
    return text


def _contribution(contribution: Contribution) -> str:
    if ": " in contribution.work_product:  # the reader splits at the first ": "
        raise ValueError(f"work product {contribution.work_product!r} is not "
                         "representable in a contribution")
    return _string(contribution.rendered_name())


class _Kind:
    """One value kind: the type of the token its value starts at, the source
    of what the reader takes from that token ``t`` (``{local}``: the name a
    choice is looked up into; ``{level}``: where a grade's level is), what a
    refusal reports, and the writer, which raises ValueError for exactly the
    values the reader would refuse or give back changed. A choice maps each
    word of its set to a value, and is written as that word."""

    def __init__(self, token: str, value: str, write=None, hint=None, noun="", choices=()):
        self.token, self.value, self.noun, self.choices = token, value, noun, choices
        self.hint, self.write = hint or _EXPECTED[token], write or self._choice
        self.words = {choice: word for word, choice in dict(choices).items()}

    def _choice(self, value) -> str:
        word = self.words.get(value)
        if word is None:
            raise ValueError(f"{self.noun} {value!r} is not one of {', '.join(self.choices)}")
        return word


_KINDS = {
    "name": _Kind("STRING", "t[1]", _named(_string)),
    "string": _Kind("STRING", "t[1]", _string),
    "contribution": _Kind("STRING", "Contribution.from_text(t[1])", _contribution),
    "int": _Kind("INT", "t[1]", _int),
    "word": _Kind("IDENT", "t[1]", _word),
    "ident": _Kind("IDENT", "t[1].replace('_', ' ')", _named(_identifier)),
    "area": _Kind("IDENT", "{local}", hint="an area name (Customer, Solution, Endeavor)",
                  noun="area", choices={area.value: area for area in Area}),
    "category": _Kind("IDENT", "{local}", hint="a category", noun="category",
                      choices={c.value: c for c in WorkProductCategory}),
    "tag": _Kind("IDENT", "{local}", hint="an activity tag", noun="tag",
                 choices={tag: tag for tag in ACTIVITY_TAGS}),
    "phase": _Kind("IDENT", "{local}", hint="a phase id (P, A-H, RM)", noun="phase id",
                   choices={phase: phase for phase in PHASE_IDS}),
    "color": _Kind("IDENT", "area", lambda area: area.color, "a color name"),
    "grade": _Kind("IDENT", "CompetencyGrade(t[1].replace('_', ' '), tokens[{level}][1])",
                   lambda grade: f"{_identifier(grade.competency)} @ {_int(grade.level)}"),
}


# The block functions, generated from GRAMMAR at import ------------------------
# ``parse_<key>(parser, tokens, pos)`` reads block ``key`` from its keyword at
# ``pos``, which the caller checked, returns its element with ``parser.pos`` past
# it, and costs one frame. It keeps the cursor in ``pos``, tests token types inline,
# builds the element positionally, and stores the cursor in ``parser.pos`` before
# each raise and child block call, so recovery starts from a token it reached.

def _at(offset: int) -> str:
    return f"pos + {offset}" if offset else "pos"


def _read(kind: str, at: int, what: str, local: str) -> tuple[list[str], str]:
    """The lines that check a value of ``kind`` at ``at`` tokens past ``pos``,
    and the value. A choice is looked up into ``local``; a color must match
    ``area``."""
    value_kind = _KINDS[kind]
    load, fail = f"t = tokens[{_at(at)}]", f"raise self._invalid({_at(at)}, {kind!r}"
    test = f"t[0] != {value_kind.token!r}"
    value = value_kind.value.format(local=local, level=_at(at + 2))
    if value_kind.choices:
        return [load, f"{local} = _{kind.upper()}.get(t[1])",
                f"if {local} is None or {test}: {fail})"], value
    if kind == "color":
        test, fail = "t[1] != _COLORS[area] or " + test, fail + ", area"
    elif kind == "grade":
        test += f" or tokens[{_at(at + 1)}][0] != 'AT' or tokens[{_at(at + 2)}][0] != 'INT'"
    elif kind in ("name", "ident"):
        test, fail = test + f" or not _usable({value})", fail + f", {what!r}"
    return [load, f"if {test}: {fail})"], value


def _indented(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def _value(clause: _Clause, what: str, at: int = 0) -> list[str]:
    """The lines that read a ``one`` or ``opt`` clause, ``at`` past ``pos``."""
    at += clause.word is not None
    check, value = _read(clause.kind, at, what, clause.field)
    lines = [*check, *([f"{clause.field} = {value}"] if value != clause.field else []),
             f"pos += {at + (3 if clause.kind == 'grade' else 1)}"]
    if clause.word is None:
        return lines
    test, hint = f"t[1] == {clause.word!r} and t[0] == 'IDENT'", f"'{clause.word}'"
    if clause.repeat == "opt":
        return ["t = tokens[pos]", f"if {test}:", *_indented(lines)]
    return ["t = tokens[pos]", f"if not ({test}): raise self._found(pos, {hint!r})", *lines]


def _run(run: tuple[_Clause, ...], what: str) -> list[str]:
    """The lines that read a run of interleaved clauses into their lists."""
    single = len(run) == 1
    lines = ["t = tokens[pos]", f"while t[1] == {run[0].word!r} and t[0] == 'IDENT':"
             if single else "while t[0] == 'IDENT':"]
    for index, clause in enumerate(run):
        if clause.kind in GRAMMAR:
            item = [f"self.pos = pos; {clause.field}.append("
                    f"parse_{clause.kind}(self, tokens, pos)); pos = self.pos"]
        else:
            check, value = _read(clause.kind, 1, what, "v")
            width = 4 if clause.kind == "grade" else 2
            item = [*check, f"{clause.field}.append({value}); pos += {width}"]
        lines += _indented(item) if single else [
            f"    {'el' if index else ''}if t[1] == {clause.word!r}:",
            *_indented(_indented(item))]
    lines += [*([] if single else ["    else: break"]), "    t = tokens[pos]"]
    for clause in run:
        if clause.repeat == "some":
            noun = _AT_LEAST.get(clause.word, clause.word)
            message, hint = f"{what} requires at least one {noun}", f"'{clause.word}'"
            lines.append(f"if not {clause.field}: "
                         f"self._none_of(start, pos, {message!r}, {hint!r})")
    return lines


def _clauses(runs, what: str, first: bool = False) -> list[str]:
    """The lines that read ``runs``; the ``first`` of a block follows its keyword."""
    return [line for index, run in enumerate(runs) for line in (
        _value(run[0], what, first and index == 0) if run[0].repeat in ("one", "opt")
        else _run(run, what))]


def _define(key: str, block: _Block, scope: dict) -> str:
    """Define ``parse_<key>`` and the names it reads in ``scope``; return its source."""
    cls, name = block.cls, block.cls.__name__
    what = "work product" if cls is WorkProduct else cls.kind
    clauses = [*block.head, *(clause for run in block.body for clause in run)]
    lists = [c.field for c in clauses if c.repeat in ("many", "some")]
    scope[name] = cls
    scope.update({f"_{name}_{f}": v for f, v in vars(cls).items() if f in cls._shown})
    lines = ["start = tokens[pos]", *(f"{field} = []" for field in dict.fromkeys(lists)),
             *(f"{c.field} = _{name}_{c.field}" for c in clauses if c.repeat == "opt"),
             *_clauses([(clause,) for clause in block.head], what, first=True)]
    if block.braces != "no":
        hint, where = "'}'", ""
        if cls is Kernel:
            hint = ", ".join(f"'{clause.word}'" for clause in block.body[0]) + ", or '}'"
            where = ", ' in kernel body'"
        body = [*_clauses(block.body, what), "if tokens[pos][0] != 'RBRACE': "
                f"raise self._found(pos, {hint!r}{where})", "pos += 1"]
        if block.braces == "opt":
            lines += ["if tokens[pos][0] == 'LBRACE':", *_indented(["pos += 1", *body])]
        else:
            lines += ["if tokens[pos][0] != 'LBRACE': raise self._found(pos, \"'{'\")",
                      "pos += 1", *body]
    if cls is ActivitySpec:
        lines += ["tags = tuple(dict.fromkeys(tags))",
                  "if not tags and not sub_activities:",
                  "    self.pos = pos",
                  "    raise self._fail(f'activity {name!r} requires at least one tag "
                  "or sub-activities', token=start)"]
    written = {clause.field for clause in clauses}
    fields = ", ".join(f"tuple({f})" if f in lists else f if f in written else f"_{name}_{f}"
                       for f in cls._shown)
    source = "\n".join([f"def parse_{key}(self, tokens, pos):", *_indented([
        *lines, "end = tokens[pos - 1]", "self.pos = pos", f"return {name}({fields}, "
        "SourceSpan(self.file, start[2], start[3], end[4], end[5]))"])])
    # One compile per function: one of all of them would leave the compiler's
    # peak, about 0.9 MB, in the process's resident memory.
    exec(compile(source, "<esskit.dsl GRAMMAR>", "exec"), scope)
    return source


_SCOPE = {"CompetencyGrade": CompetencyGrade, "Contribution": Contribution,
          "SourceSpan": SourceSpan, "_usable": yields_id,
          "_COLORS": {area: area.color for area in Area},
          **{f"_{kind.upper()}": k.choices for kind, k in _KINDS.items() if k.choices}}
for _item in GRAMMAR.items():
    _define(*_item, _SCOPE)

_TOP = {clause.word: _SCOPE[f"parse_{clause.kind}"] for clause in _DOCUMENT}
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
