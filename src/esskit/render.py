"""Canonical text rendering and machine-readable exports.

``render_canonical`` is the inverse of :func:`esskit.dsl.parse` up to source
spans: fixed two-space indentation, declaration order preserved, one block
member per line, every optional attribute written explicitly. It writes the
clauses of :data:`esskit.dsl.GRAMMAR`, the table the parser reads, so
parsing the rendered text reproduces a structurally equal document, and
rendering is idempotent.
"""

from __future__ import annotations

import re

from .dsl import _DOCUMENT, _TOKEN_PATTERNS, GRAMMAR
from .model import (
    ACTIVITY_TAGS,
    PHASE_IDS,
    Activity,
    Alpha,
    AlphaState,
    AreaDecl,
    Competency,
    Method,
    ModelDocument,
    Practice,
    Role,
    Space,
    StepSpec,
    TogafPhase,
    WorkProduct,
    dotted_id,
    walk_specs,
)

# Full matches of the lexer's own IDENT and INT patterns.
_IDENT = re.compile(_TOKEN_PATTERNS["IDENT"], re.VERBOSE).fullmatch
_INT = re.compile(_TOKEN_PATTERNS["INT"]).fullmatch


def _string(value: str) -> str:
    # The lexer's STRING pattern takes any text whose quotes are escaped,
    # except a backslash of its own or a line break.
    if "\\" in value or "\n" in value:
        raise ValueError(f"text {value!r} is not representable as a string")
    return '"' + value.replace('"', '\\"') + '"'


def _ident(name: str) -> str:
    encoded = name.replace(" ", "_")
    if "_" in name or _IDENT(encoded) is None:  # the parser reads "_" as " "
        raise ValueError(f"name {name!r} is not representable as an identifier")
    return encoded


def _int(level: int) -> str:
    if _INT(str(level)) is None:
        raise ValueError(f"level {level!r} is not representable as an integer")
    return str(level)


def _contribution(contribution) -> str:
    if ": " in contribution.work_product:  # the parser splits at the first ": "
        raise ValueError(f"work product {contribution.work_product!r} is not "
                         "representable in a contribution")
    return _string(contribution.rendered_name())


def _word(text: str) -> str:
    if _IDENT(text) is None:
        raise ValueError(f"tag {text!r} is not representable as an identifier")
    return text


def _one_of(what: str, choices: tuple[str, ...]):
    def write(value: str) -> str:
        if value not in choices:
            raise ValueError(f"{what} {value!r} is not one of {', '.join(choices)}")
        return value

    return write


# One writer per value kind of the grammar.
_WRITERS = {
    "int": _int,
    "word": _word,
    "tag": _one_of("activity tag", ACTIVITY_TAGS),
    "phase": _one_of("phase id", PHASE_IDS),
    "name": _string,
    "string": _string,
    "ident": _ident,
    "area": lambda area: _ident(area.value),
    "color": lambda area: area.color,
    "category": lambda category: category.value,
    "grade": lambda grade: f"{_ident(grade.competency)} @ {_int(grade.level)}",
    "contribution": _contribution,
}


# How often a clause's value is written: once, when not None, or per item.
_ONE, _OPT, _MANY = 0, 1, 2


def _entry(clause, prefix: str) -> tuple:
    repeat = {"one": _ONE, "opt": _OPT}.get(clause.repeat, _MANY)
    return prefix, clause.field, _WRITERS[clause.kind], repeat, None


def _plan(block) -> tuple:
    """``(keyword, head entries, body entries, braces, unwritten, required)``
    of a block.

    An entry is ``(prefix, field, writer, repeat, children)``. A field of
    child blocks is one body entry whose ``children`` maps each element class
    it may hold to that block's key; ``children`` is None for a value field.
    ``unwritten`` pairs each shown field no clause writes with its default,
    such as the members of a kernel space or the area of a practice space.
    ``required`` pairs the field of each ``some`` clause, which the parser
    needs at least once, with the clause's word.
    """
    head = tuple(_entry(clause, f" {clause.word} " if clause.word else " ")
                 for clause in block.head)
    body: dict = {}
    for run in block.body:
        for clause in run:
            if clause.kind in GRAMMAR:
                entry = body.setdefault(clause.field, (None, clause.field, None, _MANY, {}))
                entry[4][GRAMMAR[clause.kind].cls] = clause.kind
            else:
                body[clause.field] = _entry(clause, f"{clause.word} ")
    written = {clause.field for clause in block.head} | body.keys()
    unwritten = tuple((field, getattr(block.cls, field))
                      for field in block.cls._shown if field not in written)
    required = tuple((clause.field, clause.word) for run in block.body for clause in run
                     if clause.repeat == "some")
    return block.word, head, tuple(body.values()), block.braces, unwritten, required


_PLANS = {key: _plan(block) for key, block in GRAMMAR.items()}
_DECLARATIONS = {GRAMMAR[clause.kind].cls: clause.kind for clause in _DOCUMENT}


def render_canonical(document: ModelDocument) -> str:
    """Deterministic canonical DSL text for ``document``.

    An empty document renders as empty text. Raises ValueError for names the
    surface syntax cannot carry (backslashes, line breaks, an identifier
    holding an underscore, a contributed work product holding ``": "``, or
    names that do not survive the identifier encoding), for a field its
    block has no clause for that differs from its default (a kernel space's
    members, a practice space's area or parent), for an empty field the
    parser needs at least one of (a practice's goals, a role's competencies,
    a method's cycle, an alpha's states, a state's checklist), and for a
    phase activity with no tag and no sub-activity or with a repeated tag;
    and TypeError for an element the grammar has no place for, such as an
    activity directly in a practice.
    """
    lines: list[str] = []
    for declaration in document.declarations:
        key = _DECLARATIONS.get(declaration.__class__)
        if key is None:
            raise TypeError(f"cannot render {type(declaration).__name__}")
        _render(lines, declaration, key, "")
    return "\n".join(lines) + "\n" if lines else ""


def _render(lines: list[str], element, key: str, indent: str) -> None:
    """Append the lines of ``element``, an instance of block ``key``; a child
    block is one direct call of this function, so each level of nesting
    costs one frame."""
    word, head, body, braces, unwritten, required = _PLANS[key]
    for field, default in unwritten:
        if getattr(element, field) != default:
            raise ValueError(f"{key} block cannot write the {field} of "
                             f"{element.kind} {element.name!r}")
    for field, clause in required:
        if not getattr(element, field):
            raise ValueError(f"{key} block of {element.kind} {element.name!r} "
                             f"requires at least one {clause!r} clause")
    if key == "spec_activity":
        # The parser keeps one of each tag and needs a tag or a sub-activity.
        if len(set(element.tags)) != len(element.tags):
            raise ValueError(f"activity {element.name!r} repeats a 'tag' clause")
        if not element.tags and not element.sub_activities:
            raise ValueError(f"activity {element.name!r} requires a 'tag' clause "
                             "or a sub-activity")
    line = indent + word
    for prefix, field, write, repeat, _ in head:
        value = getattr(element, field)
        if repeat is _MANY:
            for item in value:
                line += prefix + write(item)
        elif repeat is _ONE or value is not None:
            line += prefix + write(value)
    if braces == "no" or (braces == "opt" and not any(
            getattr(element, entry[1]) for entry in body)):
        lines.append(line)
        return
    lines.append(line + " {")
    inner = indent + "  "
    for prefix, field, write, repeat, children in body:
        value = getattr(element, field)
        if children is not None:
            for child in value:
                child_key = children.get(child.__class__)
                if child_key is None:
                    raise TypeError(f"cannot render {word} member {type(child).__name__}")
                _render(lines, child, child_key, inner)
        elif repeat is _MANY:
            for item in value:
                lines.append(inner + prefix + write(item))
        elif repeat is _ONE or value is not None:
            lines.append(inner + prefix + write(value))
    lines.append(indent + "}")


# Machine-readable export ---------------------------------------------------


# The top-level list of each document-level element, and the list of its
# owner's record that each owned element joins.
_TREE_LISTS = {
    AreaDecl: "areas", Alpha: "alphas", Competency: "competencies", Space: "spaces",
    WorkProduct: "work_products", Role: "roles", Practice: "practices",
    Method: "methods", TogafPhase: "phases",
}
_OWNED_LISTS = {AlphaState: "states", WorkProduct: "outputs", Space: "spaces",
                Activity: "activities"}


def export_json(model, *, diagnostics=()) -> str:
    """Stable JSON tree for a resolved document.

    ``model`` is a :class:`~esskit.validator.ResolvedModel` or a
    :class:`ModelDocument`, which is resolved first. The top-level keys are
    fixed: the element lists from ``areas`` to ``phases``, then the
    ``diagnostics`` passed in. Arrays follow declaration order; every element
    record carries ``id``, ``name``, and ``kind``. References are emitted as
    element ids, so the document must resolve; dangling references raise
    :class:`esskit.diagnostics.ResolveError` listing the offending ids.
    """
    if isinstance(model, ModelDocument):
        from .validator import resolve

        document = resolve(model).document
    else:
        document = model.document
    tree = {key: [] for key in _TREE_LISTS.values()}
    tree["diagnostics"] = [d.to_record() for d in diagnostics]
    # The walk is pre-order, so an element's owner is the latest record at
    # its parent id, even when ids collide, and a practice's spaces and
    # activities follow the practice.
    records: dict[str, dict] = {}
    for ident, element, parent_id, _ in document.walk():
        cls = element.__class__
        if parent_id is None:
            siblings = tree.get(_TREE_LISTS.get(cls))
        else:
            siblings = records.get(parent_id, {}).get(_OWNED_LISTS.get(cls))
        if siblings is None:
            # A kernel, or the contents of a kernel space (possible only in a
            # hand-built document), which the tree gives no members.
            continue
        record = {"id": ident, "name": element.name, "kind": element.kind}
        siblings.append(record)
        records[ident] = record
        if cls is AreaDecl:
            record["color"] = element.area.color
        elif cls is Alpha:
            record.update(area=_area_id(element.area), states=[])
        elif cls is AlphaState:
            record["checklist"] = [{"key": f"{len(siblings)}.{ci}", "text": text}
                                   for ci, text in enumerate(element.checklist, 1)]
        elif cls is Competency:
            record.update(area=_area_id(element.area), max_level=element.max_level,
                          builtin=element.kernel_builtin)
        elif cls is WorkProduct:
            record.update(category=element.category.value,
                          description=element.description)
        elif cls is Role:
            record["competencies"] = [_grade_record(g) for g in element.competencies]
        elif cls is Practice:
            practice, wp_ref = element, _work_product_ref(element, ident)
            record.update(area=_area_id(element.area), goals=list(element.goals),
                          inputs=list(element.inputs), outputs=[], spaces=[],
                          activities=[])
        elif cls is Space and parent_id is None:
            record.update(area=_area_id(element.area), parent=dotted_id(
                "space", element.parent) if element.parent else None, goal=element.goal)
        elif cls is Space:
            record.update(area=_area_id(element.area or practice.area),
                          goal=element.goal, spaces=[], activities=[])
        elif cls is Activity:
            record.update(
                requires=[_grade_record(g) for g in element.requires],
                produces=[{
                    "work_product": wp_ref(c.work_product),
                    "part": c.part,
                    "rendered": c.rendered_name(),
                } for c in element.produces],
                role=dotted_id("role", element.role) if element.role else None,
                tags=list(element.tags))
        elif cls is Method:
            record.update(
                preamble=dotted_id("practice", element.preamble) if element.preamble else None,
                cycle=[dotted_id("practice", n) for n in element.cycle],
                concurrent=[dotted_id("practice", n) for n in element.concurrent])
        elif cls is TogafPhase:
            record.update(phase=element.phase, objective=element.objective,
                          outputs=[], steps=_step_records(element, ident))
    return _json(tree)


def _json(value) -> str:
    """``json.dumps(value, indent=2, ensure_ascii=False) + "\\n"`` for a tree
    of dicts with string keys, lists, tuples, strings, ints, booleans and
    None.

    Containers are walked with an explicit stack instead of two frames per
    nesting level, and each value is one chunk that carries its separator,
    indentation and key, as the standard encoder's chunks do. The final line
    break is a chunk too, which spares a copy of the whole text.
    """
    from json.encoder import encode_basestring as quote

    chunks: list[str] = []
    append = chunks.append
    # One frame per open container: (items, keyed, separator, closing); the
    # root frame holds ``value`` alone.
    stack = [(iter((value,)), False, "", "\n")]
    lead = ""
    while stack:
        items, keyed, separator, closing = stack[-1]
        item = next(items, _DONE)
        if item is _DONE:
            stack.pop()
            append(closing)
            if stack:
                lead = stack[-1][2]
            continue
        if keyed:
            key, item = item
            lead += quote(key) + ": "
        if isinstance(item, str):
            append(lead + quote(item))
        elif item is None:
            append(lead + "null")
        elif item is True:
            append(lead + "true")
        elif item is False:
            append(lead + "false")
        elif isinstance(item, int):
            append(lead + int.__repr__(item))
        elif isinstance(item, (dict, list, tuple)):
            mapping = isinstance(item, dict)
            if item:
                indent = "\n" + "  " * len(stack)
                stack.append((iter(item.items() if mapping else item), mapping,
                              "," + indent, indent[:-2] + ("}" if mapping else "]")))
                lead += ("{" if mapping else "[") + indent
                continue
            append(lead + ("{}" if mapping else "[]"))
        else:
            raise TypeError(f"Object of type {type(item).__name__} is not JSON serializable")
        lead = separator
    return "".join(chunks)


_DONE = object()


def _area_id(area) -> str:
    return dotted_id("area", area.value)


def _grade_record(grade) -> dict:
    return {"competency": dotted_id("competency", grade.competency),
            "level": grade.level}


def _work_product_ref(practice: Practice, own: str):
    """Map a work-product name used by the practice's activities to its id.

    ``own`` is the practice's id. Practice outputs shadow kernel-level work
    products of the same name.
    """
    local = {wp.name for wp in practice.outputs}

    def ref(name: str) -> str:
        if name in local:
            return f"{own}/{dotted_id('workproduct', name)}"
        return dotted_id("workproduct", name)

    return ref


def _step_records(phase: TogafPhase, own: str) -> list[dict]:
    """The records of the steps of ``phase``, whose id is ``own``."""
    # Pre-order: a spec's parent is the latest record at the parent path,
    # even when sibling specs share a name. The phase's own entry collects
    # the steps under the key every spec record uses for its children.
    records: dict[str, dict] = {own: {"activities": []}}
    for path, spec, _, parent_path in walk_specs(phase):
        if isinstance(spec, StepSpec):
            records[path] = {"name": spec.name, "goal": spec.goal, "activities": []}
        else:
            records[path] = {
                "name": spec.name,
                "tags": list(spec.tags),
                "feeds": [{
                    "output": f"{own}/{dotted_id('workproduct', c.work_product)}",
                    "part": c.part,
                } for c in spec.feeds],
                "role": dotted_id("role", spec.role) if spec.role else None,
                "activities": [],
            }
        records[parent_path]["activities"].append(records[path])
    return records[own]["activities"]


# DOT export -----------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(document: ModelDocument) -> str:
    """Containment graph of the document's practices in DOT form.

    One node per practice, space, activity, and practice output; edges
    follow containment (practice to space to activity) and production
    (activity to work product, labelled with the contributed part).
    """
    lines = ["digraph essence {", '  rankdir="LR";', '  node [shape=box];']
    edges: list[str] = []

    def node(ident: str, label: str, shape: str | None = None) -> None:
        attrs = f'label="{_dot_escape(label)}"'
        if shape:
            attrs += f' shape={shape}'
        lines.append(f'  "{_dot_escape(ident)}" [{attrs}];')

    def edge(src: str, dst: str, label: str | None = None) -> None:
        attrs = f' [label="{_dot_escape(label)}"]' if label else ""
        edges.append(f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}"{attrs};')

    # A practice's contents follow it in the walk, up to the next entry at
    # depth 0.
    practice = None
    for ident, element, parent_id, depth in document.walk():
        if depth == 0:
            practice = element if isinstance(element, Practice) else None
            if practice is not None:
                wp_ref = _work_product_ref(practice, ident)
                node(ident, element.name, "component")
        elif practice is None:
            continue
        elif isinstance(element, WorkProduct):
            node(ident, element.name, "note")
        elif isinstance(element, Space):
            node(ident, element.name, "folder")
            edge(parent_id, ident)
        else:
            node(ident, element.name)
            edge(parent_id, ident)
            for contribution in element.produces:
                edge(ident, wp_ref(contribution.work_product), contribution.part)

    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
