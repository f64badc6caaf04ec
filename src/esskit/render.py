"""Canonical text rendering and machine-readable exports.

``render_canonical`` is the inverse of :func:`esskit.dsl.parse` up to source
spans: fixed two-space indentation, declaration order preserved, one block
member per line, every optional attribute written explicitly. It writes the
clauses of :data:`esskit.dsl.GRAMMAR` with the writers of the value kinds
the parser reads them as, so parsing the rendered text reproduces a
structurally equal document, and rendering is idempotent.

``export_json`` writes a resolved document's JSON tree, each record from its
kind's template; ``export_dot`` writes the practices' containment graph.
"""

from __future__ import annotations

from .dsl import _DOCUMENT, _KINDS, GRAMMAR
from .model import (
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


# How often a clause's value is written: once, when not None, or per item.
_ONE, _OPT, _MANY = 0, 1, 2


def _entry(block, clause, prefix: str) -> tuple:
    # An optional clause is left out for None only where the parser reads None back.
    optional = clause.repeat == "opt" and getattr(block.cls, clause.field) is None
    repeat = _OPT if optional else _MANY if clause.repeat in ("many", "some") else _ONE
    return prefix, clause.field, _KINDS[clause.kind].write, repeat, None


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
    head = tuple(_entry(block, clause, f" {clause.word} " if clause.word else " ")
                 for clause in block.head)
    body: dict = {}
    for run in block.body:
        for clause in run:
            if clause.kind in GRAMMAR:
                entry = body.setdefault(clause.field, (None, clause.field, None, _MANY, {}))
                entry[4][GRAMMAR[clause.kind].cls] = clause.kind
            else:
                body[clause.field] = _entry(block, clause, f"{clause.word} ")
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

    An empty document renders as empty text. Raises ValueError for a value
    the parser would refuse or read back changed, which the writers of
    :data:`esskit.dsl._KINDS` refuse (such as a name that yields no id), for
    a field its block has no clause for that differs from its default (a
    kernel space's members, a practice space's area or parent), for an empty
    field the parser needs at least one of (a practice's goals, a role's
    competencies, a method's cycle, an alpha's states, a state's checklist),
    for a phase activity with no tag and no sub-activity or with a repeated
    tag, and for a document in which two elements share an id, naming the
    first such id; and TypeError for an element the grammar has no place
    for, such as an activity directly in a practice.
    """
    collisions = document.id_collisions()
    if collisions:  # the parser refuses duplicate ids
        raise ValueError(f"cannot render duplicate id {collisions[0][0]!r}")
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


# The top-level list of each document-level element.
_TREE_LISTS = {
    AreaDecl: "areas", Alpha: "alphas", Competency: "competencies", Space: "spaces",
    WorkProduct: "work_products", Role: "roles", Practice: "practices",
    Method: "methods", TogafPhase: "phases",
}


def export_json(model, *, diagnostics=()) -> str:
    """Stable JSON tree for a resolved document.

    ``model`` is a :class:`~esskit.validator.ResolvedModel` or a
    :class:`ModelDocument`, which is resolved first. The top-level keys are
    fixed: the element lists from ``areas`` to ``phases``, then the
    ``diagnostics`` passed in. Arrays follow declaration order; every element
    record carries ``id``, ``name``, and ``kind``. References are emitted as
    element ids, so the document must resolve; dangling references raise
    :class:`esskit.diagnostics.ResolveError` listing the offending ids. A
    level, line or column that is not an int raises TypeError or ValueError.

    The text is ``json.dumps(tree, indent=2, ensure_ascii=False) + "\\n"``,
    but no tree is built: each record is written from its element by its
    kind's template, indented by its depth, and one pass joins the text.
    """
    from json.encoder import encode_basestring as quote

    if isinstance(model, ModelDocument):
        from .validator import resolve

        document = resolve(model).document
    else:
        document = model.document
    lists = {key: [] for key in _TREE_LISTS.values()}
    lists["diagnostics"] = [_diagnostic(quote, d) for d in diagnostics]
    # The arrays of each record that holds records, by the class they hold.
    # The walk is pre-order, so an element's owner is the latest record at its
    # parent id, even when ids collide, and a practice's spaces and activities
    # follow the practice. Ids, slugs joined by "." and "/", need no escaping.
    owners: dict[str, dict[type, list]] = {}
    for ident, element, parent_id, depth in document.walk():
        cls = element.__class__
        siblings = (lists.get(_TREE_LISTS.get(cls)) if parent_id is None
                    else owners.get(parent_id, {}).get(cls))
        if siblings is None:
            # A kernel, or the contents of a kernel space (possible only in a
            # hand-built document), which the tree gives no members.
            continue
        k = "\n" + "  " * (3 + 2 * depth)  # the line break and indent of each key
        end = k[:-2] + "}"
        head = (f'{{{k}"id": "{ident}",{k}"name": {quote(element.name)},'
                f'{k}"kind": "{element.kind}",{k}')
        if cls is AreaDecl:
            record = f'{head}"color": "{element.area.color}"{end}'
        elif cls is Alpha:
            states = []
            owners[ident] = {AlphaState: states}
            record = (f'{head}"area": "{_area_id(element.area)}",{k}"states": ', states, end)
        elif cls is AlphaState:
            i, j = k + "  ", k + "    "
            checklist = [f'{{{j}"key": "{len(siblings) + 1}.{ci}",{j}"text": {quote(text)}{i}}}'
                         for ci, text in enumerate(element.checklist, 1)]
            record = f'{head}"checklist": {_array(checklist, k)}{end}'
        elif cls is Competency:
            record = (f'{head}"area": "{_area_id(element.area)}",{k}"max_level": '
                      f'{element.max_level:d},{k}"builtin": '
                      f'{"true" if element.kernel_builtin else "false"}{end}')
        elif cls is WorkProduct:
            record = (f'{head}"category": {quote(element.category.value)},{k}"description": '
                      f'{_text(quote, element.description)}{end}')
        elif cls is Role:
            record = f'{head}"competencies": {_grades(element.competencies, k)}{end}'
        elif cls is Practice:
            practice, wp_ref = element, _work_product_ref(element, ident)
            outputs, spaces, activities = [], [], []
            owners[ident] = {WorkProduct: outputs, Space: spaces, Activity: activities}
            record = (f'{head}"area": "{_area_id(element.area)}",'
                      f'{k}"goals": {_array([quote(text) for text in element.goals], k)},'
                      f'{k}"inputs": {_array([quote(text) for text in element.inputs], k)},'
                      f'{k}"outputs": ', outputs, f',{k}"spaces": ', spaces,
                      f',{k}"activities": ', activities, end)
        elif cls is Space and parent_id is None:
            parent = _ref("space", element.parent)
            record = (f'{head}"area": "{_area_id(element.area)}",{k}"parent": {parent},'
                      f'{k}"goal": {_text(quote, element.goal)}{end}')
        elif cls is Space:
            spaces, activities = [], []
            owners[ident] = {Space: spaces, Activity: activities}
            record = (f'{head}"area": "{_area_id(element.area or practice.area)}",'
                      f'{k}"goal": {_text(quote, element.goal)},{k}"spaces": ', spaces,
                      f',{k}"activities": ', activities, end)
        elif cls is Activity:
            i, j = k + "  ", k + "    "
            produces = [f'{{{j}"work_product": "{wp_ref(c.work_product)}",{j}"part": '
                        f'{_text(quote, c.part)},{j}"rendered": {quote(c.rendered_name())}{i}}}'
                        for c in element.produces]
            record = (f'{head}"requires": {_grades(element.requires, k)},'
                      f'{k}"produces": {_array(produces, k)},'
                      f'{k}"role": {_ref("role", element.role)},'
                      f'{k}"tags": {_array([quote(t) for t in element.tags], k)}{end}')
        elif cls is Method:
            cycle = [f'"{dotted_id("practice", n)}"' for n in element.cycle]
            concurrent = [f'"{dotted_id("practice", n)}"' for n in element.concurrent]
            record = (f'{head}"preamble": {_ref("practice", element.preamble)},'
                      f'{k}"cycle": {_array(cycle, k)},{k}"concurrent": '
                      f'{_array(concurrent, k)}{end}')
        elif cls is TogafPhase:
            outputs = []
            owners[ident] = {WorkProduct: outputs}
            record = (f'{head}"phase": {quote(element.phase)},{k}"objective": '
                      f'{quote(element.objective)},{k}"outputs": ', outputs,
                      f',{k}"steps": ', _step_records(quote, element, ident), end)
        siblings.append(record)
    pieces = []
    for key, records in lists.items():
        pieces += (f'{"," if pieces else "{"}\n  "{key}": ', records)
    pieces.append("\n}\n")
    return _joined(pieces)


def _step_records(quote, phase: TogafPhase, own: str) -> list:
    """The records of the steps of ``phase``, whose id is ``own``."""
    # Pre-order: a spec's parent is the latest record at the parent path,
    # even when sibling specs share a name. Its depth is its chain's length.
    arrays: dict[str, list] = {own: []}
    for path, spec, chain, parent_path in walk_specs(phase):
        k = "\n" + "  " * (3 + 2 * len(chain))
        head = f'{{{k}"name": {quote(spec.name)},{k}'
        if isinstance(spec, StepSpec):
            head += f'"goal": {_text(quote, spec.goal)},{k}"activities": '
        else:
            i, j = k + "  ", k + "    "
            feeds = [f'{{{j}"output": "{dotted_id("workproduct", c.work_product, own)}",'
                     f'{j}"part": {_text(quote, c.part)}{i}}}' for c in spec.feeds]
            head += (f'"tags": {_array([quote(t) for t in spec.tags], k)},'
                     f'{k}"feeds": {_array(feeds, k)},{k}"role": {_ref("role", spec.role)},'
                     f'{k}"activities": ')
        arrays[path] = children = []
        arrays[parent_path].append((head, children, k[:-2] + "}"))
    return arrays[own]


def _joined(pieces: list) -> str:
    """The text of ``pieces``: strings, arrays of records, and records that
    hold records, which are tuples of strings and arrays. One explicit-stack
    pass indents each array by its nesting level and joins the text once."""
    chunks: list[str] = []
    append = chunks.append
    stack = [iter(pieces)]
    while stack:
        for piece in stack[-1]:
            if piece.__class__ is str:
                append(piece)
            elif piece.__class__ is tuple:
                stack.append(iter(piece))
                break
            elif piece:
                # Records and arrays alternate on the stack from the document
                # down, so an array's items sit one level below its own.
                indent = "\n" + "  " * (len(stack) + 1)
                items = [f",{indent}"] * (2 * len(piece) + 1)
                items[0], items[1::2], items[-1] = "[" + indent, piece, indent[:-2] + "]"
                stack.append(iter(items))
                break
            else:
                append("[]")
        else:
            stack.pop()
    return "".join(chunks)


def _array(items: list[str], k: str) -> str:
    """The array of the item texts ``items``, its brackets at line indent ``k``."""
    i = k + "  "
    return f"[{i}{f',{i}'.join(items)}{k}]" if items else "[]"


def _text(quote, value) -> str:
    return "null" if value is None else quote(value)


def _ref(kind: str, name) -> str:
    return f'"{dotted_id(kind, name)}"' if name else "null"


def _area_id(area) -> str:
    return dotted_id("area", area.value)


def _grades(grades, k: str) -> str:
    i, j = k + "  ", k + "    "
    return _array([f'{{{j}"competency": "{dotted_id("competency", g.competency)}",'
                   f'{j}"level": {g.level:d}{i}}}' for g in grades], k)


def _diagnostic(quote, d) -> str:
    """The record of ``d``, with the keys of ``Diagnostic.to_record``."""
    k, hint, span = "\n      ", d.hint, d.span
    return (f'{{{k}"rule": {quote(d.rule)},{k}"severity": {quote(d.severity.value)},'
            f'{k}"path": {quote(d.path)},{k}"message": {quote(d.message)}'
            + ("" if hint is None else f',{k}"hint": {quote(hint)}')
            + ("" if span is None else f',{k}"file": {quote(span.file)},'
               f'{k}"line": {span.start_line:d},{k}"col": {span.start_col:d}') + "\n    }")


def _work_product_ref(practice: Practice, own: str):
    """Map a work-product name used by the practice's activities to its id.

    ``own`` is the practice's id. Practice outputs shadow kernel-level work
    products of the same name.
    """
    local = {wp.name for wp in practice.outputs}

    def ref(name: str) -> str:
        return dotted_id("workproduct", name, own if name in local else None)

    return ref


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
