"""Canonical text rendering and machine-readable exports.

``render_canonical`` is the inverse of :func:`esskit.dsl.parse` up to source
spans: fixed two-space indentation, declaration order preserved, one block
member per line, every optional attribute written explicitly. Parsing the
rendered text reproduces a structurally equal document, and rendering is
idempotent.
"""

from __future__ import annotations

import re

from .model import (
    Activity,
    ActivitySpec,
    Alpha,
    AreaDecl,
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
    dotted_id,
    element_id,
    walk_element,
    walk_specs,
)

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _string(value: str) -> str:
    if "\\" in value:
        raise ValueError(f"text {value!r} contains a backslash, which the "
                         "string syntax cannot represent")
    if "\n" in value or "\r" in value:
        raise ValueError(f"text {value!r} contains a line break")
    return '"' + value.replace('"', '\\"') + '"'


def _ident(name: str) -> str:
    encoded = name.replace(" ", "_")
    if not _IDENT_RE.match(encoded):
        raise ValueError(f"name {name!r} is not representable as an identifier")
    return encoded


def _contribution(contribution: Contribution) -> str:
    return _string(contribution.rendered_name())


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    def text(self) -> str:
        if not self.lines:
            return ""
        return "\n".join(self.lines) + "\n"


def render_canonical(document: ModelDocument) -> str:
    """Deterministic canonical DSL text for ``document``.

    An empty document renders as empty text. Raises ValueError for names the
    surface syntax cannot carry (backslashes, line breaks, or names that do
    not survive the identifier encoding).
    """
    w = _Writer()
    for declaration in document.declarations:
        _render_declaration(w, declaration)
    return w.text()


def _render_declaration(w: _Writer, declaration) -> None:
    if isinstance(declaration, Kernel):
        _render_kernel(w, declaration)
    elif isinstance(declaration, Practice):
        _render_practice(w, declaration)
    elif isinstance(declaration, Method):
        _render_method(w, declaration)
    elif isinstance(declaration, Role):
        _render_role(w, declaration)
    elif isinstance(declaration, TogafPhase):
        _render_phase(w, declaration)
    else:
        raise TypeError(f"cannot render {type(declaration).__name__}")


def _render_kernel(w: _Writer, kernel: Kernel) -> None:
    w.line(0, f"kernel {_string(kernel.name)} {{")
    for member in kernel.members:
        if isinstance(member, AreaDecl):
            w.line(1, f"area {_ident(member.name)} color {member.area.color}")
        elif isinstance(member, Alpha):
            _render_alpha(w, member)
        elif isinstance(member, Competency):
            w.line(1, f"competency {_ident(member.name)} area "
                      f"{_ident(member.area.value)} levels {member.max_level}")
        elif isinstance(member, Space):
            _render_space_decl(w, member)
        elif isinstance(member, WorkProduct):
            w.line(1, "workproduct " + _work_product_attrs(member))
        else:
            raise TypeError(f"cannot render kernel member {type(member).__name__}")
    w.line(0, "}")


def _render_alpha(w: _Writer, alpha: Alpha) -> None:
    w.line(1, f"alpha {_ident(alpha.name)} area {_ident(alpha.area.value)} {{")
    for state in alpha.states:
        w.line(2, f"state {_ident(state.name)} {{")
        for item in state.checklist:
            w.line(3, f"check {_string(item)}")
        w.line(2, "}")
    w.line(1, "}")


def _render_space_decl(w: _Writer, space: Space) -> None:
    parts = [f"space {_string(space.name)} area {_ident(space.area.value)}"]
    if space.parent is not None:
        parts.append(f"in {_string(space.parent)}")
    if space.goal is not None:
        parts.append(f"goal {_string(space.goal)}")
    w.line(1, " ".join(parts))


def _work_product_attrs(wp: WorkProduct) -> str:
    text = f"{_string(wp.name)} category {wp.category.value}"
    if wp.description is not None:
        text += f" description {_string(wp.description)}"
    return text


def _render_role(w: _Writer, role: Role) -> None:
    w.line(0, f"role {_string(role.name)} {{")
    for grade in role.competencies:
        w.line(1, f"competency {_ident(grade.competency)} @ {grade.level}")
    w.line(0, "}")


def _render_practice(w: _Writer, practice: Practice) -> None:
    w.line(0, f"practice {_string(practice.name)} area "
              f"{_ident(practice.area.value)} {{")
    for goal in practice.goals:
        w.line(1, f"goal {_string(goal)}")
    for item in practice.inputs:
        w.line(1, f"input {_string(item)}")
    for wp in practice.outputs:
        w.line(1, "output " + _work_product_attrs(wp))
    for member in practice.members:
        if isinstance(member, Space):
            _render_space_block(w, member, 1)
        else:
            _render_activity(w, member, 1)
    w.line(0, "}")


def _render_space_block(w: _Writer, space: Space, depth: int) -> None:
    head = f"space {_string(space.name)}"
    if space.goal is not None:
        head += f" goal {_string(space.goal)}"
    w.line(depth, head + " {")
    for member in space.members:
        if isinstance(member, Space):
            _render_space_block(w, member, depth + 1)
        else:
            _render_activity(w, member, depth + 1)
    w.line(depth, "}")


def _render_activity(w: _Writer, activity: Activity, depth: int) -> None:
    parts = [f"activity {_string(activity.name)}"]
    for grade in activity.requires:
        parts.append(f"requires {_ident(grade.competency)} @ {grade.level}")
    for contribution in activity.produces:
        parts.append(f"produces {_contribution(contribution)}")
    if activity.role is not None:
        parts.append(f"role {_string(activity.role)}")
    for tag in activity.tags:
        parts.append(f"tag {tag}")
    w.line(depth, " ".join(parts))


def _render_method(w: _Writer, method: Method) -> None:
    w.line(0, f"method {_string(method.name)} {{")
    if method.preamble is not None:
        w.line(1, f"preamble {_string(method.preamble)}")
    for name in method.cycle:
        w.line(1, f"cycle {_string(name)}")
    for name in method.concurrent:
        w.line(1, f"concurrent {_string(name)}")
    w.line(0, "}")


def _render_phase(w: _Writer, phase: TogafPhase) -> None:
    w.line(0, f"togaf_phase {phase.phase} {_string(phase.name)} {{")
    w.line(1, f"objective {_string(phase.objective)}")
    for wp in phase.outputs:
        w.line(1, "output " + _work_product_attrs(wp))
    for step in phase.steps:
        _render_step(w, step)
    w.line(0, "}")


def _render_step(w: _Writer, step: StepSpec) -> None:
    head = f"step {_string(step.name)}"
    if step.goal is not None:
        head += f" goal {_string(step.goal)}"
    if not step.activities:
        w.line(1, head)
        return
    w.line(1, head + " {")
    for spec in step.activities:
        _render_spec_activity(w, spec, 2)
    w.line(1, "}")


def _render_spec_activity(w: _Writer, spec: ActivitySpec, depth: int) -> None:
    parts = [f"activity {_string(spec.name)}"]
    for tag in spec.tags:
        parts.append(f"tag {tag}")
    for contribution in spec.feeds:
        parts.append(f"feeds {_contribution(contribution)}")
    if spec.role is not None:
        parts.append(f"role {_string(spec.role)}")
    if not spec.sub_activities:
        w.line(depth, " ".join(parts))
        return
    w.line(depth, " ".join(parts) + " {")
    for sub in spec.sub_activities:
        _render_spec_activity(w, sub, depth + 1)
    w.line(depth, "}")


# Machine-readable export ---------------------------------------------------


def export_json(document: ModelDocument, *, diagnostics=(), assessments=()) -> str:
    """Stable JSON tree for a resolved document.

    Top-level keys are fixed; arrays follow declaration order; every element
    record carries ``id``, ``name``, and ``kind``. References are emitted as
    element ids, so the document must resolve; dangling references raise
    :class:`esskit.diagnostics.ResolveError` listing the offending ids.
    Diagnostics and assessments passed in are serialized under their own keys.
    """
    import json

    from .validator import resolve

    resolve(document)
    tree = {
        "areas": [], "alphas": [], "competencies": [], "spaces": [],
        "work_products": [], "roles": [], "practices": [], "methods": [],
        "phases": [],
        "diagnostics": [d.to_record() for d in diagnostics],
        "assessments": [a.to_record() for a in assessments],
    }
    for kernel in document.kernels():
        for member in kernel.members:
            if isinstance(member, AreaDecl):
                tree["areas"].append({
                    "id": element_id(member), "name": member.name, "kind": "area",
                    "color": member.area.color,
                })
            elif isinstance(member, Alpha):
                tree["alphas"].append(_alpha_record(member))
            elif isinstance(member, Competency):
                tree["competencies"].append({
                    "id": element_id(member), "name": member.name,
                    "kind": "competency", "area": _area_id(member.area),
                    "max_level": member.max_level,
                    "builtin": member.kernel_builtin,
                })
            elif isinstance(member, Space):
                tree["spaces"].append({
                    "id": element_id(member), "name": member.name, "kind": "space",
                    "area": _area_id(member.area),
                    "parent": dotted_id("space", member.parent) if member.parent else None,
                    "goal": member.goal,
                })
            elif isinstance(member, WorkProduct):
                tree["work_products"].append(
                    _work_product_record(member, element_id(member)))
    for role in document.roles():
        tree["roles"].append({
            "id": element_id(role), "name": role.name, "kind": "role",
            "competencies": [_grade_record(g) for g in role.competencies],
        })
    for practice in document.practices():
        tree["practices"].append(_practice_record(practice))
    for method in document.methods():
        tree["methods"].append({
            "id": element_id(method), "name": method.name, "kind": "method",
            "preamble": dotted_id("practice", method.preamble) if method.preamble else None,
            "cycle": [dotted_id("practice", n) for n in method.cycle],
            "concurrent": [dotted_id("practice", n) for n in method.concurrent],
        })
    for phase in document.phases():
        tree["phases"].append(_phase_record(phase))
    return json.dumps(tree, indent=2, ensure_ascii=False) + "\n"


def _area_id(area) -> str:
    return dotted_id("area", area.value)


def _grade_record(grade) -> dict:
    return {"competency": dotted_id("competency", grade.competency),
            "level": grade.level}


def _alpha_record(alpha: Alpha) -> dict:
    own = element_id(alpha)
    return {
        "id": own, "name": alpha.name, "kind": "alpha",
        "area": _area_id(alpha.area),
        "states": [{
            "id": element_id(s, own),
            "name": s.name, "kind": "state",
            "checklist": [{"key": f"{si}.{ci}", "text": text}
                          for ci, text in enumerate(s.checklist, 1)],
        } for si, s in enumerate(alpha.states, 1)],
    }


def _work_product_record(wp: WorkProduct, ident: str) -> dict:
    return {
        "id": ident, "name": wp.name, "kind": "workproduct",
        "category": wp.category.value, "description": wp.description,
    }


def _work_product_ref(practice: Practice):
    """Map a work-product name used by the practice's activities to its id.

    Practice outputs shadow kernel-level work products of the same name.
    """
    own = element_id(practice)
    local = {wp.name for wp in practice.outputs}

    def ref(name: str) -> str:
        if name in local:
            return f"{own}/{dotted_id('workproduct', name)}"
        return dotted_id("workproduct", name)

    return ref


def _practice_record(practice: Practice) -> dict:
    own = element_id(practice)
    wp_ref = _work_product_ref(practice)
    records = {own: {
        "id": own, "name": practice.name, "kind": "practice",
        "area": _area_id(practice.area),
        "goals": list(practice.goals),
        "inputs": list(practice.inputs),
        "outputs": [], "spaces": [], "activities": [],
    }}
    for ident, element, parent_id, _ in walk_element(practice):
        if isinstance(element, WorkProduct):
            records[parent_id]["outputs"].append(_work_product_record(element, ident))
        elif isinstance(element, Space):
            records[ident] = {
                "id": ident, "name": element.name, "kind": "space",
                "area": _area_id(element.area or practice.area),
                "goal": element.goal, "spaces": [], "activities": [],
            }
            records[parent_id]["spaces"].append(records[ident])
        elif isinstance(element, Activity):
            records[parent_id]["activities"].append({
                "id": ident, "name": element.name, "kind": "activity",
                "requires": [_grade_record(g) for g in element.requires],
                "produces": [{
                    "work_product": wp_ref(c.work_product),
                    "part": c.part,
                    "rendered": c.rendered_name(),
                } for c in element.produces],
                "role": dotted_id("role", element.role) if element.role else None,
                "tags": list(element.tags),
            })
    return records[own]


def _phase_record(phase: TogafPhase) -> dict:
    own = element_id(phase)
    records = {own: {
        "id": own, "name": phase.name, "kind": "phase", "phase": phase.phase,
        "objective": phase.objective,
        "outputs": [_work_product_record(wp, element_id(wp, own))
                    for wp in phase.outputs],
        "steps": [],
    }}
    # Pre-order: a spec's parent is the latest record at the parent path,
    # even when sibling specs share a name.
    for path, spec, _, parent_path in walk_specs(phase):
        if isinstance(spec, StepSpec):
            records[path] = {"name": spec.name, "goal": spec.goal, "activities": []}
            records[parent_path]["steps"].append(records[path])
            continue
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
    return records[own]


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

    for practice in document.practices():
        wp_ref = _work_product_ref(practice)
        for ident, element, parent_id, _ in walk_element(practice):
            if isinstance(element, Practice):
                node(ident, element.name, "component")
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
