"""Seeded generator of resolvable ``.ess`` inputs and the records that check them.

Everything here is plain Python: esskit is never imported, so the records
are an oracle that does not come from the code under test. A generated
input is resolvable, passes the well-formedness rules (V0xx) with no
diagnostic, and carries a known number of planted lint defects:

- L001: a practice output that no activity produces;
- L002: one work-product name declared by two practices with different
  categories (two diagnostics per planted pair);
- L003: a role that no practice activity names;
- L004: an activity space with no goal and no activities (plus the one
  goal-less kernel space of the shared prelude).

Every other construct is generated so that it cannot trip a rule: every
non-planted space holds at least one activity, every multiply-fed output
names distinct parts, and each practice declares the area its competency
requirements favour.
"""

from __future__ import annotations

import math
import random
import re

KINDS = ("area", "alpha", "state", "competency", "space", "workproduct",
         "activity", "practice", "role", "method", "phase")

AREA_COLORS = {"Customer": "green", "Solution": "yellow", "Endeavor": "blue"}

# The seven competencies the phase mapper needs, plus two extensions.
COMPETENCIES = (
    ("Stakeholder Representation", "Customer"),
    ("Analysis", "Solution"),
    ("Development", "Solution"),
    ("Testing", "Solution"),
    ("Leadership", "Endeavor"),
    ("Management", "Endeavor"),
    ("Governance", "Endeavor"),
    ("Facilitation", "Customer"),
    ("Modelling", "Solution"),
)
_COMPETENCY_AREA = dict(COMPETENCIES)

TAGS = ("acquires_information", "understands_stakeholders",
        "processes_requirements", "endorses_requirements", "builds",
        "verifies", "leads", "coordinates", "governs")

PHASE_IDS = ("P", "A", "B", "C", "D", "E", "F", "G", "H", "RM")

CATEGORIES = ("catalog", "matrix", "diagram", "other")

_VERBS = ("Assess", "Define", "Review", "Agree", "Model", "Publish", "Confirm",
          "Estimate", "Prioritise", "Validate", "Plan", "Trace", "Baseline",
          "Identify", "Refine", "Approve")
_NOUNS = ("scope", "stakeholder map", "capability", "roadmap", "principle",
          "risk register", "value stream", "interface", "constraint",
          "baseline", "target state", "gap", "work package", "contract",
          "requirement", "viewpoint", "building block", "migration plan")
_TITLES = ("Architect", "Analyst", "Sponsor", "Steward", "Lead", "Owner",
           "Coordinator", "Reviewer")

_SLUG_RE = re.compile(r"[^a-z0-9]+")


def slug(name: str) -> str:
    """Identifier fragment of a display name, as the .ess id scheme defines it."""
    return _SLUG_RE.sub("_", name.lower()).strip("_")


def _string(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def _ident(name: str) -> str:
    return name.replace(" ", "_")


def _phrase(rng: random.Random) -> str:
    text = f"{rng.choice(_VERBS)} the {rng.choice(_NOUNS)} for the {rng.choice(_NOUNS)}"
    if rng.random() < 0.1:
        text += f' and record the "{rng.choice(_NOUNS)}" decision'
    return text


def _prelude() -> tuple[str, dict, int]:
    """The kernel every project shares: text, element counts, L004 count."""
    alphas = (
        ("Opportunity", "Customer", ("Identified", "Solution_Needed",
                                     "Value_Established", "Viable",
                                     "Addressed", "Benefit_Accrued")),
        ("Stakeholders", "Customer", ("Recognized", "Represented", "Involved",
                                      "In_Agreement", "Satisfied")),
        ("Requirements", "Solution", ("Conceived", "Bounded", "Coherent",
                                      "Acceptable", "Addressed", "Fulfilled")),
        ("Software_System", "Solution", ("Architecture_Selected",
                                         "Demonstrable", "Usable", "Ready",
                                         "Operational", "Retired")),
        ("Team", "Endeavor", ("Seeded", "Formed", "Collaborating",
                              "Performing", "Adjourned")),
        ("Work", "Endeavor", ("Initiated", "Prepared", "Started",
                              "Under_Control", "Concluded", "Closed")),
        ("Way_of_Working", "Endeavor", ("Principles_Established",
                                        "Foundation_Established", "In_Use",
                                        "In_Place", "Working_Well")),
    )
    spaces = (
        ("Explore Possibilities", "Customer", None, "Find the opportunity"),
        ("Understand Needs", "Customer", "Explore Possibilities",
         "Learn what the stakeholders want"),
        ("Shape the System", "Solution", None, "Decide how the system looks"),
        ("Implement the System", "Solution", "Shape the System",
         "Build a working system"),
        ("Coordinate Activity", "Endeavor", None, "Keep the work on track"),
        ("Support the Team", "Endeavor", "Coordinate Activity", None),
    )
    work_products = (
        ("Architecture Repository", "other", "Everything the architecture team keeps."),
        ("Stakeholder Register", "catalog", None),
        ("Risk Matrix", "matrix", "Likelihood against impact."),
    )
    lines = ['kernel "Essence" {']
    lines += [f"  area {area} color {color}" for area, color in AREA_COLORS.items()]
    states = 0
    for name, area, ladder in alphas:
        lines.append(f"  alpha {name} area {area} {{")
        for state in ladder:
            lines.append(f"    state {state} {{")
            lines.append(f'      check "{state.replace("_", " ")} is agreed"')
            lines.append(f'      check "{state.replace("_", " ")} is evidenced"')
            lines.append("    }")
            states += 1
        lines.append("  }")
    for name, area in COMPETENCIES:
        lines.append(f"  competency {_ident(name)} area {area} levels 5")
    for name, area, parent, goal in spaces:
        line = f"  space {_string(name)} area {area}"
        if parent:
            line += f" in {_string(parent)}"
        if goal:
            line += f" goal {_string(goal)}"
        lines.append(line)
    for name, category, description in work_products:
        line = f"  workproduct {_string(name)} category {category}"
        if description:
            line += f" description {_string(description)}"
        lines.append(line)
    lines.append("}")
    counts = dict.fromkeys(KINDS, 0)
    counts.update(area=3, alpha=len(alphas), state=states,
                  competency=len(COMPETENCIES), space=len(spaces),
                  workproduct=len(work_products))
    opaque = sum(1 for space in spaces if space[3] is None)
    return "\n".join(lines) + "\n", counts, opaque


PRELUDE, _PRELUDE_COUNTS, _PRELUDE_OPAQUE = _prelude()
KERNEL_WORK_PRODUCTS = ("Architecture Repository", "Stakeholder Register",
                        "Risk Matrix")


# Practice space trees nest up to the validator's default depth; a few
# practices go to that depth on every branch.
MAX_DEPTH = 3
DEEP_SHARE = 0.05


class _Builder:
    """Emits one model's text while recording what it emitted."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.counts = dict(_PRELUDE_COUNTS)
        self.lints = {"L001": 0, "L002": 0, "L003": 0, "L004": _PRELUDE_OPAQUE}
        self.dot = {"nodes": 0, "edges": 0}
        self.phases: dict[str, dict] = {}
        self.methods: list[dict] = []
        self.ids: list[tuple[str, str]] = []
        self.practices: list[str] = []
        self.role_names: list[str] = []
        self.assigned_roles: list[str] = []
        self.unused_roles: list[str] = []

    # Roles ---------------------------------------------------------------

    def roles(self, assigned: int, unassigned: int) -> str:
        rng = self.rng
        lines = []
        names = []
        for i in range(assigned + unassigned):
            name = f"{rng.choice(_TITLES)} {i + 1}"
            names.append(name)
            lines.append(f"role {_string(name)} {{")
            for competency, _ in rng.sample(COMPETENCIES, rng.randint(1, 3)):
                lines.append(f"  competency {_ident(competency)} @ {rng.randint(1, 5)}")
            lines.append("}")
        self.assigned_roles = names[:assigned]
        self.unused_roles = list(self.assigned_roles)
        self.counts["role"] += len(names)
        self.lints["L003"] += unassigned
        self.role_names = names
        return "\n".join(lines) + "\n" if lines else ""

    # Practices -----------------------------------------------------------

    def practice(self, index: int, shared: list[tuple[str, str]]) -> str:
        """One practice; ``shared`` lists (name, category) of planted L002 outputs."""
        rng = self.rng
        name = f"Practice {index} {rng.choice(_NOUNS).title()}"
        pid = "practice." + slug(name)
        self.practices.append(name)
        counter = [0]
        activities: list[dict] = []
        deep = rng.random() < DEEP_SHARE

        def activity() -> dict:
            counter[0] += 1
            requires = [(c, rng.randint(1, 5)) for c, _ in
                        rng.sample(COMPETENCIES, rng.choice((0, 1, 1, 2, 3)))]
            if self.unused_roles:
                role = self.unused_roles.pop(0)
            elif self.assigned_roles and rng.random() < 0.25:
                role = rng.choice(self.assigned_roles)
            else:
                role = None
            tags = rng.sample(TAGS, rng.choice((0, 0, 1, 2)))
            node = {"name": f"{rng.choice(_VERBS)} {rng.choice(_NOUNS)} {counter[0]}",
                    "requires": requires, "produces": [], "role": role,
                    "tags": tags}
            activities.append(node)
            return node

        def space(depth: int) -> dict:
            counter[0] += 1
            members = [("activity", activity()) for _ in range(rng.randint(1, 3))]
            if depth < MAX_DEPTH:
                chance = 0.9 if deep else 0.3 / depth
                if rng.random() < chance:
                    members += [("space", space(depth + 1))
                                for _ in range(rng.randint(1, 2))]
                if rng.random() < 0.08:
                    counter[0] += 1
                    opaque = {"name": f"Open point {counter[0]}", "goal": None,
                              "members": []}
                    members.append(("space", opaque))
                    self.lints["L004"] += 1
            rng.shuffle(members)
            goal = _phrase(rng) if rng.random() < 0.7 else None
            return {"name": f"Stage {counter[0]}", "goal": goal,
                    "members": members}

        tops = [space(1) for _ in range(rng.randint(1, 3))]

        outputs = []
        for j in range(rng.randint(1, 3)):
            description = _phrase(rng) if rng.random() < 0.5 else None
            outputs.append((f"Deliverable {index}-{j + 1}",
                            rng.choice(CATEGORIES), description))
        outputs += [(shared_name, category, None) for shared_name, category in shared]
        unfed = set()
        if rng.random() < 0.25:
            unfed.add(outputs[0][0])
            self.lints["L001"] += 1
        part = 0
        for output, _, _ in outputs:
            if output in unfed:
                continue
            for feeder in rng.sample(activities, min(len(activities), rng.randint(1, 3))):
                part += 1
                feeder["produces"].append(f"{output}: part {part}")
        for node in activities:
            if rng.random() < 0.08:
                node["produces"].append(rng.choice(KERNEL_WORK_PRODUCTS))

        # Declare the area the requirements favour, so V015 never fires.
        tally = dict.fromkeys(AREA_COLORS, 0)
        for node in activities:
            for competency, _ in node["requires"]:
                tally[_COMPETENCY_AREA[competency]] += 1
        area = max(AREA_COLORS, key=lambda a: tally[a])

        lines = [f"practice {_string(name)} area {area} {{"]
        for _ in range(rng.randint(1, 2)):
            lines.append(f"  goal {_string(_phrase(rng))}")
        for _ in range(rng.randint(0, 2)):
            lines.append(f"  input {_string(rng.choice(_NOUNS).title())}")
        for output, category, description in outputs:
            line = f"  output {_string(output)} category {category}"
            if description:
                line += f" description {_string(description)}"
            lines.append(line)
            self.ids.append((f"{pid}/workproduct.{slug(output)}", output))

        def emit(node: dict, depth: int, owner: str) -> None:
            sid = f"{owner}/space.{slug(node['name'])}"
            pad = "  " * depth
            head = f"{pad}space {_string(node['name'])}"
            if node["goal"]:
                head += f" goal {_string(node['goal'])}"
            lines.append(head + " {")
            self.counts["space"] += 1
            self.dot["nodes"] += 1
            self.dot["edges"] += 1
            self.ids.append((sid, node["name"]))
            for kind, member in node["members"]:
                if kind == "space":
                    emit(member, depth + 1, sid)
                    continue
                parts = [f"{pad}  activity {_string(member['name'])}"]
                parts += [f"requires {_ident(c)} @ {level}" for c, level in member["requires"]]
                parts += [f"produces {_string(p)}" for p in member["produces"]]
                if member["role"]:
                    parts.append(f"role {_string(member['role'])}")
                parts += [f"tag {tag}" for tag in member["tags"]]
                lines.append(" ".join(parts))
                self.counts["activity"] += 1
                self.dot["nodes"] += 1
                self.dot["edges"] += 1 + len(member["produces"])
                self.ids.append((f"{sid}/activity.{slug(member['name'])}", member["name"]))
            lines.append(pad + "}")

        for top in tops:
            emit(top, 1, pid)
        lines.append("}")
        self.counts["practice"] += 1
        self.counts["workproduct"] += len(outputs)
        self.dot["nodes"] += 1 + len(outputs)
        self.ids.append((pid, name))
        return "\n".join(lines) + "\n"

    # Phases --------------------------------------------------------------

    def phase(self, phase_id: str) -> str:
        rng = self.rng
        outputs = [(f"Phase {phase_id} Output {j + 1}", rng.choice(CATEGORIES))
                   for j in range(rng.randint(1, 4))]
        mapped = {"top_spaces": 0, "nested_spaces": 0, "activities": 0}
        part = [0]
        counter = [0]

        def spec(depth: int, pad: str) -> list[str]:
            counter[0] += 1
            name = f"{rng.choice(_VERBS)} {rng.choice(_NOUNS)} {counter[0]}"
            head = f"{pad}activity {_string(name)}"
            # Decomposition depth: a step is space depth 1, so a decomposed
            # spec lands at depth + 1; the mapper allows depth 3.
            if depth < 3 and rng.random() < 0.2:
                mapped["nested_spaces"] += 1
                body = [head + " {"]
                for _ in range(rng.randint(1, 3)):
                    body += spec(depth + 1, pad + "  ")
                return body + [pad + "}"]
            mapped["activities"] += 1
            head += "".join(f" tag {t}" for t in rng.sample(TAGS, rng.randint(1, 2)))
            if rng.random() < 0.4:
                part[0] += 1
                head += f" feeds {_string(f'{rng.choice(outputs)[0]}: part {part[0]}')}"
            if rng.random() < 0.3:
                head += f" role {_string(rng.choice(self.role_names))}"
            return [head]

        lines = [f"togaf_phase {phase_id} {_string(f'Generated phase {phase_id}')} {{",
                 f"  objective {_string(_phrase(rng))}"]
        lines += [f"  output {_string(name)} category {category}"
                  for name, category in outputs]
        for k in range(rng.randint(1, 5)):
            mapped["top_spaces"] += 1
            head = f"  step {_string(f'Step {k + 1} {rng.choice(_NOUNS)}')}"
            if rng.random() < 0.2:
                lines.append(head)
                continue
            if rng.random() < 0.7:
                head += f" goal {_string(_phrase(rng))}"
            lines.append(head + " {")
            for _ in range(rng.randint(1, 4)):
                lines += spec(1, "    ")
            lines.append("  }")
        lines.append("}")
        self.counts["phase"] += 1
        self.counts["workproduct"] += len(outputs)
        self.phases[phase_id] = mapped
        return "\n".join(lines) + "\n"

    # Methods -------------------------------------------------------------

    def method(self, index: int) -> str:
        rng = self.rng
        pool = rng.sample(self.practices, min(len(self.practices), 15))
        preamble = pool.pop() if len(pool) > 1 and rng.random() < 0.5 else None
        cycle_len = rng.randint(1, min(12, len(pool)))
        cycle, rest = pool[:cycle_len], pool[cycle_len:]
        concurrent = rest[:rng.randint(0, min(2, len(rest)))]
        name = f"method {index}"
        lines = [f"method {_string(name)} {{"]
        if preamble:
            lines.append(f"  preamble {_string(preamble)}")
        lines += [f"  cycle {_string(p)}" for p in cycle]
        lines += [f"  concurrent {_string(p)}" for p in concurrent]
        lines.append("}")
        self.counts["method"] += 1
        self.methods.append({
            "name": name,
            "preamble": "practice." + slug(preamble) if preamble else None,
            "cycle": ["practice." + slug(p) for p in cycle],
        })
        return "\n".join(lines) + "\n"

    def expect(self) -> dict:
        return {"counts": self.counts, "lints": self.lints, "dot": self.dot,
                "phases": self.phases, "methods": self.methods, "ids": self.ids}


def _practices(builder: _Builder, budget: int, first: int,
               conflicts: int) -> list[str]:
    """Practice texts adding up to about ``budget`` bytes, with planted L002 pairs."""
    rng = builder.rng
    chunks: list[str] = []
    pending = []
    for g in range(conflicts):
        first_category, second_category = rng.sample(CATEGORIES, 2)
        pending += [(f"Shared Register {g + 1}", first_category),
                    (f"Shared Register {g + 1}", second_category)]
        builder.lints["L002"] += 2
    size = 0
    index = first
    while size < budget or pending or builder.unused_roles or index == first:
        shared = [pending.pop(0)] if pending else []
        text = builder.practice(index, shared)
        chunks.append(text)
        size += len(text)
        index += 1
    return chunks


def project(seed: int, target_bytes: int) -> tuple[dict[str, str], dict]:
    """A multi-file project of about ``target_bytes`` bytes and its record."""
    rng = random.Random(seed)
    builder = _Builder(rng)
    files = {"kernel.ess": PRELUDE}
    files["roles.ess"] = builder.roles(rng.randint(1, 4), rng.randint(0, 2))
    budget = max(target_bytes - len(PRELUDE) - len(files["roles.ess"]), 500)
    conflicts = rng.randint(0, 2)
    practices = _practices(builder, int(budget * 0.85), 1, conflicts)
    # Split the practices into files of about 16 KB, as a team would.
    part, current = 1, []
    for text in practices:
        current.append(text)
        if sum(map(len, current)) >= 16_000:
            files[f"practices-{part}.ess"] = "\n".join(current)
            part, current = part + 1, []
    if current:
        files[f"practices-{part}.ess"] = "\n".join(current)
    phase_ids = rng.sample(PHASE_IDS, rng.randint(1, 3))
    files["phases.ess"] = "\n".join(builder.phase(p) for p in phase_ids)
    files["methods.ess"] = builder.method(1) + "\n" + builder.method(2)
    return files, builder.expect()


def method_documents(seed: int, count: int) -> list[tuple[str, dict]]:
    """Stand-alone method documents: practice stubs plus one method each.

    Cycles hold 1 to 12 practices; half have a preamble; 0 to 2 practices
    are concurrent. The shape of method ``i`` is fixed by ``i`` so that every
    seed enacts the same mix of shapes; the seed picks names and text.
    """
    rng = random.Random(seed)
    out = []
    for i in range(count):
        cycle_len = 1 + i % 12
        preamble = (i // 12) % 2 == 1
        concurrent = (i // 24) % 3
        names = [f"Step practice {i}-{k}" for k in range(cycle_len + preamble + concurrent)]
        lines = [f"practice {_string(n)} area {rng.choice(tuple(AREA_COLORS))} {{\n"
                 f"  goal {_string(_phrase(rng))}\n}}" for n in names]
        cycle = names[:cycle_len]
        lines.append(f"method {_string(f'enactment {i}')} {{")
        if preamble:
            lines.append(f"  preamble {_string(names[cycle_len])}")
        lines += [f"  cycle {_string(n)}" for n in cycle]
        lines += [f"  concurrent {_string(n)}" for n in names[cycle_len + preamble:]]
        lines.append("}")
        record = {
            "preamble": "practice." + slug(names[cycle_len]) if preamble else None,
            "cycle": ["practice." + slug(n) for n in cycle],
        }
        out.append(("\n".join(lines) + "\n", record))
    return out


def stratified_log_uniform(rng: random.Random, count: int, low: float,
                           high: float) -> list[float]:
    """``count`` draws, one from each equal-probability stratum of a log-uniform,
    in stratum order.

    Stratifying keeps the total work of a set nearly equal across seeds,
    while each seed still draws different values.
    """
    span = math.log(high) - math.log(low)
    return [math.exp(math.log(low) + span * (i + rng.random()) / count)
            for i in range(count)]


def expected_visitation(record: dict, steps: int) -> list[str]:
    """Closed form: the preamble once, then the cycle repeated."""
    head = [record["preamble"]] if record["preamble"] else []
    cycle = record["cycle"]
    out = head[:steps]
    out += [cycle[i % len(cycle)] for i in range(steps - len(out))]
    return out


def expected_trace(record: dict, steps: int) -> list[tuple[int, str]]:
    """Completions after ``steps - 1`` moves, with iteration numbers."""
    offset = 1 if record["preamble"] else 0
    visited = expected_visitation(record, steps - 1)
    return [(0 if i < offset else (i - offset) // len(record["cycle"]), ident)
            for i, ident in enumerate(visited)]
