from __future__ import annotations

import random

import pytest

from esskit import dsl, togaf, validator
from esskit.model import (
    ACTIVITY_TAGS,
    Activity,
    ActivitySpec,
    Alpha,
    AlphaState,
    Area,
    AreaDecl,
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
    WorkProduct,
    WorkProductCategory,
)

KERNEL_PRELUDE = """
kernel "Essence" {
  area Customer color green
  area Solution color yellow
  area Endeavor color blue
  competency Stakeholder_Representation area Customer levels 5
  competency Analysis area Solution levels 5
  competency Development area Solution levels 5
  competency Testing area Solution levels 5
  competency Leadership area Endeavor levels 5
  competency Management area Endeavor levels 5
  competency Governance area Endeavor levels 5
}
"""

# The top-level keys of every export_json tree, in order.
EXPORT_TREE_KEYS = ["areas", "alphas", "competencies", "spaces", "work_products",
                    "roles", "practices", "methods", "phases", "diagnostics"]


@pytest.fixture(scope="session")
def corpus():
    return togaf.load_corpus()


@pytest.fixture(scope="session")
def corpus_model(corpus):
    return validator.resolve(corpus)


@pytest.fixture(scope="session")
def manifest():
    return togaf.load_manifest()


@pytest.fixture()
def kernel_model():
    return validator.resolve(dsl.parse(KERNEL_PRELUDE, "kernel-prelude"))


def parse_with_kernel(extra: str, file: str = "<fixture>") -> ModelDocument:
    return dsl.parse(KERNEL_PRELUDE + extra, file)


# Random-document generator for round-trip properties. Deterministic for a
# given seed; every generated name carries a unique suffix so ids never
# collide within one document.

_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "vision", "scope",
          "work", "plan", "team", "review", "draft", "board", "charter")
_DECOR = ("", "", "", ",", ".", "()", "'", '"', "-")


class _Names:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.n = 0

    def string(self) -> str:
        self.n += 1
        words = self.rng.sample(_WORDS, self.rng.randint(1, 3))
        decor = self.rng.choice(_DECOR)
        return f"{' '.join(words)}{decor} {self.n}"

    def ident(self) -> str:
        # Must survive the underscore encoding: letters, digits, spaces.
        self.n += 1
        words = self.rng.sample(_WORDS, self.rng.randint(1, 2))
        name = " ".join(w.capitalize() for w in words)
        return f"{name} {self.n}"


def _gen_contribution(rng: random.Random, names: _Names) -> Contribution:
    part = f"part {names.n}" if rng.random() < 0.5 else None
    return Contribution(work_product=names.string(), part=part)


def _gen_activity(rng: random.Random, names: _Names) -> Activity:
    requires = tuple(
        CompetencyGrade(competency=names.ident(), level=rng.randint(1, 5))
        for _ in range(rng.randint(0, 2)))
    produces = tuple(_gen_contribution(rng, names)
                     for _ in range(rng.randint(0, 2)))
    role = names.string() if rng.random() < 0.3 else None
    tags = tuple(rng.sample(ACTIVITY_TAGS, rng.randint(0, 2)))
    return Activity(name=names.string(), requires=requires, produces=produces,
                    role=role, tags=tags)


def _gen_space_tree(rng: random.Random, names: _Names, depth: int) -> Space:
    members: list = []
    for _ in range(rng.randint(0, 2)):
        if depth < 3 and rng.random() < 0.4:
            members.append(_gen_space_tree(rng, names, depth + 1))
        else:
            members.append(_gen_activity(rng, names))
    goal = names.string() if rng.random() < 0.6 else None
    return Space(name=names.string(), goal=goal, members=tuple(members))


def _gen_kernel(rng: random.Random, names: _Names) -> Kernel:
    members: list = []
    for area in rng.sample(list(Area), rng.randint(0, 3)):
        members.append(AreaDecl(area=area))
    for _ in range(rng.randint(0, 2)):
        states = tuple(
            AlphaState(name=names.ident(),
                       checklist=tuple(names.string()
                                       for _ in range(rng.randint(1, 3))))
            for _ in range(rng.randint(1, 3)))
        members.append(Alpha(name=names.ident(), area=rng.choice(list(Area)),
                             states=states))
    for _ in range(rng.randint(0, 3)):
        members.append(Competency(name=names.ident(),
                                  area=rng.choice(list(Area)),
                                  max_level=rng.randint(1, 5)))
    space_names: list[str] = []
    for _ in range(rng.randint(0, 3)):
        parent = rng.choice(space_names) if space_names and rng.random() < 0.5 else None
        goal = names.string() if rng.random() < 0.5 else None
        name = names.string()
        members.append(Space(name=name, area=rng.choice(list(Area)),
                             parent=parent, goal=goal))
        space_names.append(name)
    for _ in range(rng.randint(0, 2)):
        members.append(WorkProduct(
            name=names.string(),
            category=rng.choice(list(WorkProductCategory)),
            description=names.string() if rng.random() < 0.5 else None))
    return Kernel(name=names.string(), members=tuple(members))


def _gen_practice(rng: random.Random, names: _Names) -> Practice:
    goals = tuple(names.string() for _ in range(rng.randint(1, 3)))
    inputs = tuple(names.string() for _ in range(rng.randint(0, 2)))
    outputs = tuple(
        WorkProduct(name=names.string(),
                    category=rng.choice(list(WorkProductCategory)),
                    description=names.string() if rng.random() < 0.4 else None)
        for _ in range(rng.randint(0, 3)))
    members = tuple(_gen_space_tree(rng, names, 1)
                    for _ in range(rng.randint(0, 3)))
    return Practice(name=names.string(), area=rng.choice(list(Area)),
                    goals=goals, inputs=inputs, outputs=outputs,
                    members=members)


def _gen_role(rng: random.Random, names: _Names) -> Role:
    grades = tuple(
        CompetencyGrade(competency=names.ident(), level=rng.randint(1, 5))
        for _ in range(rng.randint(1, 3)))
    return Role(name=names.string(), competencies=grades)


def _gen_method(rng: random.Random, names: _Names) -> Method:
    cycle = tuple(names.string() for _ in range(rng.randint(1, 3)))
    preamble = names.string() if rng.random() < 0.5 else None
    concurrent = tuple(names.string() for _ in range(rng.randint(0, 2)))
    return Method(name=names.string(), cycle=cycle, preamble=preamble,
                  concurrent=concurrent)


def _gen_spec_activity(rng: random.Random, names: _Names,
                       outputs: tuple[str, ...], depth: int) -> ActivitySpec:
    if depth < 2 and rng.random() < 0.3:
        subs = tuple(_gen_spec_activity(rng, names, outputs, depth + 1)
                     for _ in range(rng.randint(1, 3)))
        return ActivitySpec(name=names.string(), sub_activities=subs)
    tags = tuple(rng.sample(ACTIVITY_TAGS, rng.randint(1, 3)))
    feeds = tuple(
        Contribution(work_product=rng.choice(outputs),
                     part=f"part {names.n}{i}" if rng.random() < 0.7 else None)
        for i in range(rng.randint(0, 2))) if outputs else ()
    role = names.string() if rng.random() < 0.2 else None
    return ActivitySpec(name=names.string(), tags=tags, feeds=feeds, role=role)


def _gen_phase(rng: random.Random, names: _Names, used: set[str]) -> TogafPhase:
    from esskit.model import PHASE_IDS

    pid = rng.choice([p for p in PHASE_IDS if p not in used])
    used.add(pid)
    outputs = tuple(
        WorkProduct(name=names.string(),
                    category=rng.choice(list(WorkProductCategory)),
                    description=names.string() if rng.random() < 0.3 else None)
        for _ in range(rng.randint(0, 3)))
    output_names = tuple(wp.name for wp in outputs)
    steps = tuple(
        StepSpec(name=names.string(),
                 goal=names.string() if rng.random() < 0.6 else None,
                 activities=tuple(_gen_spec_activity(rng, names, output_names, 1)
                                  for _ in range(rng.randint(0, 3))))
        for _ in range(rng.randint(0, 3)))
    return TogafPhase(phase=pid, name=names.string(),
                      objective=names.string(), steps=steps, outputs=outputs)


def generate_document(rng: random.Random) -> ModelDocument:
    """A random structurally valid document; ids are collision-free."""
    names = _Names(rng)
    declarations: list = []
    if rng.random() < 0.7:
        declarations.append(_gen_kernel(rng, names))
    for _ in range(rng.randint(0, 2)):
        declarations.append(_gen_role(rng, names))
    for _ in range(rng.randint(0, 2)):
        declarations.append(_gen_practice(rng, names))
    if rng.random() < 0.4:
        declarations.append(_gen_method(rng, names))
    used_phases: set[str] = set()
    for _ in range(rng.randint(0, 2)):
        declarations.append(_gen_phase(rng, names, used_phases))
    return ModelDocument(declarations)


def collision_document() -> ModelDocument:
    """Colliding ids, an activity directly in a practice and a kernel space
    with members: documents only code can build."""
    kernel = Kernel(name="K", members=(
        AreaDecl(area=Area.CUSTOMER),
        Alpha(name="A", area=Area.CUSTOMER, states=(
            AlphaState(name="Begun", checklist=("a", "b")),
            AlphaState(name="Done", checklist=("c",)))),
        Alpha(name="A", area=Area.SOLUTION, states=(
            AlphaState(name="Other", checklist=("d",)),)),
        Competency(name="Analysis", area=Area.SOLUTION, max_level=4),
        Space(name="Root", area=Area.CUSTOMER, members=(
            Activity(name="inside", produces=(Contribution("Plan"),)),
            Space(name="Sub", members=(Activity(name="deeper"),)))),
        Space(name="Leaf", area=Area.ENDEAVOR, parent="Root", goal="g"),
        WorkProduct(name="Plan", category=WorkProductCategory.DIAGRAM, description="d"),
    ))
    role = Role(name="Lead", competencies=(CompetencyGrade("Analysis", 3),))
    first = Practice(name="P", area=Area.CUSTOMER, goals=("g",), inputs=("i",),
                     outputs=(WorkProduct(name="Out"),), members=(
        Space(name="S", members=(Activity(
            name="x", requires=(CompetencyGrade("Analysis", 2),),
            produces=(Contribution("Out", "part"), Contribution("Plan")),
            role="Lead", tags=("t",)),)),
        Space(name="S", area=Area.SOLUTION, members=(
            Space(name="T", members=(Activity(name="y"),)),)),
        Activity(name="stray", produces=(Contribution("Out"),)),
    ))
    second = Practice(name="P", area=Area.ENDEAVOR, goals=("h",), members=(
        Space(name="S", members=(Activity(name="z", produces=(Contribution("Plan", "p"),)),)),))
    method = Method(name="M", cycle=("P",), preamble="P", concurrent=("P",))
    phases = [TogafPhase(phase="A", name=name, objective="o", outputs=(WorkProduct(name=name),),
                         steps=(StepSpec(name="S", activities=(ActivitySpec(
                             name="D", tags=("builds",), feeds=(Contribution(name, "x"),),
                             role="Lead"),)),))
              for name in ("Vision", "Again")]
    return ModelDocument([kernel, role, first, second, method, *phases])
