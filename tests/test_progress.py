from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esskit import progress
from esskit.model import (
    Activity,
    Alpha,
    AlphaState,
    Area,
    Method,
    Practice,
    Space,
)
from esskit.progress import (
    AssessmentError,
    EnactmentError,
    EnactmentState,
    active_practices,
    assess_alpha,
    next_phase,
    practice_progress,
    start_enactment,
    visitation,
)

THREE_BY_TWO = Alpha(name="Work", area=Area.ENDEAVOR, states=(
    AlphaState(name="Started", checklist=("s1a", "s1b")),
    AlphaState(name="Progressing", checklist=("s2a", "s2b")),
    AlphaState(name="Concluded", checklist=("s3a", "s3b")),
))

KEYS = THREE_BY_TWO.item_keys()  # ("1.1", "1.2", "2.1", "2.2", "3.1", "3.2")


def oracle_achieved(alpha: Alpha, answers: dict[str, bool]) -> str | None:
    """Independent prefix-rule oracle: scan prefixes from longest to shortest."""
    for length in range(len(alpha.states), 0, -1):
        keys = [f"{si}.{ci}"
                for si in range(1, length + 1)
                for ci in range(1, len(alpha.states[si - 1].checklist) + 1)]
        if all(answers.get(key, False) for key in keys):
            return alpha.states[length - 1].name
    return None


def _state_index(alpha: Alpha, name: str | None) -> int:
    if name is None:
        return 0
    return 1 + [s.name for s in alpha.states].index(name)


def test_all_true_reaches_last_state():
    answers = {key: True for key in KEYS}
    assert assess_alpha(THREE_BY_TWO, answers) == "Concluded"


def test_all_false_is_unachieved():
    assert assess_alpha(THREE_BY_TWO, {}) is None
    assert assess_alpha(THREE_BY_TWO, {key: False for key in KEYS}) is None


def test_gap_stops_at_last_complete_prefix():
    answers = {"1.1": True, "1.2": True, "2.1": True, "2.2": False,
               "3.1": True, "3.2": True}
    assert assess_alpha(THREE_BY_TWO, answers) == "Started"


def test_unknown_key_is_rejected_by_name():
    with pytest.raises(AssessmentError, match="9.9"):
        assess_alpha(THREE_BY_TWO, {"9.9": True})


def test_missing_keys_default_false():
    assert assess_alpha(THREE_BY_TWO, {"1.1": True}) is None
    assert assess_alpha(THREE_BY_TWO, {"1.1": True, "1.2": True}) == "Started"


def test_exhaustive_vectors_match_oracle():
    for bits in product([False, True], repeat=len(KEYS)):
        answers = dict(zip(KEYS, bits))
        assert assess_alpha(THREE_BY_TWO, answers) == \
               oracle_achieved(THREE_BY_TWO, answers), answers


def test_monotone_under_single_bit_raises():
    for bits in product([False, True], repeat=len(KEYS)):
        answers = dict(zip(KEYS, bits))
        before = _state_index(THREE_BY_TWO, assess_alpha(THREE_BY_TWO, answers))
        for key in KEYS:
            raised = dict(answers)
            raised[key] = True
            after = _state_index(THREE_BY_TWO,
                                 assess_alpha(THREE_BY_TWO, raised))
            assert after >= before, (answers, key)


# Enactment -------------------------------------------------------------------

ADM = Method(name="adm", preamble="Preliminary",
             cycle=tuple(f"Phase {x}" for x in "ABCDEFGH"),
             concurrent=("Requirements Management",))


def test_start_at_preamble():
    state = start_enactment(ADM)
    assert state.step == 0
    assert state.current == "practice.preliminary"
    assert state.iteration == 0 and state.trace == ()


def test_preamble_to_first_cycle_practice_keeps_iteration():
    state = next_phase(start_enactment(ADM))
    assert state.current == "practice.phase_a"
    assert state.iteration == 0
    assert state.trace == ((0, "practice.preliminary"),)


def test_wrap_from_last_increments_iteration():
    state = start_enactment(ADM)
    for _ in range(9):
        state = next_phase(state)
    assert state.current == "practice.phase_a"
    assert state.iteration == 1
    assert state.trace[-1] == (0, "practice.phase_h")


def test_twenty_step_visitation():
    labels = {f"practice.phase_{x.lower()}": x for x in "ABCDEFGH"}
    labels["practice.preliminary"] = "P"
    visited = [labels[p] for p in visitation(ADM, 20)]
    assert visited == ["P", "A", "B", "C", "D", "E", "F", "G", "H",
                       "A", "B", "C", "D", "E", "F", "G", "H",
                       "A", "B", "C"]


def test_cycle_soundness_returns_to_start():
    method = Method(name="m", cycle=("one", "two", "three"))
    state = start_enactment(method)
    assert state.current == "practice.one"
    for _ in range(3):
        state = next_phase(state)
    assert state.current == "practice.one"
    assert state.iteration == 1


def test_trace_is_append_only():
    state = start_enactment(ADM)
    seen: list[tuple[int, str]] = []
    for _ in range(12):
        state = next_phase(state)
        assert list(state.trace[:len(seen)]) == seen
        seen = list(state.trace)
    assert all("requirements_management" not in practice_id
               for _, practice_id in state.trace)


def test_active_practices_always_include_concurrent():
    state = start_enactment(ADM)
    assert active_practices(state) == {"practice.preliminary",
                                       "practice.requirements_management"}
    state = next_phase(state)
    assert active_practices(state) == {"practice.phase_a",
                                       "practice.requirements_management"}


def test_active_practices_without_concurrent():
    method = Method(name="m", cycle=("solo",))
    state = start_enactment(method)
    assert active_practices(state) == {"practice.solo"}


def test_method_shape_errors():
    with pytest.raises(EnactmentError, match="empty cycle"):
        start_enactment(Method(name="m", cycle=()))
    with pytest.raises(EnactmentError, match="preamble"):
        start_enactment(Method(name="m", cycle=("a",), preamble="a"))
    with pytest.raises(EnactmentError, match="concurrent"):
        start_enactment(Method(name="m", cycle=("a", "b"), concurrent=("b",)))


@pytest.mark.parametrize("state, message", [
    (EnactmentState(method=Method(name="m", cycle=())), "method 'm' has an empty cycle"),
    (EnactmentState(method=Method(name="m", cycle=(), preamble="p"), step=1),
     "method 'm' has an empty cycle"),
    (EnactmentState(method=Method(name="m", cycle=("a",)), step=-1),
     "enactment step -1 is negative"),
    (EnactmentState(method=Method(name="m", cycle=("a",), preamble="p"), step=-2),
     "enactment step -2 is negative"),
], ids=["empty-cycle", "empty-cycle-after-preamble", "negative-step",
        "negative-step-with-preamble"])
def test_directly_built_state_that_cannot_enact_raises(state, message):
    for read in (lambda: state.current, lambda: state.iteration, lambda: state.trace,
                 lambda: active_practices(state)):
        with pytest.raises(EnactmentError, match=message):
            read()


def test_repeated_cycle_entries_are_visited_in_order():
    method = Method(name="m", cycle=("A", "B", "A", "C"))
    visited = [p.removeprefix("practice.") for p in visitation(method, 8)]
    assert visited == ["a", "b", "a", "c", "a", "b", "a", "c"]
    state = start_enactment(method)
    for _ in range(4):
        state = next_phase(state)
    assert (state.current, state.iteration) == ("practice.a", 1)
    assert [p for _, p in state.trace] == [f"practice.{x}" for x in "abac"]


def reference_positions(method: Method, steps: int) -> list[tuple[int, str]]:
    """(iteration, practice id) of each of the first ``steps`` positions,
    stepped one at a time with ``divmod``."""
    offset = 0 if method.preamble is None else 1
    cycle = [f"practice.{name.lower()}" for name in method.cycle]
    positions = []
    for step in range(steps):
        if step < offset:
            positions.append((0, f"practice.{method.preamble.lower()}"))
        else:
            iteration, index = divmod(step - offset, len(cycle))
            positions.append((iteration, cycle[index]))
    return positions


@st.composite
def _enactments(draw):
    """A valid method with repeated cycle names, and a step up to 3 passes past it."""
    cycle = tuple(draw(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=12)))
    preamble = draw(st.none() | st.just("P"))
    concurrent = tuple(draw(st.lists(st.sampled_from(("R", "S")), max_size=2, unique=True)))
    method = Method(name="m", cycle=cycle, preamble=preamble, concurrent=concurrent)
    return method, draw(st.integers(0, 3 * len(cycle) + 5))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_enactments())
def test_closed_form_matches_stepped_reference(enactment):
    method, step = enactment
    want = reference_positions(method, step + 1)
    state = EnactmentState(method=method, step=step)
    assert visitation(method, step) == [p for _, p in want[:step]]
    assert state.trace == tuple(want[:step])
    assert (state.iteration, state.current) == want[step]
    assert active_practices(state) == {want[step][1], *(f"practice.{name.lower()}"
                                                         for name in method.concurrent)}
    for earlier in range(step):
        assert state.trace[:earlier] == EnactmentState(method=method, step=earlier).trace
    following = next_phase(state)
    assert following == EnactmentState(method=method, step=step + 1)
    assert hash(following) == hash(EnactmentState(method=method, step=step + 1))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_enactments(), st.integers(-5, -1))
def test_every_accessor_refuses_an_unenactable_state(enactment, negative):
    method, step = enactment
    empty = Method(name="m", cycle=(), preamble=method.preamble,
                   concurrent=method.concurrent)
    for state, message in [(EnactmentState(method=empty, step=step), "empty cycle"),
                           (EnactmentState(method=method, step=negative), "is negative")]:
        for read in (lambda: state.current, lambda: state.iteration,
                     lambda: state.trace, lambda: active_practices(state)):
            with pytest.raises(EnactmentError, match=message):
                read()
    for steps in (0, step + 1):
        with pytest.raises(EnactmentError, match="empty cycle"):
            visitation(empty, steps)


def test_corpus_method_enacts(corpus):
    (method,) = corpus.methods()
    visited = visitation(method, 10)
    assert visited[0] == "practice.preliminary"
    assert visited[1:] == [f"practice.phase_{x}" for x in "abcdefgha"]


# Practice progress -----------------------------------------------------------

FOUR_ACTIVITIES = Practice(
    name="P", area=Area.CUSTOMER, goals=("g",),
    members=(Space(name="S", members=(
        Activity(name="a1"), Activity(name="a2"),
        Space(name="Inner", members=(Activity(name="a3"),)),
        Activity(name="a4"),
    )),))

A_IDS = (
    "practice.p/space.s/activity.a1",
    "practice.p/space.s/activity.a2",
    "practice.p/space.s/space.inner/activity.a3",
    "practice.p/space.s/activity.a4",
)


def test_progress_ratios():
    assert practice_progress(FOUR_ACTIVITIES, set()) == 0.0
    assert practice_progress(FOUR_ACTIVITIES, set(A_IDS)) == 1.0
    assert practice_progress(FOUR_ACTIVITIES, set(A_IDS[:3])) == 0.75
    # Two activities that share an id are one id to be done.
    shared = Practice(name="P", area=Area.CUSTOMER, goals=("g",), members=(
        Space(name="S", members=(Activity(name="a"), Activity(name="a"))),))
    assert practice_progress(shared, {"practice.p/space.s/activity.a"}) == 1.0


def test_progress_vacuous_completion():
    empty = Practice(name="Empty", area=Area.CUSTOMER, goals=("g",))
    assert practice_progress(empty, set()) == 1.0


def test_progress_rejects_foreign_ids():
    with pytest.raises(ValueError, match="activity.ghost"):
        practice_progress(FOUR_ACTIVITIES, {"practice.p/space.s/activity.ghost"})


def test_progress_monotone_under_inclusion():
    previous = 0.0
    done: set[str] = set()
    for activity_id in A_IDS:
        done.add(activity_id)
        ratio = practice_progress(FOUR_ACTIVITIES, done)
        assert ratio >= previous
        previous = ratio
