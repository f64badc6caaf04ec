"""Alpha-state assessment and cyclic method enactment.

Assessment follows a sequential-prefix rule: a state is achieved only when
its own checklist and every earlier state's checklist are fully answered
true, and the alpha's achieved state is the last state of that prefix.
Missing answers count as false.

Enactment walks a method: the preamble practice (when present) runs exactly
once, the cycle then repeats forever, and concurrent practices are active
alongside whatever is current but are never themselves current and never
complete. The trace records completions as (iteration, practice id) pairs
and only ever grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import Activity, Alpha, Method, Practice, dotted_id, element_id, walk_element


class AssessmentError(ValueError):
    """An answer references a checklist key the alpha does not have."""


class EnactmentError(ValueError):
    """The method cannot be enacted as declared."""


def assess_alpha(alpha: Alpha, answers: Mapping[str, bool]) -> str | None:
    """Achieved state name under the prefix rule, or None.

    Raises :class:`AssessmentError` naming the first unknown answer key.
    """
    valid = set(alpha.item_keys())
    for key in answers:
        if key not in valid:
            raise AssessmentError(
                f"alpha {alpha.name!r} has no checklist item {key!r}")
    achieved = None
    for si, state in enumerate(alpha.states, 1):
        keys = [f"{si}.{ci}" for ci in range(1, len(state.checklist) + 1)]
        if all(answers.get(key, False) for key in keys):
            achieved = state.name
        else:
            break
    return achieved


@dataclass(frozen=True)
class Assessment:
    """One alpha's recorded answers and the state they add up to."""

    alpha: str
    answers: tuple[tuple[str, bool], ...]
    achieved: str | None

    @classmethod
    def assess(cls, alpha: Alpha, answers: Mapping[str, bool]) -> "Assessment":
        achieved = assess_alpha(alpha, answers)
        return cls(alpha=element_id(alpha),
                   answers=tuple(sorted(answers.items())),
                   achieved=achieved)

    def to_record(self) -> dict:
        return {
            "alpha": self.alpha,
            "answers": {key: value for key, value in self.answers},
            "achieved": self.achieved,
        }


@dataclass(frozen=True)
class EnactmentState:
    """Where an enactment stands: method, iteration, current practice, trace.

    ``current`` is a practice id; it equals the preamble's id only before the
    first cycle practice starts. ``trace`` holds completions in order.
    """

    method: Method
    iteration: int
    current: str
    trace: tuple[tuple[int, str], ...] = ()

    @property
    def at_preamble(self) -> bool:
        return (self.method.preamble is not None
                and self.current == dotted_id("practice", self.method.preamble))


def _validate_method(method: Method) -> None:
    if not method.cycle:
        raise EnactmentError(f"method {method.name!r} has an empty cycle")
    cycle = set(method.cycle)
    if method.preamble is not None and method.preamble in cycle:
        raise EnactmentError(
            f"method {method.name!r} lists preamble {method.preamble!r} "
            "inside the cycle")
    overlap = cycle & set(method.concurrent)
    if overlap:
        raise EnactmentError(
            f"method {method.name!r} lists concurrent practice(s) "
            f"{', '.join(sorted(overlap))} inside the cycle")


def start_enactment(method: Method) -> EnactmentState:
    """Initial state: at the preamble when there is one, else at the cycle head."""
    _validate_method(method)
    first = method.preamble if method.preamble is not None else method.cycle[0]
    return EnactmentState(method=method, iteration=0,
                          current=dotted_id("practice", first))


def next_phase(state: EnactmentState) -> EnactmentState:
    """Complete the current practice and move on.

    From the preamble the enactment enters the first cycle practice with the
    iteration unchanged; from the last cycle practice it wraps to the first
    and the iteration increments. The completed practice is appended to the
    trace. Concurrent practices never appear here.
    """
    method = state.method
    _validate_method(method)
    cycle_ids = [dotted_id("practice", name) for name in method.cycle]
    completed = (state.iteration, state.current)
    if state.at_preamble:
        return EnactmentState(method=method, iteration=state.iteration,
                              current=cycle_ids[0],
                              trace=state.trace + (completed,))
    try:
        position = cycle_ids.index(state.current)
    except ValueError:
        raise EnactmentError(
            f"current practice {state.current!r} is not part of method "
            f"{method.name!r}") from None
    if position + 1 < len(cycle_ids):
        return EnactmentState(method=method, iteration=state.iteration,
                              current=cycle_ids[position + 1],
                              trace=state.trace + (completed,))
    return EnactmentState(method=method, iteration=state.iteration + 1,
                          current=cycle_ids[0],
                          trace=state.trace + (completed,))


def active_practices(state: EnactmentState) -> frozenset[str]:
    """The current practice plus the method's always-on concurrent practices."""
    concurrent = (dotted_id("practice", name)
                  for name in state.method.concurrent)
    return frozenset({state.current, *concurrent})


def visitation(method: Method, steps: int) -> list[str]:
    """Practice ids of the first ``steps`` enactment positions."""
    if steps <= 0:
        return []
    state = start_enactment(method)
    visited = [state.current]
    for _ in range(steps - 1):
        state = next_phase(state)
        visited.append(state.current)
    return visited


def practice_progress(practice: Practice, done: Iterable[str]) -> float:
    """Fraction of the practice's activities in ``done`` (activity ids).

    A practice with no activities reports 1.0 (vacuously complete). A done
    id that is not one of the practice's activities raises ValueError.
    """
    ids = [ident for ident, element, _, _ in walk_element(practice)
           if isinstance(element, Activity)]
    done = set(done)
    foreign = done - set(ids)
    if foreign:
        raise ValueError(
            "done set contains activities not in practice "
            f"{practice.name!r}: {', '.join(sorted(foreign))}")
    if not ids:
        return 1.0
    return len(done) / len(ids)
