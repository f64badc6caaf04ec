"""Alpha-state assessment and cyclic method enactment.

Assessment follows a sequential-prefix rule: a state is achieved only when
its own checklist and every earlier state's checklist are fully answered
true, and the alpha's achieved state is the last state of that prefix.
Missing answers count as false.

Enactment walks a method: the preamble practice (when present) runs exactly
once, the cycle then repeats forever, and concurrent practices are active
alongside whatever is current but are never themselves current and never
complete. The trace records completions as (iteration, practice id) pairs
and only ever grows. Every position has a closed form, which the accessors
read through C-level iterators instead of stepping a Python loop.
"""

from __future__ import annotations

from itertools import cycle, islice, product
from typing import Iterable, Mapping

from .diagnostics import Record
from .model import Activity, Alpha, Method, Practice, dotted_id, walk_element


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
        if not all(answers.get(f"{si}.{ci}", False)
                   for ci in range(1, len(state.checklist) + 1)):
            break
        achieved = state.name
    return achieved


class EnactmentState(Record):
    """Where an enactment stands: the method and how many practices completed.

    Position 0 is the preamble when there is one, else the first cycle
    practice; every later position follows in closed form, so a cycle may
    list a practice more than once. Build the first state with
    :func:`start_enactment`, which validates the method. A state built
    directly with an empty cycle or a negative step raises
    :class:`EnactmentError` from ``current``, ``iteration``, ``trace`` and
    :func:`active_practices`.
    """

    method: Method
    step: int = 0

    def _positions(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The preamble head (its id, or nothing) and the cycle's ids: position
        ``len(head) + k`` is ``ids[k % len(ids)]`` in pass ``k // len(ids)``.
        """
        method = self.method
        if not method.cycle:
            raise EnactmentError(f"method {method.name!r} has an empty cycle")
        if self.step < 0:
            raise EnactmentError(f"enactment step {self.step} is negative")
        head = () if method.preamble is None else (dotted_id("practice", method.preamble),)
        return head, tuple(dotted_id("practice", name) for name in method.cycle)

    @property
    def iteration(self) -> int:
        """Completed passes through the cycle; 0 at and right after the preamble."""
        head, ids = self._positions()
        return max(self.step - len(head), 0) // len(ids)

    @property
    def current(self) -> str:
        """The current practice id."""
        head, ids = self._positions()
        if self.step < len(head):
            return head[0]
        return ids[(self.step - len(head)) % len(ids)]

    @property
    def trace(self) -> tuple[tuple[int, str], ...]:
        """Completions in order, as (iteration, practice id) pairs."""
        head, ids = self._positions()
        done = max(self.step - len(head), 0)
        return (*((0, practice_id) for practice_id in head[:self.step]),
                *islice(product(range(-(-done // len(ids))), ids), done))


def start_enactment(method: Method) -> EnactmentState:
    """Initial state: at the preamble when there is one, else at the cycle head.

    Raises :class:`EnactmentError` with the first of
    :meth:`Method.shape_errors`, the first V017 message ``check`` prints.
    """
    errors = method.shape_errors()
    if errors:
        raise EnactmentError(errors[0])
    return EnactmentState(method)


def next_phase(state: EnactmentState) -> EnactmentState:
    """Complete the current practice and move on.

    From the preamble the enactment enters the first cycle practice with the
    iteration unchanged; from the last cycle practice it wraps to the first
    and the iteration increments. The completed practice is appended to the
    trace. Concurrent practices never appear here.
    """
    # Positional: a keyword call builds a kwargs dict on every step.
    return EnactmentState(state.method, state.step + 1)


def active_practices(state: EnactmentState) -> frozenset[str]:
    """The current practice plus the method's always-on concurrent practices."""
    concurrent = (dotted_id("practice", name)
                  for name in state.method.concurrent)
    return frozenset({state.current, *concurrent})


def visitation(method: Method, steps: int) -> list[str]:
    """Practice ids of the first ``steps`` enactment positions of a method
    that :func:`start_enactment` accepts, whatever ``steps`` is."""
    head, ids = start_enactment(method)._positions()
    return [*head, *islice(cycle(ids), steps - len(head))] if steps > 0 else []


def practice_progress(practice: Practice, done: Iterable[str]) -> float:
    """Fraction of the practice's distinct activity ids in ``done``.

    A practice with no activities reports 1.0 (vacuously complete). A done
    id that is not one of the practice's activities raises ValueError.
    """
    ids = {ident for ident, element, _, _ in walk_element(practice)
           if isinstance(element, Activity)}
    done = set(done)
    foreign = done - ids
    if foreign:
        raise ValueError(
            "done set contains activities not in practice "
            f"{practice.name!r}: {', '.join(sorted(foreign))}")
    if not ids:
        return 1.0
    return len(done) / len(ids)
