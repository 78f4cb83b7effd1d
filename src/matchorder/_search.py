"""The one breadth-first search behind the deciders, closures and components.

``successors(state)`` yields ``(step, next)`` pairs in a canonical order
that, like ``admit``, must be a deterministic function of the state: the
search stores only parents, and ``path`` regenerates the steps of one path.
Each successor is handled in a fixed order: already-visited states are
skipped first, then ``admit`` may reject it, then it is recorded and
compared with ``target``, and only then is the budget checked.  That order
keeps verdicts, state counts and certificates identical across callers.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable

# sentinel outcome distinct from True/False
BUDGET = "budget"


def bfs(
    start: Hashable,
    successors: Callable[[Hashable], Iterable[tuple[object, Hashable]]],
    target: Hashable | None = None,
    admit: Callable[[Hashable], bool] | None = None,
    budget: int | None = None,
) -> tuple[bool | str, dict]:
    """Search outward from start until target is recorded or nothing is left.

    Returns (outcome, parents).  outcome is True once target is recorded
    (at once if start == target), BUDGET once more than budget states are
    recorded, and False when the reachable admitted states run out.  parents
    maps every recorded state to the state whose expansion first yielded it
    and the start to None, so len(parents) counts the states explored.
    """
    parents: dict = {start: None}
    if start == target:
        return True, parents
    queue = deque((start,))
    limit = float("inf") if budget is None else budget
    while queue:
        current = queue.popleft()
        for _, nxt in successors(current):
            if nxt in parents:
                continue
            if admit is not None and not admit(nxt):
                continue
            parents[nxt] = current
            if nxt == target:
                return True, parents
            if len(parents) > limit:
                return BUDGET, parents
            queue.append(nxt)
    return False, parents


def path(parents: dict, end: Hashable, successors: Callable) -> list:
    """The steps from the search's start to end, in order: at each state, the
    first step successors(state) yields with the next state as its result.
    bfs recorded each state at that first occurrence (admit is pure), so
    these are the steps the search took."""
    states = [end]
    while parents[states[-1]] is not None:
        states.append(parents[states[-1]])
    states.reverse()
    return [
        next(step for step, nxt in successors(parent) if nxt == child)
        for parent, child in zip(states, states[1:])
    ]
