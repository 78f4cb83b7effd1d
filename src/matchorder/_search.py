"""The one breadth-first search behind the deciders, closures and components.

``successors(state)`` yields ``(step, next)`` pairs in the caller's
canonical order; ``step`` is whatever the caller needs to rebuild a move
later and is stored untouched.  Each successor is handled in a fixed
order: already-visited states are skipped first, then ``admit`` may
reject it, then it is recorded and compared with ``target``, and only
then is the budget checked.  That order is what keeps verdicts, state
counts and certificates identical across the callers that share it.
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

    Returns (outcome, parents).  outcome is True once target is recorded,
    BUDGET once more than budget states are recorded, and False when the
    reachable admitted states run out.  parents maps every recorded state
    to (parent, step) and the start to None, so len(parents) counts the
    states explored, the start included.
    """
    parents: dict = {start: None}
    queue = deque((start,))
    limit = float("inf") if budget is None else budget
    while queue:
        current = queue.popleft()
        for step, nxt in successors(current):
            if nxt in parents:
                continue
            if admit is not None and not admit(nxt):
                continue
            parents[nxt] = (current, step)
            if nxt == target:
                return True, parents
            if len(parents) > limit:
                return BUDGET, parents
            queue.append(nxt)
    return False, parents


def path(parents: dict, end: Hashable) -> list:
    """The steps that lead from the search's start to end, in order."""
    steps = []
    entry = parents[end]
    while entry is not None:
        end, step = entry
        steps.append(step)
        entry = parents[end]
    steps.reverse()
    return steps
