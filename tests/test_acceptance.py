"""Acceptance gate: every suite criterion at full size, one line each.

Run with -s to see the per-criterion lines; each test prints
"<name> pass (<seconds>s): <detail>" or the FAIL equivalent before
asserting.  Criteria with a stated runtime target also assert it.  The
planted-fault tests check the other branch: a criterion fed a bad move
reports its violations.
"""

import re
from time import perf_counter

import pytest

from matchorder import suites
from matchorder.matchings import Matching

_TIME_LIMITS = {"A1": 30.0, "A2": 60.0, "A4": 10.0, "A9": 30.0}
# exact detail strings: state counts, pair counts, successor counts and
# certificates that a change of search or graph code must reproduce
_DETAILS = {
    "A1": "incomparable after 30096 states",
    "A2": "297 ordered pairs agree",
    "A3": "297 ordered pairs agree",
    "A4": "38203 swaps over 5913 permutations all add inversions",
    "A5": "5536 cyclic permutations, 376411 successors checked",
    "A6": "401081 successors keep components together",
    "A7": "forks 1..10 all recover their graphs; 1 and 2 match exactly",
    "A8": "5913 round trips; 5-cycle and the P1/P2 failures behave",
    "A9": "certificate [rule 231-312 @ 4, insert 7 @ 6, insert 7 @ 6] verifies",
    "A10": "4314 moves over 764 matchings all increase",
    "A11": "15017 ordered pairs contained; witness 132 to 312 is cover-only",
    "A12": "12 command transcripts replayed byte-exactly",
}


@pytest.mark.parametrize("name", [name for name, _ in suites.CRITERIA])
def test_criterion(name):
    check = dict(suites.CRITERIA)[name]
    started = perf_counter()
    passed, detail = check()
    elapsed = perf_counter() - started
    status = "pass" if passed else "FAIL"
    print(f"{name} {status} ({elapsed:.1f}s): {detail}")
    assert passed, f"{name}: {detail}"
    if name in _DETAILS:
        assert detail == _DETAILS[name]
    limit = _TIME_LIMITS.get(name)
    if limit is not None:
        assert elapsed < limit, f"{name} took {elapsed:.1f}s, target {limit:.0f}s"


def _plus_sorting_swap(swaps):
    """swaps, plus a swap to the sorted letters, which adds no inversion."""

    def planted(letters):
        return [*swaps(letters), (("swap", (1, len(letters))), tuple(sorted(letters)))]

    return planted


def _plus_dropped_edge(moves):
    """moves, plus a move that drops the first edge, which lowers the order."""

    def planted(m, kind, cap):
        extra = (((), Matching(m.edges[1:])),) if m.edges else ()
        return moves(m, kind, cap) + extra

    return planted


@pytest.mark.parametrize(
    "name, attr, plant",
    [
        ("A4", "_swap_successors", _plus_sorting_swap),
        ("A5", "_swap_successors", _plus_sorting_swap),
        ("A6", "_swap_successors", _plus_sorting_swap),
        ("A10", "moves_with_params", _plus_dropped_edge),
    ],
)
def test_criterion_reports_a_planted_fault(monkeypatch, name, attr, plant):
    monkeypatch.setattr(suites, attr, plant(getattr(suites, attr)))
    passed, detail = dict(suites.CRITERIA)[name]()
    assert passed is False
    assert re.match(r"^\d+ violations \(", detail), detail
