"""Acceptance gate: every suite criterion at full size, one line each.

Run with -s to see the per-criterion lines; each test prints
"<name> pass (<seconds>s): <detail>" or the FAIL equivalent before
asserting.  Criteria with a stated runtime target also assert it.  The
planted-fault tests check the other branch: a criterion fed a bad move, a
wrong answer or a wrong expectation fails with its own detail text, and
together they run every failure branch of every criterion.
"""

import itertools
import re
from time import perf_counter

import pytest

from matchorder import suites
from matchorder._search import BUDGET
from matchorder.engine import Certificate, SearchResult, VerificationResult
from matchorder.matchings import Matching
from matchorder.permutations import Permutation

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


def _always(value):
    """A plant that ignores the original and answers value to every call."""
    return lambda original: lambda *args: value


def _answers(*values):
    """A plant that answers values in turn, one per call."""

    def plant(original):
        answers = iter(values)
        return lambda *args: next(answers)

    return plant


def _plus_sorting_swap(swaps):
    """swaps, plus a swap to the sorted letters, which adds no inversion."""

    def planted(letters):
        return [*swaps(letters), (("swap", (1, len(letters))), tuple(sorted(letters)))]

    return planted


def _plus_identity_insertion(insertions):
    """insertions, plus one of 1 whose result is the identity, which splits
    every block of more than one value."""

    def planted(letters):
        identity = tuple(range(1, len(letters) + 2))
        return [*insertions(letters), (("insert", (1, 1)), identity)]

    return planted


def _plus_dropped_edge(moves):
    """moves, plus a move that drops the first edge, which lowers the order."""

    def planted(m, kind, cap):
        extra = (((), Matching(m.edges[1:])),) if m.edges else ()
        return moves(m, kind, cap) + extra

    return planted


def _fault(name, plants, label, pattern):
    """One planted-fault case, its id "<criterion>-<attributes>-<label>"."""
    return pytest.param(name, plants, pattern, id=f"{name}-{'-'.join(plants)}-{label}")


_NOT_COMPARABLE = SearchResult(False, None, 1)
_EMPTY_CERTIFICATE = SearchResult(
    True, Certificate(Permutation((1,)), Permutation((1,)), ()), 1
)
_INVALID = VerificationResult(False, 1, "planted")

# A plant maps a suites attribute's original value to its replacement.
# Together the cases run every failure branch of every criterion.
_PLANTED_FAULTS = [
    _fault(
        "A1",
        {"perm_leq": _always(SearchResult(BUDGET, None, 1))},
        "budget",
        r"expected incomparable, got 'budget'",
    ),
    _fault(
        "A1",
        {"perm_leq": _always(SearchResult(False, None, 46225))},
        "over_bound",
        r"explored 46225 states, over the 46224 bound",
    ),
    _fault(
        "A2",
        {"matching_leq": _always(_NOT_COMPARABLE)},
        "never_comparable",
        r"\d+ violations \(\('1', '1', True, False\); .*",
    ),
    _fault(
        "A3",
        {"contains_pattern": lambda original: lambda a, b: not original(a, b)},
        "negated",
        r"297 violations \(\(\(1,\), \(1,\), True, False\); .*",
    ),
    _fault(
        "A4",
        {"_swap_successors": _plus_sorting_swap},
        "_plus_sorting_swap",
        r"\d+ violations \(\(\(1,\), \(1, 1\)\); .*",
    ),
    _fault(
        "A5",
        {"_swap_successors": _plus_sorting_swap},
        "_plus_sorting_swap",
        r"\d+ violations \(\(\(3, 2, 1\), 'swap', \(1, 3\)\); .*",
    ),
    _fault(
        "A6",
        {"_swap_successors": _plus_sorting_swap},
        "_plus_sorting_swap",
        r"\d+ violations \(\(\(1,\), 'same-component-acyclic', \(1, 1\)\); "
        r"\(\(2, 1\), 'swap-split', \(1, 2\)\); .*",
    ),
    _fault(
        "A6",
        {"_insertion_successors": _plus_identity_insertion},
        "_plus_identity_insertion",
        r"\d+ violations \(\(\(2, 1\), 'insert-split', 1\); .*",
    ),
    _fault(
        "A7",
        {"fork_permutation": _always(Permutation.from_text("1234"))},
        "too_short",
        r"fork 1 has length 4",
    ),
    _fault(
        "A7",
        {"fork_permutation": lambda original: lambda n: Permutation(
            tuple(range(1, 2 * n + 5))
        )},
        "identity",
        r"fork 1 graph mismatch",
    ),
    # 236145 is the inverse of 412563, so its graph is isomorphic to fork 1's
    _fault(
        "A7",
        {"fork_permutation": lambda original: lambda n: (
            Permutation.from_text("236145") if n == 1 else original(n)
        )},
        "inverse",
        r"fork 1 is 236145, expected 412563",
    ),
    _fault(
        "A8",
        {"koh_ree_check": _always((True, True))},
        "always_passes",
        r"2 violations \(path failure pattern wrong; "
        r"single-chord failure pattern wrong\)",
    ),
    _fault(
        "A8",
        {"permutation_from_labeled": lambda original: lambda g: Permutation(
            tuple(range(1, g.n + 1))
        )},
        "identity",
        r"\d+ violations \(21; 132; 213\)",
    ),
    _fault(
        "A8",
        {"is_permutation_graph": _always(Permutation((1,)))},
        "always_found",
        r"1 violations \(5-cycle recognized\)",
    ),
    _fault(
        "A9",
        {"perm_leq": _always(_NOT_COMPARABLE)},
        "never_comparable",
        r"expected comparable, got False",
    ),
    _fault(
        "A9",
        {"verify_certificate": _always(_INVALID)},
        "always_invalid",
        r"search certificate fails to replay",
    ),
    _fault(
        "A9",
        {
            "perm_leq": _always(_EMPTY_CERTIFICATE),
            "verify_certificate": _always(VerificationResult(True)),
        },
        "empty_certificate",
        r"unexpected certificate shape \[\]",
    ),
    _fault(
        "A9",
        {"verify_certificate": _answers(VerificationResult(True), _INVALID)},
        "second_invalid",
        r"rewrite-then-insert replay fails",
    ),
    _fault(
        "A10",
        {"moves_with_params": _plus_dropped_edge},
        "_plus_dropped_edge",
        r"\d+ violations \(\('7-8', 'Ia', \(\)\); .*",
    ),
    _fault(
        "A10",
        {"all_matchings": lambda original: lambda cap: itertools.islice(
            original(cap), 10
        )},
        "first_10",
        r"1 violations \(expected 764 matchings, saw 10\)",
    ),
    _fault(
        "A11",
        {"_bruhat_successors": _always([])},
        "no_covers",
        r"\d+ violations \(\('containment', \(1, 2\)\); "
        r"\('cover-mismatch', \(1, 2\), \(2, 1\)\); .*",
    ),
    _fault(
        "A11",
        {"perm_leq": _always(_NOT_COMPARABLE)},
        "never_comparable",
        r"\d+ violations \(\('decider-mismatch', \(1,\), \(1,\)\); .*",
    ),
    _fault(
        "A12",
        {
            "_CLI_TRANSCRIPTS": lambda transcripts: (
                (transcripts[0][0], "incomparable\n", 0), *transcripts[1:]
            ),
            "_VERIFY_DOCUMENT": lambda document: {**document, "end": "2143"},
        },
        "wrong_expectations",
        r"2 violations \(\(\('compare', .*\), 'comparable\\nswap 2 3\\n', 0\); "
        r"\('verify', .*\)\)",
    ),
]


@pytest.mark.parametrize("name, plants, pattern", _PLANTED_FAULTS)
def test_criterion_reports_a_planted_fault(monkeypatch, name, plants, pattern):
    for attr, plant in plants.items():
        monkeypatch.setattr(suites, attr, plant(getattr(suites, attr)))
    passed, detail = dict(suites.CRITERIA)[name]()
    assert passed is False
    assert re.fullmatch(pattern, detail), detail
