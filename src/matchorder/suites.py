"""Exhaustive property suites at desk scale.

Each criterion is a check with no arguments that sweeps a finite universe
(all permutations up to a length, all matchings up to a vertex count, or a
fixed pair grid) at the size its docstring states, and returns
(passed, detail).  run_all wraps them with timing for the CLI and the
acceptance tests.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from time import perf_counter

from ._search import bfs
from .engine import (
    Certificate,
    MoveSet,
    Step,
    matching_leq,
    perm_leq,
    verify_certificate,
)
from .matchings import (
    MOVE_KINDS,
    all_matchings,
    lex_key,
    moves_with_params,
    word_to_matching,
)
from .permgraphs import (
    LabeledGraph,
    _graph_shape,
    canonical_form,
    fork_graph,
    fork_permutation,
    is_permutation_graph,
    koh_ree_check,
    permutation_from_labeled,
    permutation_graph,
)
from .permutations import (
    Permutation,
    RewriteRule,
    _insertion_successors,
    _swap_successors,
    bruhat_closure_leq,
    contains_pattern,
)

__all__ = ["SuiteResult", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    seconds: float
    detail: str


def _fail_detail(violations: list, checked: str) -> tuple[bool, str]:
    if violations:
        shown = "; ".join(str(v) for v in violations[:3])
        return False, f"{len(violations)} violations ({shown})"
    return True, checked


def _permutations(longest: int = 7):
    """The letter tuples of S_1, S_2, ..., S_longest, shortest first."""
    for n in range(1, longest + 1):
        yield from itertools.permutations(range(1, n + 1))


def _word_grid() -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    return list(_permutations(3)), list(_permutations(4))


def criterion_a1() -> tuple[bool, str]:
    """The first fork pair, 412563 and 41263785, is incomparable under I,II."""
    moves = MoveSet.from_names("I,II")
    result = perm_leq(
        Permutation.from_text("412563"),
        Permutation.from_text("41263785"),
        moves,
    )
    if result.comparable is not False:
        return False, f"expected incomparable, got {result.comparable!r}"
    if result.states_explored > 46224:
        return False, f"explored {result.states_explored} states, over the 46224 bound"
    return True, f"incomparable after {result.states_explored} states"


def criterion_a2() -> tuple[bool, str]:
    """Matching-side and permutation-side deciders agree on S_<=3 x S_<=4."""
    moves = MoveSet.from_names("I,II")
    sources, targets = _word_grid()
    violations = []
    for wa in sources:
        pa, ma = Permutation(wa), word_to_matching(wa)
        for wb in targets:
            pb, mb = Permutation(wb), word_to_matching(wb)
            perm_answer = perm_leq(pa, pb, moves).comparable
            matching_answer = matching_leq(ma, mb, moves).comparable
            if perm_answer != matching_answer:
                violations.append((pa.to_text(), pb.to_text(), perm_answer, matching_answer))
    return _fail_detail(
        violations, f"{len(sources) * len(targets)} ordered pairs agree"
    )


def criterion_a3() -> tuple[bool, str]:
    """With type I moves only, matching order is containment on S_<=3 x S_<=4."""
    moves = MoveSet.from_names("I")
    sources, targets = _word_grid()
    violations = []
    for wa in sources:
        ma = word_to_matching(wa)
        for wb in targets:
            mb = word_to_matching(wb)
            move_answer = matching_leq(ma, mb, moves).comparable is True
            pattern_answer = contains_pattern(wa, wb)
            if move_answer != pattern_answer:
                violations.append((wa, wb, move_answer, pattern_answer))
    return _fail_detail(
        violations, f"{len(sources) * len(targets)} ordered pairs agree"
    )


def criterion_a4() -> tuple[bool, str]:
    """Every swap on S_1-S_7 strictly increases the inversion count."""
    violations = []
    permutations = swaps = 0
    for letters in _permutations():
        permutations += 1
        before = _graph_shape(letters)[0]
        for (_, params), result in _swap_successors(letters):
            swaps += 1
            if _graph_shape(result)[0] <= before:
                violations.append((letters, params))
    return _fail_detail(
        violations,
        f"{swaps} swaps over {permutations} permutations all add inversions",
    )


def _is_cyclic(letters: tuple[int, ...]) -> bool:
    """Does the inversion graph of a permutation contain a cycle?"""
    inversions, cuts = _graph_shape(letters)
    return inversions > len(letters) - cuts.bit_count()


def criterion_a5() -> tuple[bool, str]:
    """Cyclic inversion graphs in S_1-S_7 stay cyclic under swaps and insertions."""
    violations = []
    cyclic = successors = 0
    for letters in _permutations():
        if not _is_cyclic(letters):
            continue
        cyclic += 1
        swaps, insertions = _swap_successors(letters), _insertion_successors(letters)
        for (kind, params), result in itertools.chain(swaps, insertions):
            successors += 1
            if not _is_cyclic(result):
                violations.append((letters, kind, params))
    return _fail_detail(
        violations, f"{cyclic} cyclic permutations, {successors} successors checked"
    )


def criterion_a6() -> tuple[bool, str]:
    """On S_1-S_7, components survive every move; same-component swaps force a cycle.

    Components are the prefix-maximum blocks, value intervals that end at
    the cuts of permgraphs._graph_shape.  A swap keeps the value set, so it
    splits no component exactly when every cut of the result is a cut of
    the letters, and values i < j share a component exactly when no cut of
    the letters lies in i..j-1.  After an insertion a component stays in
    one piece exactly when no cut of the result lies between its least and
    greatest values, shifted past the inserted value.
    """
    violations = []
    checked = 0
    for letters in _permutations():
        _, cuts = _graph_shape(letters)
        ends = [k for k in range(1, len(letters) + 1) if cuts >> k & 1]
        spans = list(zip([1, *(k + 1 for k in ends)], ends))
        for (_, (i, j)), result in _swap_successors(letters):
            checked += 1
            if _graph_shape(result)[1] & ~cuts:
                violations.append((letters, "swap-split", (i, j)))
            if not cuts & ((1 << j) - (1 << i)) and not _is_cyclic(result):
                violations.append((letters, "same-component-acyclic", (i, j)))
        for (_, (value, _pos)), result in _insertion_successors(letters):
            checked += 1
            _, result_cuts = _graph_shape(result)
            if any(
                result_cuts
                & ((1 << high + (high >= value)) - (1 << low + (low >= value)))
                for low, high in spans
            ):
                violations.append((letters, "insert-split", value))
    return _fail_detail(violations, f"{checked} successors keep components together")


def criterion_a7() -> tuple[bool, str]:
    """Forks 1..10 realize the fork graphs; forks 1 and 2 are the stated words."""
    expected_small = {1: "412563", 2: "41263785"}
    for n in range(1, 11):
        perm = fork_permutation(n)
        if len(perm) != 2 * n + 4:
            return False, f"fork {n} has length {len(perm)}"
        if canonical_form(permutation_graph(perm)) != fork_graph(2 * n):
            return False, f"fork {n} graph mismatch"
        if n in expected_small and perm.to_text() != expected_small[n]:
            return False, f"fork {n} is {perm.to_text()}, expected {expected_small[n]}"
    return True, "forks 1..10 all recover their graphs; 1 and 2 match exactly"


def criterion_a8() -> tuple[bool, str]:
    """Graph recovery round-trips on S_1-S_7; the known non-examples are rejected."""
    violations = []
    count = 0
    for letters in _permutations():
        perm = Permutation(letters)
        count += 1
        if permutation_from_labeled(permutation_graph(perm)) != perm:
            violations.append(perm.to_text())
    five_cycle = LabeledGraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5)))
    if is_permutation_graph(five_cycle) is not None:
        violations.append("5-cycle recognized")
    if koh_ree_check(LabeledGraph(3, ((1, 2), (2, 3)))) != (False, True):
        violations.append("path failure pattern wrong")
    if koh_ree_check(LabeledGraph(3, ((1, 3),))) != (True, False):
        violations.append("single-chord failure pattern wrong")
    return _fail_detail(
        violations, f"{count} round trips; 5-cycle and the P1/P2 failures behave"
    )


def criterion_a9() -> tuple[bool, str]:
    """Adding the 231-312 rewrite makes the first fork pair comparable."""
    moves = MoveSet.from_names("I,II,x:231-312")
    start = Permutation.from_text("412563")
    end = Permutation.from_text("41263785")
    result = perm_leq(start, end, moves)
    if result.comparable is not True:
        return False, f"expected comparable, got {result.comparable!r}"
    if not verify_certificate(result.certificate):
        return False, "search certificate fails to replay"
    kinds = sorted(step.kind for step in result.certificate.steps)
    if kinds != ["insert", "insert", "rule"]:
        return False, f"unexpected certificate shape {kinds}"
    scripted = Certificate(
        start,
        end,
        (
            Step("rule", (RewriteRule.from_text("231-312"), 4)),
            Step("insert", (7, 6)),
            Step("insert", (8, 7)),
        ),
    )
    if not verify_certificate(scripted):
        return False, "rewrite-then-insert replay fails"
    steps = ", ".join(step.to_text() for step in result.certificate.steps)
    return True, f"certificate [{steps}] verifies"


def criterion_a10() -> tuple[bool, str]:
    """Every move from a matching on vertices 1..8 strictly increases the order."""
    cap = 8
    violations = []
    count = moves_seen = 0
    for m in all_matchings(cap):
        count += 1
        key = lex_key(m)
        for kind in MOVE_KINDS:
            for params, result in moves_with_params(m, kind, cap):
                moves_seen += 1
                if not key < lex_key(result):
                    violations.append((m.to_text(), kind, params))
    if count != 764:
        violations.append(f"expected 764 matchings, saw {count}")
    return _fail_detail(
        violations, f"{moves_seen} moves over {count} matchings all increase"
    )


def criterion_a11() -> tuple[bool, str]:
    """On S_<=5, equal-length move order sits strictly inside swap-cover order."""
    moves = MoveSet.from_names("I,II")
    violations = []
    witness = None
    pairs = 0
    for n in range(1, 6):
        universe = list(itertools.permutations(range(1, n + 1)))
        perm = {t: Permutation(t) for t in universe}
        reach_moves = {t: frozenset(bfs(t, _swap_successors)[1]) for t in universe}
        for t in universe:
            pairs += len(universe)
            if not all(bruhat_closure_leq(perm[t], perm[u]) for u in reach_moves[t]):
                violations.append(("containment", t))
            if witness is None:
                extra = next(
                    (
                        u
                        for u in universe
                        if u not in reach_moves[t]
                        and bruhat_closure_leq(perm[t], perm[u])
                    ),
                    None,
                )
                if extra is not None:
                    witness = (perm[t], perm[extra])
        if n <= 4:
            # tie the closure bookkeeping back to the public decider
            for ta in universe:
                for tb in universe:
                    if (perm_leq(perm[ta], perm[tb], moves).comparable is True) != (
                        tb in reach_moves[ta]
                    ):
                        violations.append(("decider-mismatch", ta, tb))
    if witness is None:
        violations.append("no strictly-weaker witness found")
        return _fail_detail(violations, "")
    return _fail_detail(
        violations,
        f"{pairs} ordered pairs contained; witness {witness[0]} to {witness[1]} "
        "is cover-only",
    )


# (argv, expected stdout, expected exit code); the verify transcript is
# appended at run time because it needs a temp file
_CLI_TRANSCRIPTS: tuple[tuple[tuple[str, ...], str, int], ...] = (
    (("compare", "--kind", "perm", "2143", "3142"), "comparable\nswap 2 3\n", 0),
    (
        ("compare", "--kind", "perm", "2143", "34152"),
        "comparable\nswap 1 3\ninsert 1 @ 3\n",
        0,
    ),
    (
        ("compare", "--kind", "matching", "1-5 2-6 3-4", "1-5 2-4 3-6"),
        "comparable\nIIa 2 3 4 6\n",
        0,
    ),
    (("compare", "3214", "3412"), "comparable\nswap 2 4\n", 0),
    (("compare", "3412", "3421"), "comparable\nswap 1 2\n", 0),
    (("compare", "--moves", "I,II", "412563", "41263785"), "incomparable\n", 0),
    (("fork", "--n", "1", "--emit", "perm"), "412563\n", 0),
    (("fork", "--n", "2", "--emit", "perm"), "41263785\n", 0),
    (("graph", "412563"), "n=6; 1-4 2-4 3-4 3-5 3-6\n", 0),
    (("graph", "3214"), "n=4; 1-2 1-3 2-3\n", 0),
    (("decompose", "1-5 2-3 4-8 6-7"), "1-5 2-3\n4-8 6-7\n", 0),
)

_VERIFY_DOCUMENT = {
    "kind": "perm",
    "start": "2143",
    "end": "34152",
    "comparable": True,
    "certificate": ["swap 2 3", "insert 4 @ 2"],
    "states_explored": 0,
}


def criterion_a12() -> tuple[bool, str]:
    """The twelve worked examples reproduce byte-exactly through the CLI."""
    from . import cli

    violations = []
    for argv, expected_out, expected_code in _CLI_TRANSCRIPTS:
        buffer = io.StringIO()
        code = cli.main(list(argv), stdout=buffer)
        if buffer.getvalue() != expected_out or code != expected_code:
            violations.append((argv, buffer.getvalue(), code))
    handle = tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False, encoding="utf-8"
    )
    try:
        json.dump(_VERIFY_DOCUMENT, handle)
        handle.close()
        buffer = io.StringIO()
        code = cli.main(["verify", handle.name], stdout=buffer)
        if buffer.getvalue() != "valid\n" or code != 0:
            violations.append(("verify", buffer.getvalue(), code))
    finally:
        os.unlink(handle.name)
    return _fail_detail(
        violations,
        f"{len(_CLI_TRANSCRIPTS) + 1} command transcripts replayed byte-exactly",
    )


CRITERIA: tuple[tuple[str, object], ...] = (
    ("A1", criterion_a1),
    ("A2", criterion_a2),
    ("A3", criterion_a3),
    ("A4", criterion_a4),
    ("A5", criterion_a5),
    ("A6", criterion_a6),
    ("A7", criterion_a7),
    ("A8", criterion_a8),
    ("A9", criterion_a9),
    ("A10", criterion_a10),
    ("A11", criterion_a11),
    ("A12", criterion_a12),
)


def run_all(names: list[str] | None = None) -> list[SuiteResult]:
    """Run the named criteria (all by default) and time each one."""
    by_name = dict(CRITERIA)
    if names is None:
        chosen = list(CRITERIA)
    else:
        unknown = [name for name in names if name not in by_name]
        if unknown:
            raise ValueError(f"unknown criteria {', '.join(unknown)}")
        chosen = [(name, by_name[name]) for name in names]
    results = []
    for name, check in chosen:
        started = perf_counter()
        passed, detail = check()
        results.append(SuiteResult(name, passed, perf_counter() - started, detail))
    return results
