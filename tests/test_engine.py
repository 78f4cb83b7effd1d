"""Reachability deciders, certificates, and the antichain checker."""

import itertools
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, strategies as st

from matchorder import engine
from matchorder.engine import (
    BUDGET,
    Certificate,
    MoveSet,
    SearchResult,
    Step,
    antichain_check,
    certificate_from_document,
    matching_leq,
    perm_leq,
    result_document,
    verify_certificate,
)
from matchorder.matchings import (
    MOVE_KINDS,
    Matching,
    all_matchings,
    lex_key,
    word_to_matching,
)
from matchorder.permutations import (
    Permutation,
    RewriteRule,
    _swap_successors,
    contains_pattern,
)
from matchorder.suites import _word_grid
from test_matchings import legal_moves

I_AND_II = MoveSet.from_names("I,II")

perms = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(
        lambda letters: Permutation(tuple(letters))
    )
)


def P(text):
    return Permutation.from_text(text)


def M(text):
    return Matching.from_text(text)


def test_move_set_names():
    ms = MoveSet.from_names("I")
    assert ms == MoveSet.from_names("Ia,Ib")
    assert ms.kinds == frozenset({"Ia", "Ib"})
    ms = MoveSet.from_names("II")
    assert ms.kinds == frozenset({"IIa", "IIb"})
    ms = MoveSet.from_names("IIa, x:231-312")
    assert ms.kinds == frozenset({"IIa"})
    assert len(ms.rules) == 1
    with pytest.raises(ValueError, match="unknown move name"):
        MoveSet.from_names("I,III")
    with pytest.raises(ValueError, match="nothing"):
        MoveSet(frozenset())
    # a move set built from kind names is the parsed one, and decides alike
    ms = MoveSet(frozenset({"IIa"}))
    assert ms == MoveSet.from_names("IIa")
    result = perm_leq(P("2143"), P("3142"), ms)
    assert result.comparable is True
    assert [step.to_text() for step in result.certificate.steps] == ["swap 2 3"]
    with pytest.raises(ValueError, match="unknown move kind"):
        MoveSet(frozenset({"bogus"}))
    # a bare string is its set of letters, {"I", "a"}
    with pytest.raises(ValueError, match="unknown move kind"):
        MoveSet("IIa")


def test_every_kind_set_agrees_across_the_word_bijection():
    # A2's grid: words of length <= 3 against words of length <= 4
    sources = [w for n in (1, 2, 3) for w in itertools.permutations(range(1, n + 1))]
    targets = [w for n in (1, 2, 3, 4) for w in itertools.permutations(range(1, n + 1))]
    for size in range(1, len(MOVE_KINDS) + 1):
        for kinds in itertools.combinations(MOVE_KINDS, size):
            moves = MoveSet.from_names(",".join(kinds))
            for wa in sources:
                for wb in targets:
                    perm_answer = perm_leq(Permutation(wa), Permutation(wb), moves)
                    matching_answer = matching_leq(
                        word_to_matching(wa), word_to_matching(wb), moves
                    )
                    assert perm_answer.comparable == matching_answer.comparable, (
                        kinds,
                        wa,
                        wb,
                    )


def test_step_text_round_trips():
    for text in (
        "Ia 3-4",
        "Ib 1-2 -> 1-3",
        "IIa 1 2 3 4",
        "IIb 2 3 4 6",
        "swap 2 3",
        "insert 4 @ 2",
        "rule 231-312 @ 4",
    ):
        assert Step.from_text(text).to_text() == text
    with pytest.raises(ValueError, match="unknown step kind"):
        Step("frob", ()).to_text()
    # a step that replay would call malformed has no text either
    for params in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="malformed step") as info:
            Step("swap", params).to_text()
        assert "\n" not in str(info.value)
    # a rule step keeps the parsed rule, the same step the search records
    step = Step.from_text("rule 231-312 @ 1")
    assert step.params == (RewriteRule.from_text("231-312"), 1)
    found = perm_leq(P("2314"), P("3124"), MoveSet.from_names("x:231-312"))
    assert found.certificate.steps == (step,)


def test_step_parsing_rejects_malformed_text():
    for text, message in (
        ("", "empty step"),
        ("   ", "empty step"),
        ("swap 2", "bad step 'swap 2'"),
        ("swap 2 3 4", "bad step 'swap 2 3 4'"),
        ("insert 4 2", "bad step 'insert 4 2'"),
        ("IIa 1 2 3", "bad step 'IIa 1 2 3'"),
        ("Ia 1-2 3-4", "bad step 'Ia 1-2 3-4'"),
        ("Ib 1-2 1-3", "bad step 'Ib 1-2 1-3'"),
        ("frob", "bad step 'frob'"),
        ("frob 1 2", "bad step 'frob 1 2'"),
        ("swap x 2", "bad step 'swap x 2': invalid literal for int() with base 10: 'x'"),
        ("IIb 1 2 3 y", "bad step 'IIb 1 2 3 y': invalid literal for int() with base 10: 'y'"),
        ("rule 231 @ 1", "bad step 'rule 231 @ 1': bad rewrite rule '231', expected lhs-rhs"),
        ("rule 231-231 @ 1",
         "bad step 'rule 231-231 @ 1': rewrite rule must change its window"),
        ("rule 231-312 @ x",
         "bad step 'rule 231-312 @ x': invalid literal for int() with base 10: 'x'"),
    ):
        with pytest.raises(ValueError) as info:
            Step.from_text(text)
        assert str(info.value) == message, text


def test_step_parsing_names_a_bad_edge_token():
    for text, token in (("Ia 1-x", "1-x"), ("Ib 1-2 -> 1-", "1-"), ("Ia 12", "12")):
        with pytest.raises(ValueError) as info:
            Step.from_text(text)
        assert str(info.value) == f"bad step {text!r}: bad edge token {token!r}"


def test_certificate_states_of_two_sides_fail_replay():
    # the start's type is the side: steps replay there, and the end must match
    for cert, failed_step, reason in (
        (Certificate(P("12"), M("1-2"), (Step("swap", (1, 2)),)), None, "end mismatch"),
        (Certificate(M("1-2"), P("21"), (Step("swap", (1, 2)),)), 0,
         "step kind 'swap' is not a matching move"),
    ):
        verdict = verify_certificate(cert)
        assert not verdict
        assert verdict.failed_step == failed_step
        assert verdict.reason == reason


def test_matching_identity():
    result = matching_leq(M("1-2"), M("1-2"), I_AND_II)
    assert result.comparable is True
    assert result.certificate.steps == ()
    assert result.states_explored == 1


def test_matching_slide_certificate():
    result = matching_leq(M("1-2"), M("1-3"), MoveSet.from_names("I"))
    assert result.comparable is True
    assert [s.to_text() for s in result.certificate.steps] == ["Ib 1-2 -> 1-3"]
    assert verify_certificate(result.certificate)


def test_matching_rearrangement_certificate():
    result = matching_leq(M("1-4 2-3"), M("1-3 2-4"), MoveSet.from_names("II"))
    assert result.comparable is True
    assert [s.to_text() for s in result.certificate.steps] == ["IIa 1 2 3 4"]


def test_matching_moves_only_go_up():
    assert matching_leq(M("1-3 2-4"), M("1-4 2-3"), I_AND_II).comparable is False


def test_matching_type_two_cannot_create_edges():
    result = matching_leq(M(""), M("1-2"), MoveSet.from_names("II"))
    assert result.comparable is False
    assert result.states_explored == 1


def test_matching_rejects_rewrite_rules():
    with pytest.raises(ValueError, match="permutation"):
        matching_leq(M("1-2"), M("1-3"), MoveSet.from_names("I,x:21-12"))


def test_matching_budget_sentinel():
    result = matching_leq(
        M(""), M("1-2 3-4 5-6"), MoveSet.from_names("Ia"), budget=1
    )
    assert result.comparable == BUDGET
    assert result.certificate is None
    assert result.states_explored == 2


def test_matching_budget_bounds_a_large_cap():
    # Ia from 1-2 under cap 1500 has C(1498, 2) candidates; the budget must
    # stop the search long before they are all built
    tracemalloc.start()
    try:
        result = matching_leq(M("1-2"), M("1-2 3-1500"), I_AND_II, budget=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.comparable == BUDGET
    assert result.states_explored == 11
    assert peak < 1_000_000


def _closure(start, kinds, cap):
    """Everything reachable from start, each step found by trying candidate
    parameters on apply_move, so the reference never calls the generator."""
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for m in frontier:
            for kind in kinds:
                for _, nxt in legal_moves(m, kind, cap):
                    if nxt not in seen:
                        seen.add(nxt)
                        fresh.append(nxt)
        frontier = fresh
    return seen


@pytest.mark.parametrize(
    "names",
    ["Ia", "Ib", "II", "Ia,Ib,IIa,IIb"],
)
def test_matching_decider_against_unpruned_closure(names):
    moves = MoveSet.from_names(names)
    kinds = sorted(moves.kinds)
    universe = list(all_matchings(4))
    for a in universe:
        for b in universe:
            cap = max(a.max_vertex, b.max_vertex)
            expected = b in _closure(a, kinds, cap)
            result = matching_leq(a, b, moves)
            assert (result.comparable is True) == expected, (a, b, names)
            if expected:
                verdict = verify_certificate(result.certificate)
                assert verdict, verdict.reason


@given(perms)
def test_single_swap_is_always_certified(p):
    moves = MoveSet.from_names("II")
    for _, letters in _swap_successors(p.letters):
        q = Permutation(letters)
        result = perm_leq(p, q, moves)
        assert result.comparable is True
        assert len(result.certificate.steps) == 1
        assert verify_certificate(result.certificate)


def test_perm_swap_certificates():
    result = perm_leq(P("2143"), P("3142"), I_AND_II)
    assert [s.to_text() for s in result.certificate.steps] == ["swap 2 3"]
    result = perm_leq(P("2143"), P("34152"), I_AND_II)
    assert [s.to_text() for s in result.certificate.steps] == [
        "swap 1 3",
        "insert 1 @ 3",
    ]
    assert verify_certificate(result.certificate)


def test_perm_quick_rejections():
    shrink = perm_leq(P("213"), P("21"), I_AND_II)
    assert shrink.comparable is False
    assert shrink.states_explored == 1
    grow_without_insertions = perm_leq(P("21"), P("213"), MoveSet.from_names("II"))
    assert grow_without_insertions.comparable is False
    assert grow_without_insertions.states_explored == 1


def test_perm_without_any_applicable_move():
    result = perm_leq(P("12"), P("21"), MoveSet.from_names("Ia"))
    assert result.comparable is False
    assert result.states_explored == 1


def test_perm_insertions_only_is_pattern_containment():
    moves = MoveSet.from_names("I")
    for ns, nb in ((2, 3), (3, 4)):
        for small in itertools.permutations(range(1, ns + 1)):
            for big in itertools.permutations(range(1, nb + 1)):
                expected = contains_pattern(small, big)
                result = perm_leq(Permutation(small), Permutation(big), moves)
                assert (result.comparable is True) == expected


def test_perm_rewrite_certificates():
    whole = MoveSet.from_names("x:2341-4123")
    result = perm_leq(P("2341"), P("4123"), whole)
    assert [s.to_text() for s in result.certificate.steps] == ["rule 2341-4123 @ 1"]
    window = MoveSet.from_names("x:231-312")
    result = perm_leq(P("412563"), P("412635"), window)
    assert [s.to_text() for s in result.certificate.steps] == ["rule 231-312 @ 4"]


def test_perm_budget_sentinel():
    result = perm_leq(P("2143"), P("41263785"), I_AND_II, budget=2)
    assert result.comparable == BUDGET
    assert result.certificate is None
    assert result.states_explored == 3


def test_searches_are_deterministic():
    first = perm_leq(P("2143"), P("34152"), I_AND_II)
    second = perm_leq(P("2143"), P("34152"), I_AND_II)
    assert first == second
    assert first == SearchResult(
        True, first.certificate, first.states_explored
    )


_WORD_MATCHING_CERTIFICATE = [
    "Ib 3-8 -> 3-9", "Ib 1-7 -> 1-8", "Ib 4-6 -> 4-7", "Ib 2-5 -> 2-6",
    "Ib 4-7 -> 5-7", "Ib 3-9 -> 4-9", "Ib 2-6 -> 3-6", "Ib 4-9 -> 4-10",
    "Ib 1-8 -> 1-9", "Ib 5-7 -> 5-8", "Ib 3-6 -> 3-7", "Ib 4-10 -> 4-11",
    "Ia 6-10", "Ib 4-11 -> 4-12", "Ia 2-11",
]


# Verdicts, state counts and certificates of the breadth-first deciders,
# pinned so that any change to the order states are visited in shows up.
@pytest.mark.parametrize(
    "decide, a, b, names, budget, comparable, states, certificate",
    [
        (perm_leq, P("412563"), P("41263785"), "I,II", None, False, 30096, None),
        (
            perm_leq, P("412563"), P("41263785"), "I,II,x:231-312", None,
            True, 7034, ["rule 231-312 @ 4", "insert 7 @ 6", "insert 7 @ 6"],
        ),
        (perm_leq, P("2143"), P("34152"), "I,II", None, True, 26,
         ["swap 1 3", "insert 1 @ 3"]),
        (perm_leq, P("41263785"), P("4,1,2,6,3,8,5,10,7,9"), "I,II", 5000,
         BUDGET, 5001, None),
        (
            matching_leq, word_to_matching((3, 1, 4, 2)),
            word_to_matching((4, 2, 6, 1, 5, 3)), "I,II", None,
            True, 29550, _WORD_MATCHING_CERTIFICATE,
        ),
        (matching_leq, M("1-6 2-5 3-7 4-8"), M("1-9 2-7 3-8 4-12 5-11 6-10"), "I,II",
         3000, BUDGET, 3001, None),
    ],
    ids=["fork-pair", "fork-pair-rule", "2143-34152", "fork-budget", "word-matchings",
         "matching-budget"],
)
def test_search_parity(decide, a, b, names, budget, comparable, states, certificate):
    kwargs = {} if budget is None else {"budget": budget}
    result = decide(a, b, MoveSet.from_names(names), **kwargs)
    assert result.comparable == comparable
    assert result.states_explored == states
    if certificate is None:
        assert result.certificate is None
    else:
        assert [s.to_text() for s in result.certificate.steps] == certificate
        assert verify_certificate(result.certificate)


def _stored_step_bfs(start, successors, target=None, admit=None, budget=None):
    """The search as it was when every visited entry kept its step, with the
    deciders' old a == b answer: the reference for the parent-only search."""
    if start == target:
        return True, {start: None}
    parents = {start: None}
    queue = deque((start,))
    limit = float("inf") if budget is None else budget
    while queue:
        current = queue.popleft()
        for step, nxt in successors(current):
            if nxt in parents or (admit is not None and not admit(nxt)):
                continue
            parents[nxt] = (current, step)
            if nxt == target:
                return True, parents
            if len(parents) > limit:
                return BUDGET, parents
            queue.append(nxt)
    return False, parents


def _stored_path(parents, end, successors):
    steps = []
    while parents[end] is not None:
        end, step = parents[end]
        steps.append(step)
    return steps[::-1]


_A2_WORDS = list(itertools.product(*_word_grid()))
_A2_PERMS = [(Permutation(a), Permutation(b)) for a, b in _A2_WORDS]
_A2_MATCHINGS = [(word_to_matching(a), word_to_matching(b)) for a, b in _A2_WORDS]
_SMALL_MATCHINGS = list(itertools.product(all_matchings(4), repeat=2))
_rng = random.Random(5)
_PERMS_5_TO_7 = [
    (Permutation(tuple(_rng.sample(range(1, 6), 5))),
     Permutation(tuple(_rng.sample(range(1, 8), 7))))
    for _ in range(20)
]


@pytest.mark.parametrize(
    "decide, pairs, names",
    [
        (perm_leq, _A2_PERMS, "I,II"),
        (perm_leq, _A2_PERMS, "I"),
        (perm_leq, _A2_PERMS, "I,II,x:231-312"),
        (matching_leq, _A2_MATCHINGS, "I,II"),
        (matching_leq, _A2_MATCHINGS, "I"),
        (matching_leq, _SMALL_MATCHINGS, "I,II"),
        (matching_leq, _SMALL_MATCHINGS, "Ib,IIb"),
        (perm_leq, _PERMS_5_TO_7, "I,II"),
    ],
    ids=["a2-perm", "a2-perm-I", "a2-perm-rule", "a2-matching", "a2-matching-I",
         "matchings-4", "matchings-4-Ib-IIb", "perms-5-7"],
)
def test_path_walk_rebuilds_the_stored_steps(monkeypatch, decide, pairs, names):
    moves = MoveSet.from_names(names)

    def answers():
        return [
            (r.comparable, r.states_explored,
             None if r.certificate is None else [s.to_text() for s in r.certificate.steps])
            for r in (decide(a, b, moves) for a, b in pairs)
        ]

    walked = answers()
    monkeypatch.setattr(engine, "bfs", _stored_step_bfs)
    monkeypatch.setattr(engine, "path", _stored_path)
    assert answers() == walked
    assert any(certificate for _, _, certificate in walked)


def test_search_stores_no_steps():
    # the visited map holds a parent per state; with (parent, step) entries
    # it held 323 bytes per state on this query
    tracemalloc.start()
    try:
        result = perm_leq(P("412563"), P("41263785"), I_AND_II)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.states_explored == 30096
    assert peak / result.states_explored <= 240


@given(perms, perms)
def test_reachability_never_decreases_length(a, b):
    if len(a) > len(b):
        assert perm_leq(a, b, I_AND_II).comparable is False


def test_comparable_matchings_respect_the_total_order():
    universe = list(all_matchings(4))
    for a in universe:
        for b in universe:
            if a != b and matching_leq(a, b, I_AND_II).comparable is True:
                assert lex_key(a) < lex_key(b)


def test_verify_reports_end_mismatch():
    cert = Certificate(P("2143"), P("2341"), (Step("swap", (2, 3)),))
    verdict = verify_certificate(cert)
    assert not verdict
    assert verdict.failed_step is None
    assert verdict.reason == "end mismatch"


def test_verify_reports_the_failing_step():
    # after the first swap the state is 3142, where 2 sits after 3
    cert = Certificate(
        P("2143"),
        P("3412"),
        (Step("swap", (2, 3)), Step("swap", (2, 3))),
    )
    verdict = verify_certificate(cert)
    assert not verdict
    assert verdict.failed_step == 1
    assert "before" in verdict.reason


def test_verify_rejects_steps_of_the_wrong_kind():
    # a kind that is not a string, hashable or not, names no step kind
    for cert, reason in (
        (Certificate(M("1-2"), M("1-3"), (Step("swap", (1, 2)),)),
         "step kind 'swap' is not a matching move"),
        (Certificate(P("12"), P("21"), (Step("Ia", (1, 2)),)),
         "step kind 'Ia' is not a permutation move"),
        (Certificate(P("12"), P("21"), (Step(["swap"], (1, 2)),)),
         "step kind ['swap'] is not a permutation move"),
        (Certificate(M("1-2"), M("1-3"), (Step(["Ib"], (1, 2, 1, 3)),)),
         "step kind ['Ib'] is not a matching move"),
        (Certificate(P("12"), P("21"), (Step({"swap": 1}, (1, 2)),)),
         "step kind {'swap': 1} is not a permutation move"),
    ):
        verdict = verify_certificate(cert)
        assert not verdict
        assert verdict.failed_step == 0
        assert verdict.reason == reason


@pytest.mark.parametrize(
    "start, end, step",
    [
        # too few or too many params
        (P("12"), P("21"), Step("swap", (1,))),
        (P("12"), P("213"), Step("insert", (2, 2, 9))),
        (P("231"), P("312"), Step("rule", (RewriteRule.from_text("231-312"),))),
        (M("1-2"), M("1-2 3-4"), Step("Ia", (1,))),
        (M("1-4 2-3"), M("1-3 2-4"), Step("IIa", (1, 2, 3))),
        # params that are not ints
        (P("12"), P("21"), Step("swap", ("1", "2"))),
        (M(""), M("1-2"), Step("Ia", ("1", "2"))),
        # a bool is not an int, params must be a tuple, a rule is not its text
        (P("12"), P("21"), Step("swap", (True, 2))),
        (P("12"), P("21"), Step("swap", [1, 2])),
        (P("231"), P("312"), Step("rule", ("231-312", 1))),
        (P("231"), P("312"), Step("rule", (RewriteRule.from_text("231-312"), True))),
    ],
    ids=[
        "swap-1", "insert-3", "rule-1", "Ia-1", "IIa-3", "swap-str", "Ia-str",
        "swap-bool", "swap-list", "rule-str", "rule-bool",
    ],
)
def test_verify_reports_malformed_steps_without_raising(start, end, step):
    verdict = verify_certificate(Certificate(start, end, (step,)))
    assert (verdict.ok, verdict.failed_step) == (False, 0)
    assert verdict.reason.startswith(f"malformed step: kind {step.kind!r}, params ")
    assert "\n" not in verdict.reason


def test_antichain_on_the_fork_pair():
    report = antichain_check([P("412563"), P("41263785")], I_AND_II)
    assert report.verdict == "antichain"
    assert len(report.pairs) == 1
    assert report.pairs[0].result.comparable is False


def test_antichain_checks_ordered_pairs_only():
    # 2143 reaches 3142, so order matters: reversed input is an antichain
    assert antichain_check([P("2143"), P("3142")], I_AND_II).verdict == "comparable"
    assert antichain_check([P("3142"), P("2143")], I_AND_II).verdict == "antichain"


def test_antichain_budget_verdict():
    report = antichain_check([P("2143"), P("41263785")], I_AND_II, budget=2)
    assert report.verdict == BUDGET


def test_antichain_rejects_mixed_items():
    with pytest.raises(ValueError, match="all matchings or all permutations"):
        antichain_check([P("21"), M("1-2")], I_AND_II)


def test_antichain_on_matchings():
    report = antichain_check([M("1-4 2-3"), M("1-3 2-4")], I_AND_II)
    assert report.verdict == "comparable"


def test_result_document_round_trip():
    result = perm_leq(P("2143"), P("3142"), I_AND_II)
    doc = result_document(P("2143"), P("3142"), result)
    assert doc["comparable"] is True
    assert doc["certificate"] == ["swap 2 3"]
    assert doc["states_explored"] == result.states_explored
    rebuilt = certificate_from_document(doc)
    assert rebuilt == result.certificate
    assert verify_certificate(rebuilt)


def test_result_document_for_matchings():
    result = matching_leq(M("1-2"), M("1-3"), MoveSet.from_names("I"))
    doc = result_document(M("1-2"), M("1-3"), result)
    assert doc["kind"] == "matching"
    rebuilt = certificate_from_document(doc)
    assert verify_certificate(rebuilt)


def test_document_without_certificate_is_rejected():
    result = perm_leq(P("3142"), P("2143"), I_AND_II)
    doc = result_document(P("3142"), P("2143"), result)
    assert doc["certificate"] is None
    with pytest.raises(ValueError, match="no certificate"):
        certificate_from_document(doc)


def test_document_with_missing_keys_is_rejected():
    with pytest.raises(ValueError, match="missing"):
        certificate_from_document({"kind": "perm"})
    with pytest.raises(ValueError, match="kind"):
        certificate_from_document(
            {"kind": "word", "start": "21", "end": "21", "certificate": []}
        )
