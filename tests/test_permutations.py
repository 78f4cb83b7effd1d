"""Permutation parsing, patterns, and the single-step move generators."""

import itertools

import pytest
from hypothesis import given, strategies as st

from matchorder.permgraphs import permutation_graph
from matchorder.permutations import (
    Permutation,
    RewriteRule,
    _bruhat_successors,
    _insertion_successors,
    _ranks,
    _rewrite_successors,
    _swap_successors,
    apply_insertion,
    apply_rewrite,
    apply_swap,
    bruhat_closure_leq,
    contains_pattern,
)

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(
        lambda letters: Permutation(tuple(letters))
    )
)


def permutations_of(n):
    return [Permutation(letters) for letters in itertools.permutations(range(1, n + 1))]


def inversions(p):
    return set(permutation_graph(p).edges)


def legal_moves(apply, kind, p, candidates):
    """((kind, params), letters) for every candidate the validator accepts."""
    out = []
    for params in candidates:
        try:
            out.append(((kind, params), apply(p, *params).letters))
        except ValueError:
            pass
    return out


def test_validation():
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation((1, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_from_text_forms():
    assert Permutation.from_text("412563").letters == (4, 1, 2, 5, 6, 3)
    assert Permutation.from_text("4,1,2,5,6,3").letters == (4, 1, 2, 5, 6, 3)
    long = Permutation(tuple(range(1, 11)))
    assert long.to_text() == "1,2,3,4,5,6,7,8,9,10"
    assert Permutation.from_text(long.to_text()) == long
    assert Permutation.from_text("213").to_text() == "213"


def test_from_text_rejects_garbage():
    for bad in ("", "12a", "4,1,x", "13"):
        with pytest.raises(ValueError):
            Permutation.from_text(bad)


def test_reduce():
    assert _ranks((3, 6, 4)) == (1, 3, 2)
    assert _ranks((7,)) == (1,)
    with pytest.raises(ValueError, match="distinct"):
        contains_pattern((2, 2), (1, 2, 3))


def test_contains_pattern_basics():
    assert contains_pattern((2, 1), (3, 1, 2))
    assert not contains_pattern((1, 2), (2, 1))
    assert not contains_pattern((1, 2, 3), (3, 2, 1))
    assert contains_pattern((1,), (5, 9))
    assert not contains_pattern((1, 2, 3), (1, 2))


def test_contains_pattern_letterwise_floor():
    # on general words the chosen letters must also dominate the pattern
    assert not contains_pattern((2,), (1,))
    assert contains_pattern((2,), (3,))
    assert not contains_pattern((3, 1), (2, 1))
    assert contains_pattern((3, 1), (4, 2))


def test_contains_pattern_on_permutations_is_plain_containment():
    # the letterwise floor never bites when both words are permutations
    def order_only(small, big):
        target = _ranks(small)
        return any(
            _ranks(tuple(big[p] for p in positions)) == target
            for positions in itertools.combinations(range(len(big)), len(small))
        )

    for ns, nb in ((2, 3), (2, 4), (3, 4)):
        for small in itertools.permutations(range(1, ns + 1)):
            for big in itertools.permutations(range(1, nb + 1)):
                assert contains_pattern(small, big) == order_only(small, big)


def insertions(p):
    return {result for _, result in _insertion_successors(p.letters)}


def test_insertions_of_short_permutations():
    assert insertions(Permutation((1,))) == {(1, 2), (2, 1)}
    assert insertions(Permutation((1, 2))) == {
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)
    }


def test_insertions_are_exactly_the_one_longer_superpatterns():
    for n in range(1, 5):
        for p in permutations_of(n):
            above = {
                q.letters
                for q in permutations_of(n + 1)
                if contains_pattern(p.letters, q.letters)
            }
            assert insertions(p) == above


def test_insertion_successors_are_exactly_the_legal_insertions():
    # every (value, position), out-of-range ones included, value-major
    for n in range(1, 7):
        candidates = list(itertools.product(range(n + 3), repeat=2))
        for p in permutations_of(n):
            expected = legal_moves(apply_insertion, "insert", p, candidates)
            assert _insertion_successors(p.letters) == expected


def test_apply_insertion():
    assert apply_insertion(Permutation((3, 1, 4, 2)), 4, 2) == Permutation(
        (3, 4, 1, 5, 2)
    )
    with pytest.raises(ValueError, match="value"):
        apply_insertion(Permutation((1, 2)), 4, 1)
    with pytest.raises(ValueError, match="position"):
        apply_insertion(Permutation((1, 2)), 1, 4)


def swaps(p):
    return {result for _, result in _swap_successors(p.letters)}


def test_type2_swaps_examples():
    assert swaps(Permutation((2, 1, 4, 3))) == {(2, 3, 4, 1), (3, 1, 4, 2)}
    assert apply_swap(Permutation((3, 2, 1, 4)), 2, 4) == Permutation((3, 4, 1, 2))
    assert apply_swap(Permutation((3, 4, 1, 2)), 1, 2) == Permutation((3, 4, 2, 1))


def test_apply_swap_rejects_illegal_swaps():
    with pytest.raises(ValueError, match="before"):
        apply_swap(Permutation((2, 1)), 1, 2)
    # 2 sits after 3, violating the betweenness requirement for (1, 3)
    with pytest.raises(ValueError, match="between"):
        apply_swap(Permutation((1, 3, 2)), 1, 3)
    with pytest.raises(ValueError, match="range"):
        apply_swap(Permutation((1, 2)), 2, 2)


def test_swap_successors_are_exactly_the_legal_swaps():
    # every (i, j), out-of-range and unordered ones included, in (i, j) order
    for n in range(1, 7):
        candidates = list(itertools.product(range(n + 2), repeat=2))
        for p in permutations_of(n):
            expected = legal_moves(apply_swap, "swap", p, candidates)
            assert _swap_successors(p.letters) == expected


def test_inversions():
    assert inversions(Permutation((4, 1, 2, 5, 6, 3))) == {
        (1, 4),
        (2, 4),
        (3, 4),
        (3, 5),
        (3, 6),
    }
    assert inversions(Permutation((1, 2, 3))) == set()


@given(perms)
def test_inversions_match_position_pair_count(p):
    by_positions = sum(
        1
        for k in range(len(p))
        for l in range(k + 1, len(p))
        if p[k] > p[l]
    )
    assert len(inversions(p)) == by_positions


@given(perms)
def test_swaps_strictly_add_inversions(p):
    before = len(inversions(p))
    for q in swaps(p):
        assert len(inversions(Permutation(q))) > before


def _dominance_leq(a, b):
    """Entry-counting characterization of the cover-closure order."""
    n = len(a)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if sum(1 for k in range(i) if a[k] >= j) > sum(
                1 for k in range(i) if b[k] >= j
            ):
                return False
    return True


def test_cover_closure_against_dominance_oracle():
    for n in range(1, 5):
        universe = permutations_of(n)
        for a in universe:
            for b in universe:
                assert bruhat_closure_leq(a, b) == _dominance_leq(a, b)


def test_bruhat_successors_are_exactly_the_covers():
    # swap values i < j, i to the left, when no position strictly between
    # theirs holds a value strictly between them; listed in (i, j) order
    for n in range(1, 8):
        for letters in itertools.permutations(range(1, n + 1)):
            expected = []
            for i, j in itertools.combinations(range(1, n + 1), 2):
                left, right = letters.index(i), letters.index(j)
                if left < right and not any(
                    i < letters[k] < j for k in range(left + 1, right)
                ):
                    swapped = list(letters)
                    swapped[left], swapped[right] = j, i
                    expected.append(((i, j), tuple(swapped)))
            assert _bruhat_successors(letters) == expected


def test_cover_closure_basics():
    assert bruhat_closure_leq(Permutation((1, 3, 2)), Permutation((3, 1, 2)))
    assert bruhat_closure_leq(Permutation((2, 1, 4, 3)), Permutation((2, 4, 1, 3)))
    assert not bruhat_closure_leq(Permutation((2, 1)), Permutation((1, 2)))
    with pytest.raises(ValueError, match="length"):
        bruhat_closure_leq(Permutation((1,)), Permutation((1, 2)))


def test_rewrite_rule_validation():
    with pytest.raises(ValueError, match="length"):
        RewriteRule(Permutation((2, 1)), Permutation((1, 3, 2)))
    with pytest.raises(ValueError, match="change"):
        RewriteRule(Permutation((2, 1)), Permutation((2, 1)))
    with pytest.raises(ValueError, match="lhs-rhs"):
        RewriteRule.from_text("231")
    rule = RewriteRule.from_text("231-312")
    assert rule.to_text() == "231-312"


def rewrites(p, rules):
    return {result for _, result in _rewrite_successors(p.letters, rules)}


def test_rewrites():
    rule = RewriteRule.from_text("231-312")
    p = Permutation((4, 1, 2, 5, 6, 3))
    assert rewrites(p, [rule]) == {(4, 1, 2, 6, 3, 5)}
    assert apply_rewrite(p, rule, 4) == Permutation((4, 1, 2, 6, 3, 5))
    whole = RewriteRule.from_text("2341-4123")
    assert apply_rewrite(Permutation((2, 3, 4, 1)), whole, 1) == Permutation(
        (4, 1, 2, 3)
    )


def test_apply_rewrite_rejects_bad_windows():
    rule = RewriteRule.from_text("231-312")
    with pytest.raises(ValueError, match="out of range"):
        apply_rewrite(Permutation((2, 3, 1)), rule, 2)
    with pytest.raises(ValueError, match="does not match"):
        apply_rewrite(Permutation((1, 2, 3)), rule, 1)


def test_rewrites_fire_on_every_window():
    # both occurrences of the descent pattern are rewritten independently
    rule = RewriteRule.from_text("21-12")
    p = Permutation((2, 1, 4, 3))
    assert rewrites(p, [rule]) == {(1, 2, 4, 3), (2, 1, 3, 4)}


@given(perms)
def test_rewrite_results_keep_the_window_letters(p):
    rule = RewriteRule.from_text("21-12")
    for q in rewrites(p, [rule]):
        assert sorted(q) == sorted(p.letters)


def test_rewrite_successors_are_exactly_the_legal_rewrites():
    # rule-major, then every window start, out-of-range ones included
    rules = [RewriteRule.from_text(t) for t in ("231-312", "21-12", "2143-3412")]
    for n in range(1, 7):
        for p in permutations_of(n):
            expected = [
                move
                for rule in rules
                for move in legal_moves(
                    apply_rewrite, "rule", p, [(rule, start) for start in range(n + 2)]
                )
            ]
            assert _rewrite_successors(p.letters, rules) == expected
