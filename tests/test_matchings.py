"""Matching structure, the total order, moves, and the word bijection."""

import itertools

import pytest
from hypothesis import given, strategies as st

from matchorder.matchings import (
    MOVE_KINDS,
    Matching,
    all_matchings,
    apply_move,
    decompose_intertwined,
    is_intertwined,
    lex_key,
    matching_to_word,
    moves_with_params,
    word_to_matching,
)
from matchorder.permutations import Permutation


def matchings_cap(max_vertex):
    return list(all_matchings(max_vertex))


def candidate_params(m, kind, cap):
    """Every parameter tuple worth trying: the pairs for Ia, the two slides
    of each edge for Ib, and the increasing quadruples for IIa and IIb.
    Vertices reach one past the cap, so the cap filter has work to do."""
    vertices = range(1, cap + 2)
    if kind == "Ia":
        return list(itertools.combinations(vertices, 2))
    if kind == "Ib":
        return [p for i, j in m.edges for p in ((i, j, i + 1, j), (i, j, i, j + 1))]
    return list(itertools.combinations(vertices, 4))


def legal_moves(m, kind, cap):
    """(params, result) for every candidate on which apply_move succeeds and
    whose result stays within the cap, in the total order."""
    out = []
    for params in candidate_params(m, kind, cap):
        try:
            result = apply_move(m, kind, params)
        except ValueError:
            continue
        if result.max_vertex <= cap:
            out.append((params, result))
    return sorted(out, key=lambda move: (lex_key(move[1]), move[0]))


def moves(m, kind, cap):
    return {result for _, result in moves_with_params(m, kind, cap)}


@st.composite
def small_matchings(draw, max_vertex=9):
    """A random matching built by pairing a shuffled prefix of 1..max_vertex."""
    vertices = draw(st.permutations(list(range(1, max_vertex + 1))))
    pairs = draw(st.integers(min_value=0, max_value=max_vertex // 2))
    edges = tuple(
        (vertices[2 * k], vertices[2 * k + 1]) for k in range(pairs)
    )
    return Matching(edges)


def test_edges_normalized_and_sorted():
    m = Matching(((5, 1), (2, 3)))
    assert m.edges == ((1, 5), (2, 3))
    assert m == Matching(((2, 3), (1, 5)))


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Matching(((2, 2),))
    with pytest.raises(ValueError):
        Matching(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Matching(((0, 3),))


def test_from_text_names_the_bad_token():
    with pytest.raises(ValueError, match="'2'"):
        Matching.from_text("1-5 2")
    with pytest.raises(ValueError, match="'1-x'"):
        Matching.from_text("1-x")
    with pytest.raises(ValueError, match="reused"):
        Matching.from_text("1-5 1-6")


def test_text_round_trip():
    text = "1-5 2-3 4-8 6-7"
    m = Matching.from_text(text)
    assert m.to_text() == text
    assert str(m) == text
    assert Matching.from_text("") == Matching(())


def test_max_vertex():
    assert Matching(()).max_vertex == 0
    # the largest vertex need not sit on the last edge in sorted order
    assert Matching(((1, 8), (2, 3))).max_vertex == 8
    assert Matching.from_text("1-5 2-3").max_vertex == 5


def test_partner_lookup():
    m = Matching.from_text("1-5 2-3")
    assert m.partner_map == {1: 5, 5: 1, 2: 3, 3: 2}
    assert m.partner_map.get(4) is None
    assert sorted(m.partner_map) == [1, 2, 3, 5]


def test_nested_pair_below_crossing_pair():
    nested = Matching.from_text("1-4 2-3")
    crossing = Matching.from_text("1-3 2-4")
    assert lex_key(nested) < lex_key(crossing)


def test_fewer_edges_come_first():
    assert lex_key(Matching(())) < lex_key(Matching.from_text("7-9"))
    assert lex_key(Matching.from_text("1-9")) < lex_key(Matching.from_text("1-2 3-4"))


def test_lex_key_linearly_orders_small_matchings():
    keys = [lex_key(m) for m in matchings_cap(6)]
    assert len(set(keys)) == len(keys)
    for k1 in keys:
        for k2 in keys:
            assert k1 <= k2 or k2 <= k1


def test_is_intertwined():
    assert is_intertwined(Matching.from_text("1-2"))
    assert is_intertwined(Matching.from_text("1-4 2-3"))
    assert is_intertwined(Matching.from_text("1-5 2-6 3-4"))
    assert not is_intertwined(Matching(()))
    assert not is_intertwined(Matching.from_text("1-2 3-4"))
    assert not is_intertwined(Matching.from_text("1-3 2-5 4-6"))
    # not perfect: a gap below the max vertex
    assert not is_intertwined(Matching.from_text("1-4"))


def test_add_edge_moves():
    m = Matching.from_text("1-3")
    assert moves(m, "Ia", 5) == {
        Matching.from_text("1-3 2-4"),
        Matching.from_text("1-3 2-5"),
        Matching.from_text("1-3 4-5"),
    }
    assert moves(Matching(()), "Ia", 2) == {
        Matching.from_text("1-2")
    }


def test_slide_moves():
    assert moves(Matching.from_text("1-2"), "Ib", 3) == {
        Matching.from_text("1-3")
    }
    assert moves(
        Matching.from_text("1-2 4-5"), "Ib", 6
    ) == {
        Matching.from_text("1-3 4-5"),
        Matching.from_text("1-2 4-6"),
    }
    # no room below the cap, no slide
    assert moves(Matching.from_text("1-2"), "Ib", 2) == set()


def test_uncross_nested_pair():
    assert moves(Matching.from_text("1-4 2-3"), "IIa", 4) == {
        Matching.from_text("1-3 2-4")
    }


def test_nested_rearrangements_with_a_spectator_edge():
    m = Matching.from_text("1-6 2-5 3-4")
    assert moves(m, "IIa", 6) == {
        Matching.from_text("1-5 2-6 3-4"),
        Matching.from_text("1-4 2-5 3-6"),
        Matching.from_text("1-6 2-4 3-5"),
    }


def test_nested_rearrangement_blocked_by_low_partner():
    # vertex 3 sits between 2 and 4 and is matched down at 1, below c = 5
    m = Matching.from_text("1-3 2-6 4-5")
    assert moves(m, "IIa", 6) == set()


def test_crossing_rearrangement():
    assert moves(Matching.from_text("1-3 2-4"), "IIb", 4) == {
        Matching.from_text("1-2 3-4")
    }


def test_crossing_rearrangement_interval_condition():
    # vertex 4 lies between 3 and 6 and is matched at 5 <= 6: blocked
    blocked = Matching.from_text("1-6 3-7 4-5")
    assert moves(blocked, "IIb", 7) == set()
    # matching 4 past the interval bound unblocks two rearrangements
    free = Matching.from_text("1-6 3-7 4-8")
    assert moves(free, "IIb", 8) == {
        Matching.from_text("1-3 4-8 6-7"),
        Matching.from_text("1-4 3-7 6-8"),
    }


def test_moves_reject_a_cap_below_the_matching():
    with pytest.raises(ValueError, match="vertex_cap"):
        moves_with_params(Matching.from_text("1-5"), "Ia", 4)
    for kind in ("Ix", 1):
        with pytest.raises(ValueError, match="unknown move kind"):
            moves_with_params(Matching.from_text("1-5"), kind, 6)


def test_moves_are_sorted_and_deterministic():
    # Ia and Ib come out in order without a sort; this pins that argument
    for cap in range(9):
        for m in matchings_cap(cap):
            for kind in MOVE_KINDS:
                moves = moves_with_params(m, kind, cap)
                assert moves == moves_with_params(m, kind, cap)
                keys = [(lex_key(result), params) for params, result in moves]
                assert all(x < y for x, y in zip(keys, keys[1:]))


def test_apply_move_matches_enumeration():
    # both directions: every generated move is legal, every legal move generated
    for cap in range(8):
        for m in matchings_cap(cap):
            for kind in MOVE_KINDS:
                assert moves_with_params(m, kind, cap) == tuple(legal_moves(m, kind, cap))


def test_apply_move_rejects_illegal_moves():
    m = Matching.from_text("1-4 2-3")
    with pytest.raises(ValueError, match="unmatched"):
        apply_move(m, "Ia", (1, 5))
    with pytest.raises(ValueError, match="must satisfy"):
        apply_move(m, "Ia", (6, 5))
    with pytest.raises(ValueError, match="not increasing"):
        apply_move(m, "IIa", (1, 3, 2, 4))
    with pytest.raises(ValueError, match="not present"):
        apply_move(m, "Ib", (1, 5, 1, 6))
    with pytest.raises(ValueError, match="slide"):
        apply_move(m, "Ib", (1, 4, 1, 6))
    with pytest.raises(ValueError, match="needs edges"):
        apply_move(m, "IIb", (1, 2, 3, 4))
    blocked = Matching.from_text("1-3 2-6 4-5")
    with pytest.raises(ValueError, match="matched at or below"):
        apply_move(blocked, "IIa", (2, 4, 5, 6))
    with pytest.raises(ValueError, match="unknown move kind 'bogus'"):
        apply_move(m, "bogus", ())


def test_word_bijection_examples():
    assert matching_to_word(Matching.from_text("1-5 2-6 3-4")) == Permutation((2, 1, 3))
    assert matching_to_word(Matching.from_text("1-5 2-4 3-6")) == Permutation((3, 1, 2))
    assert word_to_matching((2, 1, 3)) == Matching.from_text("1-5 2-6 3-4")
    assert word_to_matching((1,)) == Matching.from_text("1-2")


def test_word_bijection_round_trip():
    for n in range(1, 6):
        for letters in itertools.permutations(range(1, n + 1)):
            m = word_to_matching(letters)
            assert is_intertwined(m)
            assert matching_to_word(m).letters == letters


def test_word_conversion_rejects_bad_input():
    with pytest.raises(ValueError, match="not intertwined"):
        matching_to_word(Matching.from_text("1-2 3-4"))
    with pytest.raises(ValueError, match="not a permutation"):
        word_to_matching((1, 1))
    with pytest.raises(ValueError, match="not a permutation"):
        word_to_matching((2, 3))


def test_decompose_examples():
    assert decompose_intertwined(Matching.from_text("1-5 2-3 4-8 6-7")) == [
        Matching.from_text("1-5 2-3"),
        Matching.from_text("4-8 6-7"),
    ]
    assert decompose_intertwined(Matching.from_text("1-3 2-4")) == [
        Matching.from_text("1-3 2-4")
    ]
    # the sweep closes its first color at vertex 2 already
    assert decompose_intertwined(Matching.from_text("1-2 3-4")) == [
        Matching.from_text("1-2"),
        Matching.from_text("3-4"),
    ]


def test_decompose_rejects_non_perfect():
    with pytest.raises(ValueError, match="not perfect"):
        decompose_intertwined(Matching.from_text("1-3"))


def _relabel_to_initial_segment(m):
    order = {v: k + 1 for k, v in enumerate(sorted(m.partner_map))}
    return Matching(tuple((order[i], order[j]) for i, j in m.edges))


def test_decompose_pieces_partition_and_intertwine():
    for k in range(1, 5):
        for m in matchings_cap(2 * k):
            if m.partner_map.keys() != set(range(1, 2 * k + 1)):
                continue
            pieces = decompose_intertwined(m)
            seen = [e for piece in pieces for e in piece.edges]
            assert sorted(seen) == list(m.edges)
            for piece in pieces:
                assert is_intertwined(_relabel_to_initial_segment(piece))


def test_all_matchings_counts():
    # telephone numbers: T(n) = T(n-1) + (n-1) T(n-2)
    expected = [1, 1]
    for n in range(2, 9):
        expected.append(expected[-1] + (n - 1) * expected[-2])
    assert [len(matchings_cap(n)) for n in range(9)] == expected
    # a generator: the check runs on the first next
    with pytest.raises(ValueError, match="non-negative"):
        list(all_matchings(-1))


def test_all_matchings_distinct_and_bounded():
    seen = matchings_cap(6)
    assert len(set(seen)) == len(seen)
    assert all(m.max_vertex <= 6 for m in seen)


@given(small_matchings())
def test_text_round_trip_random(m):
    assert Matching.from_text(m.to_text()) == m


@given(small_matchings(), small_matchings())
def test_lex_key_separates_matchings(m1, m2):
    assert (lex_key(m1) == lex_key(m2)) == (m1 == m2)
