"""Inversion graphs, canonical forms, recognition, and the fork family."""

import itertools
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from matchorder import permgraphs
from matchorder.permgraphs import (
    LabeledGraph,
    _block_ids,
    _inversion_pairs,
    _is_cyclic,
    canonical_form,
    connected_components,
    fork_graph,
    fork_permutation,
    from_dot,
    has_cycle,
    is_induced_subgraph,
    is_permutation_graph,
    is_subgraph,
    koh_ree_check,
    permutation_from_labeled,
    permutation_graph,
    to_dot,
)
from matchorder.permutations import Permutation


def pairwise_inversions(letters):
    """Reference lister: test every pair of values."""
    pos = {v: k for k, v in enumerate(letters)}
    n = len(letters)
    return [
        (i, j) for i in range(1, n) for j in range(i + 1, n + 1) if pos[i] > pos[j]
    ]


def complete(n):
    return LabeledGraph(n, tuple(itertools.combinations(range(1, n + 1), 2)))


def cycle(n):
    return LabeledGraph(n, tuple((i, i % n + 1) for i in range(1, n + 1)))


def all_graphs(n):
    slots = list(itertools.combinations(range(1, n + 1), 2))
    for bits in itertools.product((0, 1), repeat=len(slots)):
        yield LabeledGraph(n, tuple(e for e, bit in zip(slots, bits) if bit))


def brute_isomorphic(g, h):
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    target = set(g.edges)
    for image in itertools.permutations(range(1, g.n + 1)):
        mapping = dict(zip(range(1, g.n + 1), image))
        if all(
            tuple(sorted((mapping[i], mapping[j]))) in target for i, j in h.edges
        ):
            return True
    return False


@st.composite
def labeled_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    slots = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []
    return LabeledGraph(n, tuple(chosen))


def test_labeled_graph_normalization():
    g = LabeledGraph(4, ((3, 1), (1, 3), (2, 4)))
    assert g.edges == ((1, 3), (2, 4))
    assert g.neighbors[1] == frozenset({3})
    assert g.degree_sequence == (1, 1, 1, 1)


def test_labeled_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        LabeledGraph(3, ((2, 2),))
    with pytest.raises(ValueError, match="range"):
        LabeledGraph(3, ((1, 4),))
    with pytest.raises(ValueError, match="range"):
        LabeledGraph(3, ((0, 2),))
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        LabeledGraph(-1)


def test_graph_text_round_trip():
    text = "n=6; 1-4 2-4 3-4 3-5 3-6"
    g = LabeledGraph.from_text(text)
    assert g.to_text() == text
    assert LabeledGraph.from_text("n=4").to_text() == "n=4;"
    with pytest.raises(ValueError, match="n="):
        LabeledGraph.from_text("6; 1-2")
    with pytest.raises(ValueError, match="'1:2'"):
        LabeledGraph.from_text("n=3; 1:2")
    with pytest.raises(ValueError, match="bad vertex count token 'n=x'"):
        LabeledGraph.from_text("n=x;")


def test_canonical_form_agrees_with_brute_isomorphism_on_four_vertices():
    graphs = list(all_graphs(4))
    canon = [canonical_form(g) for g in graphs]
    for a in range(len(graphs)):
        for b in range(a + 1, len(graphs)):
            assert (canon[a] == canon[b]) == brute_isomorphic(graphs[a], graphs[b])


def test_canonical_class_counts():
    # unlabeled simple graph counts 1, 2, 4, 11, 34 for n = 1..5
    for n, classes in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34)):
        assert len({canonical_form(g) for g in all_graphs(n)}) == classes


@settings(max_examples=60)
@given(labeled_graphs(), st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(g, rng):
    image = list(range(1, g.n + 1))
    rng.shuffle(image)
    relabeled = LabeledGraph(g.n, tuple((image[i - 1], image[j - 1]) for i, j in g.edges))
    assert canonical_form(relabeled) == canonical_form(g)


def test_canonical_form_is_isomorphic_to_the_input():
    g = LabeledGraph(5, ((1, 2), (2, 3), (3, 4), (2, 5)))
    assert brute_isomorphic(canonical_form(g), g)


def test_permutation_graph_examples():
    assert permutation_graph(Permutation.from_text("412563")) == LabeledGraph.from_text(
        "n=6; 1-4 2-4 3-4 3-5 3-6"
    )
    assert permutation_graph(Permutation.from_text("3214")) == LabeledGraph.from_text(
        "n=4; 1-2 1-3 2-3"
    )
    assert permutation_graph(Permutation.from_text("123")).edges == ()


def test_characterization_check():
    assert koh_ree_check(LabeledGraph(3, ((1, 2), (2, 3)))) == (False, True)
    assert koh_ree_check(LabeledGraph(3, ((1, 3),))) == (True, False)
    assert koh_ree_check(complete(4)) == (True, True)
    assert koh_ree_check(LabeledGraph(4)) == (True, True)


def test_recovery_round_trip():
    for n in range(1, 6):
        for letters in itertools.permutations(range(1, n + 1)):
            p = Permutation(letters)
            assert permutation_from_labeled(permutation_graph(p)) == p


def _recover_by_precedence(g):
    """Recovery by counting, for each value, the values that precede it."""
    transitive, between = koh_ree_check(g)
    if not (transitive and between):
        raise ValueError(
            f"graph fails the inversion-set characterization "
            f"(transitive={transitive}, betweenness={between})"
        )
    edges = set(g.edges)

    def precedes(u, w):
        return (u, w) not in edges if u < w else (w, u) in edges

    count = {
        v: sum(1 for u in range(1, g.n + 1) if u != v and precedes(u, v))
        for v in range(1, g.n + 1)
    }
    if sorted(count.values()) != list(range(g.n)):
        raise ValueError("precedence relation does not linearize")
    letters = tuple(sorted(count, key=count.get))
    result = Permutation(letters)
    if set(pairwise_inversions(letters)) != edges:
        raise ValueError("recovered permutation does not reproduce the edge set")
    return result


def _outcome(recover, g):
    try:
        return recover(g)
    except ValueError as exc:
        return f"ValueError: {exc}"


@given(
    st.one_of(
        labeled_graphs(),
        st.integers(min_value=1, max_value=7).flatmap(
            lambda n: st.permutations(range(1, n + 1)).map(
                lambda letters: permutation_graph(Permutation(tuple(letters)))
            )
        ),
    )
)
def test_recovery_matches_the_pairwise_precedence_count(g):
    assert _outcome(permutation_from_labeled, g) == _outcome(_recover_by_precedence, g)


def test_recovery_matches_the_precedence_reference_on_every_graph_up_to_six_vertices():
    graphs = accepted = 0
    for n in range(7):
        for g in all_graphs(n):
            graphs += 1
            outcome = _outcome(permutation_from_labeled, g)
            assert outcome == _outcome(_recover_by_precedence, g), g
            accepted += isinstance(outcome, Permutation)
    assert (graphs, accepted) == (33868, 873)


def test_recovery_accepts_without_the_characterization_check(monkeypatch):
    def refuse(g):
        raise AssertionError("an inversion graph needs no characterization check")

    monkeypatch.setattr(permgraphs, "koh_ree_check", refuse)
    for n in range(1, 7):
        for letters in itertools.permutations(range(1, n + 1)):
            p = Permutation(letters)
            assert permutation_from_labeled(permutation_graph(p)) == p
    fork = fork_permutation(2000)
    assert permutation_from_labeled(permutation_graph(fork)) == fork


def test_recovery_is_fast_on_fork_2000():
    fork = fork_permutation(2000)
    graph = permutation_graph(fork)
    started = perf_counter()
    assert permutation_from_labeled(graph) == fork
    assert perf_counter() - started < 0.1


def test_recovery_rejects_failing_graphs():
    with pytest.raises(ValueError, match="transitive=False"):
        permutation_from_labeled(LabeledGraph(3, ((1, 2), (2, 3))))
    with pytest.raises(ValueError, match="betweenness=False"):
        permutation_from_labeled(LabeledGraph(3, ((1, 3),)))


def test_recognition():
    triangle = LabeledGraph(3, ((1, 2), (1, 3), (2, 3)))
    assert is_permutation_graph(triangle) == Permutation((3, 2, 1))
    # triangle plus an isolated vertex: the isolated vertex may sit anywhere
    assert is_permutation_graph(
        LabeledGraph.from_text("n=4; 1-2 1-3 2-3")
    ) == Permutation((1, 4, 3, 2))
    assert is_permutation_graph(cycle(4)) == Permutation((3, 4, 1, 2))
    assert is_permutation_graph(cycle(5)) is None


def graph_classes(n):
    """One graph per isomorphism class on n vertices, each with its orbit
    under relabeling.  A graph starts a new class exactly when no earlier
    orbit holds it, so no canonical form is involved."""
    relabelings = list(itertools.permutations(range(1, n + 1)))
    seen = set()
    for g in all_graphs(n):
        if g.edges in seen:
            continue
        orbit = [
            LabeledGraph(n, tuple((image[i - 1], image[j - 1]) for i, j in g.edges))
            for image in relabelings
        ]
        seen.update(h.edges for h in orbit)
        yield g, orbit


def test_recognition_agrees_with_a_brute_force_reference_on_one_to_six_vertices():
    # reference: some labeling passes both halves of the Koh and Ree check
    counts = []
    for n in range(1, 7):
        classes = recognized = 0
        for g, orbit in graph_classes(n):
            classes += 1
            expected = any(koh_ree_check(h) == (True, True) for h in orbit)
            witness = is_permutation_graph(g)
            assert (witness is not None) == expected, g
            if witness is not None:
                recognized += 1
                assert brute_isomorphic(permutation_graph(witness), g), g
        counts.append((classes, recognized))
    assert counts == [(1, 1), (2, 2), (4, 4), (11, 11), (34, 33), (156, 142)]


def test_recognition_respects_the_cap():
    with pytest.raises(ValueError, match="capped"):
        is_permutation_graph(LabeledGraph(9))
    assert is_permutation_graph(LabeledGraph(9), cap=9) == Permutation(
        tuple(range(1, 10))
    )


def test_fork_graph_shape():
    star = fork_graph(1)
    assert star.n == 5
    assert star.degree_sequence == (4, 1, 1, 1, 1)
    two_path = fork_graph(2)
    assert two_path.n == 6
    assert two_path.degree_sequence == (3, 3, 1, 1, 1, 1)
    for k in range(1, 7):
        g = fork_graph(k)
        assert len(g.edges) == k + 3
        assert not has_cycle(g)
        assert len(connected_components(g)) == 1
    with pytest.raises(ValueError):
        fork_graph(0)


def test_fork_graph_ignores_labeling():
    # same star, hub placed differently
    assert fork_graph(1) == canonical_form(
        LabeledGraph(5, ((3, 1), (3, 2), (3, 4), (3, 5)))
    )


def labeled_fork(n):
    """The value-labeled fork on a 2n-vertex path, spelled edge by edge.

    Leaves 1 and 2 hang off path vertex 4; the path then alternates
    4, 3, 6, 5, ..., 2n+2, 2n+1 and the far end 2n+1 carries leaves 2n+3
    and 2n+4.
    """
    edges = [(1, 4), (2, 4)]
    edges += [(2 * k + 1, 2 * k + 2) for k in range(1, n + 1)]
    edges += [(2 * k + 1, 2 * k + 4) for k in range(1, n)]
    edges += [(2 * n + 1, 2 * n + 3), (2 * n + 1, 2 * n + 4)]
    return LabeledGraph(2 * n + 4, tuple(edges))


def test_fork_labeled_and_permutation():
    assert fork_permutation(1) == Permutation.from_text("412563")
    assert fork_permutation(2) == Permutation.from_text("41263785")
    assert labeled_fork(1) == LabeledGraph.from_text("n=6; 1-4 2-4 3-4 3-5 3-6")
    for n in range(1, 201):
        p = fork_permutation(n)
        assert p == permutation_from_labeled(labeled_fork(n))
        assert permutation_graph(p) == labeled_fork(n)
    for n in range(1, 5):
        assert canonical_form(permutation_graph(fork_permutation(n))) == fork_graph(2 * n)
    with pytest.raises(ValueError, match="at least 1"):
        fork_permutation(0)


def test_inversion_pairs_match_the_pairwise_reference_on_s0_to_s7():
    for n in range(8):
        for letters in itertools.permutations(range(1, n + 1)):
            assert _inversion_pairs(letters) == pairwise_inversions(letters)


@given(
    st.integers(min_value=8, max_value=60).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    )
)
def test_inversion_pairs_match_the_pairwise_reference_on_longer_permutations(letters):
    letters = tuple(letters)
    assert _inversion_pairs(letters) == pairwise_inversions(letters)


def test_cycle_detection():
    assert has_cycle(complete(3))
    assert not has_cycle(LabeledGraph(4, ((1, 2), (2, 3), (3, 4))))
    assert not has_cycle(LabeledGraph(2))
    # a path, two isolated vertices, then a triangle: the cycle sits in the
    # last component, and the tree and isolated vertices must not hide it
    later = LabeledGraph.from_text("n=8; 1-2 2-3 6-7 6-8 7-8")
    assert has_cycle(later)
    assert not has_cycle(LabeledGraph.from_text("n=8; 1-2 2-3 6-7 7-8"))


def test_connected_components():
    g = LabeledGraph.from_text("n=6; 1-2 4-5")
    assert connected_components(g) == [
        frozenset({1, 2}),
        frozenset({3}),
        frozenset({4, 5}),
        frozenset({6}),
    ]


def assert_block_helpers_agree(letters):
    """Check both helpers against the general graph code on the same graph."""
    graph = LabeledGraph(len(letters), _inversion_pairs(letters))
    components = connected_components(graph)
    ids = [0] * (len(letters) + 1)
    for index, component in enumerate(components):
        for v in component:
            ids[v] = index
    spans = [(min(component), max(component)) for component in components]
    assert _block_ids(letters) == (ids, spans)
    assert _is_cyclic(letters) == has_cycle(graph)


def test_block_helpers_agree_with_graph_search_on_s1_to_s7():
    for n in range(1, 8):
        for letters in itertools.permutations(range(1, n + 1)):
            assert_block_helpers_agree(letters)


@given(
    st.integers(min_value=8, max_value=12).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    )
)
def test_block_helpers_agree_with_graph_search_on_longer_permutations(letters):
    assert_block_helpers_agree(tuple(letters))


def test_block_helper_examples():
    assert _block_ids(()) == ([0], [])
    assert _block_ids((2, 1, 3, 5, 6, 4)) == (
        [0, 0, 0, 1, 2, 2, 2],
        [(1, 2), (3, 3), (4, 6)],
    )
    assert not _is_cyclic((2, 1, 4, 3))
    assert _is_cyclic((3, 2, 1))
    assert _is_cyclic((3, 4, 1, 2))
    assert not _is_cyclic(fork_permutation(1).letters)


def test_subgraph_relations():
    path3 = LabeledGraph(3, ((1, 2), (2, 3)))
    assert is_subgraph(path3, complete(3))
    assert not is_induced_subgraph(path3, complete(3))
    assert is_induced_subgraph(path3, LabeledGraph(4, ((1, 2), (2, 3), (3, 4))))
    assert not is_subgraph(complete(3), cycle(5))


def test_forks_do_not_embed_in_each_other():
    two, four = fork_graph(2), fork_graph(4)
    assert not is_subgraph(two, four)
    assert not is_subgraph(four, two)


def test_rewritten_fork_start_sits_inside_the_larger_fork():
    inner = permutation_graph(Permutation.from_text("412635"))
    assert is_induced_subgraph(inner, fork_graph(4))


def test_subgraph_cap():
    with pytest.raises(ValueError, match="capped"):
        is_subgraph(LabeledGraph(2), LabeledGraph(11))


def test_dot_round_trip():
    g = LabeledGraph.from_text("n=4; 1-2 3-4")
    assert to_dot(g) == (
        "graph matching_order {\n  // edge-list: n=4; 1-2 3-4\n"
        "  1;\n  2;\n  3;\n  4;\n  1 -- 2;\n  3 -- 4;\n}"
    )
    assert from_dot(to_dot(g)) == g
    with pytest.raises(ValueError, match="comment"):
        from_dot("graph g { 1 -- 2; }")


@settings(max_examples=60)
@given(labeled_graphs())
def test_dot_round_trip_random(g):
    assert from_dot(to_dot(g)) == g
