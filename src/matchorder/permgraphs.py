"""Inversion graphs of permutations and small-graph machinery around them.

The graph of a permutation has the values 1..n as vertices and an edge for
every inversion, recorded on values (edge (i, j) means the values i and j
appear out of order).  Such graphs are exactly the graphs whose edge sets
are transitive and satisfy a betweenness condition, the Koh and Ree
characterization.  Recovery needs neither property: a position formula
reads the permutation off a labeled graph, and the round trip through its
inversion set accepts it, in O(n log n + |E|).  The two properties only
name what a rejected graph lacks.  Forks need no recovery:
``fork_permutation`` is a closed form.

Everything in scope is tiny (a couple dozen vertices at most), so the
questions about graphs up to isomorphism are answered by direct search.
A graph up to isomorphism is its ``canonical_form``, the LabeledGraph
relabeled by a pruned exhaustive search, so two graphs are isomorphic
exactly when their canonical forms are equal.  Recognition scans S_n, and
the subgraph tests are backtracking injections.

For the graph of a permutation two questions need no graph at all.  Its
connected components are the prefix-maximum blocks of the one-line word:
position k closes a block exactly when max(p1..pk) = k, so each block
holds an interval of values (Koh and Ree, "Connected permutation graphs",
Discrete Math. 307, 2007).  And a graph is a forest exactly when
|E| = n - #components, so the graph has a cycle exactly when the
inversion count exceeds n minus the block count.  ``_graph_shape`` reads
the inversion count and the block ends off the letters in one pass.  For
general graphs ``connected_components`` runs the shared breadth-first
search from ``_search`` once per component, and ``has_cycle`` applies the
same forest count to its result.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property

from ._search import bfs
from .matchings import _parse_edge
from .permutations import Permutation

__all__ = [
    "LabeledGraph",
    "canonical_form",
    "permutation_graph",
    "koh_ree_check",
    "permutation_from_labeled",
    "is_permutation_graph",
    "fork_graph",
    "fork_permutation",
    "has_cycle",
    "connected_components",
    "is_subgraph",
    "is_induced_subgraph",
    "to_dot",
    "from_dot",
]

SUBGRAPH_VERTEX_CAP = 10
RECOGNITION_DEFAULT_CAP = 8

_DOT_COMMENT_PREFIX = "// edge-list: "


@dataclass(frozen=True)
class LabeledGraph:
    """A simple graph on vertices 1..n with normalized, sorted edges."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        normalized = set()
        for edge in self.edges:
            i, j = edge
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            if i < 1 or j > self.n:
                raise ValueError(f"edge {edge} leaves the vertex range 1..{self.n}")
            normalized.add((i, j))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @cached_property
    def neighbors(self) -> dict[int, frozenset[int]]:
        adjacency: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adjacency[i].add(j)
            adjacency[j].add(i)
        return {v: frozenset(ns) for v, ns in adjacency.items()}

    @property
    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((len(ns) for ns in self.neighbors.values()), reverse=True))

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def from_text(cls, text: str) -> "LabeledGraph":
        """Parse "n=6; 1-4 2-4 3-4 3-5 3-6"."""
        body = text.strip()
        head, sep, rest = body.partition(";")
        head = head.strip()
        if not sep and " " not in head and head.startswith("n="):
            rest = ""
            sep = ";"
        if not sep or not head.startswith("n="):
            raise ValueError(f"bad graph literal {text!r}, expected n=<count>; edges")
        try:
            n = int(head[2:])
        except ValueError:
            raise ValueError(f"bad vertex count token {head!r}") from None
        return cls(n, tuple(_parse_edge(token) for token in rest.split()))

    def to_text(self) -> str:
        listing = " ".join(f"{i}-{j}" for i, j in self.edges)
        return f"n={self.n}; {listing}".rstrip()


def canonical_form(g: LabeledGraph) -> LabeledGraph:
    """g relabeled so that vertex k is the k-th of ``_canonical_order(g)``.

    Two graphs are isomorphic exactly when their canonical forms are equal,
    and the form is itself a relabeling of g.
    """
    new_label = {v: k + 1 for k, v in enumerate(_canonical_order(g))}
    return LabeledGraph(g.n, tuple((new_label[i], new_label[j]) for i, j in g.edges))


def _canonical_order(g: LabeledGraph) -> tuple[int, ...]:
    """A vertex order maximizing the blockwise adjacency encoding.

    Vertices are placed in descending-degree blocks.  At each step only the
    candidates whose adjacency bits against the placed prefix are maximal
    are explored, which keeps the search shallow; candidates that are twins
    (same neighborhood apart from each other) are interchangeable, so one
    representative stands in for the rest.  The encoding determines the
    relabeled edge set, so equal encodings mean isomorphic graphs; that
    relabeling is ``canonical_form``.
    """
    adjacency = g.neighbors
    by_degree: dict[int, list[int]] = {}
    for v in range(1, g.n + 1):
        by_degree.setdefault(len(adjacency[v]), []).append(v)
    blocks = [sorted(vs) for _, vs in sorted(by_degree.items(), reverse=True)]

    best_bits: tuple[int, ...] | None = None
    best_order: tuple[int, ...] | None = None
    placed: list[int] = []

    def dfs(blocks_left: list[list[int]], bits: tuple[int, ...]) -> None:
        nonlocal best_bits, best_order
        if best_bits is not None and bits < best_bits[: len(bits)]:
            return
        if not blocks_left:
            if best_bits is None or bits > best_bits:
                best_bits = bits
                best_order = tuple(placed)
            return
        cell = blocks_left[0]
        scored = [
            (tuple(1 if u in adjacency[v] else 0 for u in placed), v) for v in cell
        ]
        top = max(chunk for chunk, _ in scored)
        candidates = [v for chunk, v in scored if chunk == top]
        representatives: list[int] = []
        for v in candidates:
            if not any(
                adjacency[v] - {u} == adjacency[u] - {v} for u in representatives
            ):
                representatives.append(v)
        for v in representatives:
            remaining = [u for u in cell if u != v]
            placed.append(v)
            tail = ([remaining] if remaining else []) + blocks_left[1:]
            dfs(tail, bits + top)
            placed.pop()

    dfs(blocks, ())
    assert best_order is not None
    return best_order


def permutation_graph(p: Permutation) -> LabeledGraph:
    """The graph on values 1..n whose edges are the inversions of p."""
    return LabeledGraph(len(p), tuple(_inversion_pairs(p.letters)))


def _inversion_pairs(letters: tuple[int, ...]) -> list[tuple[int, int]]:
    """The sorted inversion pairs (i, j), i < j, of a permutation's letters.
    Each letter's larger predecessors are one slice of the sorted prefix."""
    seen: list[int] = []
    larger_before: list = [()] * (len(letters) + 1)
    for x in letters:
        k = bisect(seen, x)
        larger_before[x] = seen[k:]
        seen.insert(k, x)
    return [(i, j) for i, js in enumerate(larger_before) for j in js]


def koh_ree_check(g: LabeledGraph) -> tuple[bool, bool]:
    """(transitivity, betweenness) of the edge set.

    Transitivity: (i,j) and (j,k) edges force (i,k).  Betweenness: an edge
    (i,k) forces, for every i < j < k, at least one of (i,j) and (j,k).
    """
    edges = set(g.edges)
    transitive = True
    for i, j in edges:
        for k in range(j + 1, g.n + 1):
            if (j, k) in edges and (i, k) not in edges:
                transitive = False
                break
        if not transitive:
            break
    between = all(
        (i, j) in edges or (j, k) in edges
        for i, k in edges
        for j in range(i + 1, k)
    )
    return transitive, between


def permutation_from_labeled(g: LabeledGraph) -> Permutation:
    """Recover the unique permutation whose inversion set is g's edge set.

    Value v is preceded by the smaller values it is in order with and the
    larger values it is inverted with, so its 0-based position is
    v - 1 - #(smaller neighbours) + #(larger neighbours).  When those
    positions are 0..n-1, the permutation they spell is accepted exactly
    when its inversion set is g's edge set, in O(n log n + |E|).  An edge
    set passes the Koh and Ree check exactly when it is an inversion set,
    so ``koh_ree_check`` runs only on a rejected graph, to name the
    property it lacks.
    """
    n = g.n
    position = list(range(-1, n))  # position[v] starts at v - 1; slot 0 is unused
    for i, j in g.edges:
        position[i] += 1
        position[j] -= 1
    if sorted(position[1:]) == list(range(n)):
        letters = [0] * n
        for v in range(1, n + 1):
            letters[position[v]] = v
        if _inversion_pairs(letters) == list(g.edges):
            return Permutation(tuple(letters))
    transitive, between = koh_ree_check(g)
    raise ValueError(
        f"graph fails the inversion-set characterization "
        f"(transitive={transitive}, betweenness={between})"
    )


def is_permutation_graph(
    g: LabeledGraph, cap: int = RECOGNITION_DEFAULT_CAP
) -> Permutation | None:
    """Some permutation whose inversion graph is isomorphic to g, if any.

    Scans S_n in lexicographic order (so the returned witness is stable),
    filtering by edge count and degree sequence before comparing
    canonical forms.  Rejects graphs larger than cap vertices.
    """
    if g.n == 0:
        raise ValueError("recognition needs at least one vertex")
    if g.n > cap:
        raise ValueError(f"recognition is capped at {cap} vertices, got {g.n}")
    target = canonical_form(g)
    edge_count = len(g.edges)
    degrees = g.degree_sequence
    for letters in itertools.permutations(range(1, g.n + 1)):
        pairs = _inversion_pairs(letters)
        if len(pairs) != edge_count:
            continue
        candidate = LabeledGraph(g.n, tuple(pairs))
        if candidate.degree_sequence != degrees:
            continue
        if canonical_form(candidate) == target:
            return Permutation(letters)
    return None


def fork_graph(k: int) -> LabeledGraph:
    """The canonical form of the path on k vertices with two pendant leaves
    at each end.

    k + 4 vertices in total; for k = 1 both ends are the same vertex and
    the graph is a star with four leaves.
    """
    if k < 1:
        raise ValueError("the path needs at least one vertex")
    edges = [(i, i + 1) for i in range(1, k)]
    edges += [(1, k + 1), (1, k + 2), (k, k + 3), (k, k + 4)]
    return canonical_form(LabeledGraph(k + 4, tuple(edges)))


def fork_permutation(n: int) -> Permutation:
    """The length 2n+4 permutation whose inversion graph is the fork on a
    2n-vertex path: 4, 1, 2, then 2i+2, 2i-1 for i = 2..n, then 2n+3,
    2n+4, 2n+1.  That is the increasing oscillation 3, 1, 5, 2, 7, 4, ...
    of length 2n+2 with its end values 1 and 2n+2 each inflated to an
    increasing pair, the twin leaves at the path's ends: an anchored
    oscillation (R. Brignall, "A survey of simple permutations", 2010)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    letters = [4, 1, 2]
    for i in range(2, n + 1):
        letters += (2 * i + 2, 2 * i - 1)
    return Permutation(tuple(letters + [2 * n + 3, 2 * n + 4, 2 * n + 1]))


def has_cycle(g: LabeledGraph) -> bool:
    """Does g contain a cycle?  A graph is a forest exactly when
    |E| = n - #components."""
    return len(g.edges) > g.n - len(connected_components(g))


def connected_components(g: LabeledGraph) -> list[frozenset[int]]:
    """Vertex classes of the connectivity relation, ordered by least member."""
    neighbors = g.neighbors

    def successors(v: int):
        return (((v, w), w) for w in neighbors[v])

    components: list[frozenset[int]] = []
    placed: set[int] = set()
    for v in range(1, g.n + 1):
        if v not in placed:
            component = frozenset(bfs(v, successors)[1])
            placed |= component
            components.append(component)
    return components


def _graph_shape(letters: tuple[int, ...]) -> tuple[int, int]:
    """(inversions, cuts) of a permutation's inversion graph, in one pass.

    Bit k of ``cuts`` is set when position k closes a prefix-maximum block,
    that is when max(p1..pk) = k; bit 0 is unused.  The blocks are the
    graph's components, each an interval of values (Koh and Ree 2007), so
    - the component count is ``cuts.bit_count()``;
    - the graph has a cycle exactly when inversions > n - cuts.bit_count(),
      since a graph is a forest exactly when |E| = n - #components;
    - values i < j share a component exactly when no cut lies in i..j-1.
    A bitmask of the values already seen gives each letter's count of
    larger values to its left.
    """
    inversions = cuts = high = seen = 0
    for k, x in enumerate(letters, 1):
        inversions += (seen >> x).bit_count()
        seen |= 1 << x
        if x > high:
            high = x
        if high == k:
            cuts |= 1 << k
    return inversions, cuts


def _embeds(h: LabeledGraph, g: LabeledGraph, induced: bool) -> bool:
    if h.n > SUBGRAPH_VERTEX_CAP or g.n > SUBGRAPH_VERTEX_CAP:
        raise ValueError(f"subgraph search is capped at {SUBGRAPH_VERTEX_CAP} vertices")
    if h.n > g.n or len(h.edges) > len(g.edges):
        return False
    order = sorted(range(1, h.n + 1), key=lambda v: -len(h.neighbors[v]))
    image: dict[int, int] = {}
    used: set[int] = set()

    def place(k: int) -> bool:
        if k == len(order):
            return True
        u = order[k]
        for w in range(1, g.n + 1):
            if w in used or len(g.neighbors[w]) < len(h.neighbors[u]):
                continue
            ok = True
            for v, x in image.items():
                edge_h = v in h.neighbors[u]
                edge_g = x in g.neighbors[w]
                if edge_h and not edge_g:
                    ok = False
                    break
                if induced and not edge_h and edge_g:
                    ok = False
                    break
            if ok:
                image[u] = w
                used.add(w)
                if place(k + 1):
                    return True
                del image[u]
                used.remove(w)
        return False

    return place(0)


def is_subgraph(h: LabeledGraph, g: LabeledGraph) -> bool:
    """Does g contain a copy of h (extra edges allowed on the image)?"""
    return _embeds(h, g, induced=False)


def is_induced_subgraph(h: LabeledGraph, g: LabeledGraph) -> bool:
    """Does g contain a copy of h with non-edges preserved as well?"""
    return _embeds(h, g, induced=True)


def to_dot(g: LabeledGraph) -> str:
    """Render as DOT, embedding the edge-list text in a comment so the
    output can be parsed back."""
    lines = ["graph matching_order {"]
    lines.append(f"  {_DOT_COMMENT_PREFIX}{g.to_text()}")
    for v in range(1, g.n + 1):
        lines.append(f"  {v};")
    for i, j in g.edges:
        lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines)


def from_dot(text: str) -> LabeledGraph:
    """Recover the graph from the edge-list comment to_dot embeds."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(_DOT_COMMENT_PREFIX):
            return LabeledGraph.from_text(stripped[len(_DOT_COMMENT_PREFIX) :])
    raise ValueError("no edge-list comment found in DOT input")
