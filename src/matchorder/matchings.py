"""Matchings on positive integers and the local moves that rewrite them.

Four move kinds act on a matching: type Ia adds an edge between two
unmatched vertices, type Ib slides one endpoint of an edge up to an
adjacent unmatched vertex, and the two type II moves exchange a nested or
crossing pair of edges subject to an interval side condition.  A total
order on matchings (edge count first, then the edge lists compared right
to left) is what the moves strictly increase.  Searches run on its order
keys, the (larger, smaller) endpoint pairs largest first, which
``_successors`` yields in that order; nothing is kept between calls.

Intertwined perfect matchings, those pairing {1..n} against {n+1..2n},
correspond bijectively to permutations of [n]; the conversion functions
and the coloring sweep that splits an arbitrary perfect matching into
intertwined pieces live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .permutations import Permutation

__all__ = [
    "MOVE_KINDS",
    "Matching",
    "lex_key",
    "is_intertwined",
    "moves_with_params",
    "apply_move",
    "matching_to_word",
    "word_to_matching",
    "decompose_intertwined",
    "all_matchings",
]


# The four move kinds, named as a certificate step names them
MOVE_KINDS = ("Ia", "Ib", "IIa", "IIb")


@dataclass(frozen=True)
class Matching:
    """A finite set of disjoint edges between positive integers.

    Edges are normalized (smaller endpoint first) and stored sorted, so
    equal matchings compare and hash equal regardless of construction
    order.
    """

    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        seen: set[int] = set()
        normalized = []
        for edge in self.edges:
            i, j = edge
            if i == j:
                raise ValueError(f"edge {edge} joins a vertex to itself")
            if i > j:
                i, j = j, i
            if i < 1:
                raise ValueError(f"vertex {i} is not a positive integer")
            if i in seen or j in seen:
                raise ValueError(f"vertex reused by edge {edge}")
            seen.add(i)
            seen.add(j)
            normalized.append((i, j))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @cached_property
    def partner_map(self) -> dict[int, int]:
        partners: dict[int, int] = {}
        for i, j in self.edges:
            partners[i] = j
            partners[j] = i
        return partners

    @property
    def max_vertex(self) -> int:
        return max(j for _, j in self.edges) if self.edges else 0

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def from_text(cls, text: str) -> "Matching":
        """Parse whitespace-separated edge tokens like "1-5 2-3 4-8 6-7"."""
        edges = tuple(_parse_edge(token) for token in text.split())
        try:
            return cls(edges)
        except ValueError as exc:
            raise ValueError(f"bad matching {text!r}: {exc}") from None

    def to_text(self) -> str:
        return " ".join(f"{i}-{j}" for i, j in self.edges)


def _parse_edge(token: str) -> tuple[int, int]:
    """Read one edge token like "1-5", the form every edge list uses."""
    left, dash, right = token.partition("-")
    if dash:
        try:
            return (int(left), int(right))
        except ValueError:
            pass
    raise ValueError(f"bad edge token {token!r}")


def lex_key(m: Matching) -> tuple:
    """Sort key realizing the total order on matchings.

    Fewer edges come first.  Between equal counts the edge lists, each
    edge ordered by its larger endpoint and then its smaller one, are
    compared starting from the largest edge, which is the same as
    comparing the order keys lexicographically.
    """
    return (len(m.edges), _order_key(m))


def _order_key(m: Matching) -> tuple[tuple[int, int], ...]:
    """The (larger, smaller) endpoint pairs of m, largest first."""
    return tuple(sorted(((j, i) for i, j in m.edges), reverse=True))


def is_intertwined(m: Matching) -> bool:
    """Is m a perfect matching on {1..2n} pairing each low vertex high?"""
    n = len(m.edges)
    if n == 0:
        return False
    if m.max_vertex != 2 * n:
        return False
    return all(i <= n < j for i, j in m.edges)


def _interval_clear(m: Matching, lo: int, hi: int, bound: int) -> bool:
    """Every vertex strictly between lo and hi is unmatched or paired past bound.

    Only matched vertices can break this, so it walks the edges, not the
    interval: labels may be far larger than the matching.
    """
    return all(w > bound for v, w in m.partner_map.items() if lo < v < hi)


def _successors(key: tuple, kinds: Sequence[str], cap: int) -> Iterator:
    """Every single move from the matching whose order key is key, by kind.

    kinds are kind names, spelled as a certificate step spells them ("Ia",
    "Ib", "IIa", "IIb").  Yields ((kind, params), result key), each kind's
    results ascending in the total order; cap bounds every vertex a move
    may touch.  Every vertex of key must be at most cap: row marks a free
    vertex with cap + 1, so a vertex matched to cap + 1 would read as free.
    Why the order holds:

    - Ia adds (a, b) to a fixed edge set, so its results compare as (b, a)
      does: b runs upward, and the free vertices below b upward within it.
      The free list grows with b, so a consumer that stops early stops it.
    - Ib keeps every edge's rank (j + 1 is free, so below the next larger
      endpoint).  Sliding a larger edge changes an earlier entry, and
      (j, i + 1) < (j + 1, i): edges go smallest first, the i-slide first.
    - IIa and IIb come sorted from one pass over the pairs key[x] = (d, p)
      > key[y] = (c, q).  IIa (nested) gives (d, q) and (c, p) in the same
      ranks; IIb (crossing) gives (d, c) at rank x and (p, q), which sorts
      into key[y + 1 :] as p < c.
    """
    # row[v]: v's partner, or cap + 1 (past every bound) when free; sized by key
    top, free_mark = (key[0][0] if key else 0), cap + 1
    row = [free_mark] * (top + 2)
    for j, i in key:
        row[i] = j
        row[j] = i
    type_two = None
    for kind in kinds:
        if kind == "Ia":
            free: list[int] = []
            split = len(key)
            for b in range(1, cap + 1):
                if b <= top and row[b] != free_mark:
                    continue
                # key[:split] holds the edges whose larger endpoint exceeds b
                while split and key[split - 1][0] < b:
                    split -= 1
                head, tail = key[:split], key[split:]
                for a in free:
                    yield (kind, (a, b)), head + ((b, a),) + tail
                free.append(b)
        elif kind == "Ib":
            for k in range(len(key) - 1, -1, -1):
                j, i = key[k]
                head, tail = key[:k], key[k + 1 :]
                # i + 1 <= j, and i + 1 == j is matched, so i + 1 needs no cap test
                if row[i + 1] == free_mark:
                    yield (kind, (i, j, i + 1, j)), head + ((j, i + 1),) + tail
                if j + 1 <= cap and row[j + 1] == free_mark:
                    yield (kind, (i, j, i, j + 1)), head + ((j + 1, i),) + tail
        else:
            if type_two is None:
                type_two = nested, crossing = [], []  # IIa's, then IIb's
                for x, (d, p) in enumerate(key):
                    for y in range(x + 1, len(key)):
                        c, q = key[y]
                        if p < q:
                            if min(row[p + 1 : q], default=d) > c:
                                result = key[:x] + ((d, q),) + key[x + 1 : y]
                                result += ((c, p),) + key[y + 1 :]
                                nested.append((result, (p, q, c, d)))
                        elif p < c and min(row[p + 1 : c], default=d) > c:
                            tail = sorted(key[y + 1 :] + ((p, q),), reverse=True)
                            result = key[:x] + ((d, c),) + key[x + 1 : y] + tuple(tail)
                            crossing.append((result, (q, p, c, d)))
                nested.sort()
                crossing.sort()
            for result, params in type_two[kind == "IIb"]:
                yield (kind, params), result


def moves_with_params(
    m: Matching, kind: str, vertex_cap: int
) -> tuple[tuple[tuple[int, ...], Matching], ...]:
    """Every single move of one kind (a name in MOVE_KINDS) from m, as
    (params, result) pairs.

    Results are in the total order, so that searches built on top are
    deterministic.  vertex_cap bounds every vertex a move may touch and
    must cover m itself.
    """
    if kind not in MOVE_KINDS:
        raise ValueError(f"unknown move kind {kind!r}")
    if vertex_cap < m.max_vertex:
        raise ValueError(
            f"vertex_cap {vertex_cap} is below the matching's max vertex {m.max_vertex}"
        )
    return tuple(
        (params, Matching(tuple((i, j) for j, i in result)))
        for (_, params), result in _successors(_order_key(m), (kind,), vertex_cap)
    )


def apply_move(m: Matching, kind: str, params: Sequence[int]) -> Matching:
    """Apply one move of a kind named in MOVE_KINDS, validating its legality.

    No vertex cap applies, which is the setting certificates replay in.
    Raises ValueError on any illegal move.
    """
    params = tuple(params)
    edges = set(m.edges)
    if kind == "Ia":
        i, j = params
        if i >= j:
            raise ValueError(f"Ia endpoints must satisfy {i} < {j}")
        if i in m.partner_map or j in m.partner_map:
            raise ValueError(f"Ia endpoints {i}, {j} must both be unmatched")
        return Matching(m.edges + ((i, j),))
    if kind == "Ib":
        i, j, k, l = params
        if (i, j) not in edges:
            raise ValueError(f"Ib source edge {i}-{j} is not present")
        if (k, l) == (i + 1, j):
            moved = i + 1
        elif (k, l) == (i, j + 1):
            moved = j + 1
        else:
            raise ValueError(f"Ib target {k}-{l} is not a one-step slide of {i}-{j}")
        if moved in m.partner_map:
            raise ValueError(f"Ib target vertex {moved} is matched")
        rest = tuple(e for e in m.edges if e != (i, j))
        return Matching(rest + ((k, l),))
    if kind in ("IIa", "IIb"):
        a, b, c, d = params
        if not a < b < c < d:
            raise ValueError(f"quadruple {params} is not increasing")
        if kind == "IIa":
            if (a, d) not in edges or (b, c) not in edges:
                raise ValueError(f"IIa needs edges {a}-{d} and {b}-{c}")
            if not _interval_clear(m, a, b, c):
                raise ValueError(
                    f"a vertex between {a} and {b} is matched at or below {c}"
                )
            rest = tuple(e for e in m.edges if e not in ((a, d), (b, c)))
            return Matching(rest + ((a, c), (b, d)))
        if (a, c) not in edges or (b, d) not in edges:
            raise ValueError(f"IIb needs edges {a}-{c} and {b}-{d}")
        if not _interval_clear(m, b, c, c):
            raise ValueError(
                f"a vertex between {b} and {c} is matched at or below {c}"
            )
        rest = tuple(e for e in m.edges if e not in ((a, c), (b, d)))
        return Matching(rest + ((a, b), (c, d)))
    raise ValueError(f"unknown move kind {kind!r}")


def matching_to_word(m: Matching) -> Permutation:
    """The permutation encoding an intertwined perfect matching.

    Reading the high vertices 2n, 2n-1, ..., n+1 in that order, the word
    lists their low partners.
    """
    if not is_intertwined(m):
        raise ValueError(f"matching {m.to_text()!r} is not intertwined")
    n = len(m.edges)
    partners = m.partner_map
    return Permutation(tuple(partners[2 * n + 1 - j] for j in range(1, n + 1)))


def word_to_matching(w: Permutation | Iterable[int]) -> Matching:
    """Inverse of matching_to_word: letter w_j pairs with vertex 2n+1-j."""
    letters = tuple(w)
    n = len(letters)
    if sorted(letters) != list(range(1, n + 1)):
        raise ValueError(f"word {letters} is not a permutation of 1..{n}")
    return Matching(tuple((letters[j - 1], 2 * n + 1 - j) for j in range(1, n + 1)))


def decompose_intertwined(m: Matching) -> list[Matching]:
    """Split a perfect matching into intertwined pieces by a coloring sweep.

    Scan the vertices left to right.  A vertex opening an edge colors that
    edge with the current color.  The first vertex that closes an edge of
    the current color finishes the piece and starts the next color; later
    closers of finished colors are passed over.  Each returned piece is
    intertwined after its vertices are relabeled order-isomorphically, and
    the pieces partition the edges in color order.
    """
    k = len(m.edges)
    if m.partner_map.keys() != set(range(1, 2 * k + 1)):
        raise ValueError(f"matching {m.to_text()!r} is not perfect on an initial segment")
    color_of: dict[tuple[int, int], int] = {}
    pieces: list[list[tuple[int, int]]] = []
    current: list[tuple[int, int]] = []
    partners = m.partner_map
    for v in range(1, 2 * k + 1):
        u = partners[v]
        if v < u:
            edge = (v, u)
            color_of[edge] = len(pieces)
            current.append(edge)
        elif color_of[(u, v)] == len(pieces):
            pieces.append(current)
            current = []
    return [Matching(tuple(piece)) for piece in pieces]


def all_matchings(max_vertex: int) -> Iterator[Matching]:
    """Yield every matching on vertices 1..max_vertex, the empty one included."""
    if max_vertex < 0:
        raise ValueError("max_vertex must be non-negative")

    def rec(vertices: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not vertices:
            yield ()
            return
        first, rest = vertices[0], vertices[1:]
        yield from rec(rest)
        for idx, other in enumerate(rest):
            for sub in rec(rest[:idx] + rest[idx + 1 :]):
                yield ((first, other),) + sub

    for edges in rec(tuple(range(1, max_vertex + 1))):
        yield Matching(edges)
