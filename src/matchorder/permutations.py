"""Permutations in one-line notation and the single-step moves between them.

A permutation of [n] is a tuple holding 1..n in some order, wrapped in
:class:`Permutation` for validation and parsing.  Each move has exactly
two forms.  The private generators ``_swap_successors``,
``_insertion_successors`` and ``_rewrite_successors`` work on bare letter
tuples, for speed, and return every move from a state as
``((kind, params), result)`` pairs in a fixed canonical order, kind being
the step name a certificate prints (``"swap"``, ``"insert"``,
``"rule"``): the ``(step, next)`` shape the shared breadth-first search in
``_search`` consumes and ``engine.Step(*step)`` builds.  A Bruhat cover is
no certificate move, so ``_bruhat_successors`` yields bare ``(params,
result)`` pairs, whose step ``bruhat_closure_leq``'s search ignores.  The
public ``apply_*`` functions apply one move with given parameters, as
certificate replay needs; they re-check its legality themselves and never
consult the generators, so each form can be tested against the other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ._search import bfs

__all__ = [
    "Permutation",
    "RewriteRule",
    "contains_pattern",
    "bruhat_closure_leq",
    "apply_swap",
    "apply_insertion",
    "apply_rewrite",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection of [n] in one-line notation."""

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        n = len(letters)
        if n < 1:
            raise ValueError("a permutation needs at least one letter")
        if sorted(letters) != list(range(1, n + 1)):
            raise ValueError(f"letters {letters} are not a permutation of 1..{n}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, index: int) -> int:
        return self.letters[index]

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse compact digits ("412563") or a comma list ("4,1,2,6,3,7,8,5").

        The compact form is only unambiguous for single-digit letters, so
        lengths of ten or more must use the comma form.
        """
        token = text.strip()
        if not token:
            raise ValueError("empty permutation literal")
        try:
            if "," in token:
                letters = tuple(int(part) for part in token.split(","))
            else:
                letters = tuple(int(ch) for ch in token)
        except ValueError:
            raise ValueError(f"bad permutation literal {token!r}") from None
        try:
            return cls(letters)
        except ValueError as exc:
            raise ValueError(f"bad permutation literal {token!r}: {exc}") from None

    def to_text(self) -> str:
        if len(self.letters) <= 9:
            return "".join(str(x) for x in self.letters)
        return ",".join(str(x) for x in self.letters)


@dataclass(frozen=True)
class RewriteRule:
    """A window rewrite: letters whose pattern is lhs get rearranged into rhs."""

    lhs: Permutation
    rhs: Permutation

    def __post_init__(self) -> None:
        if len(self.lhs) != len(self.rhs):
            raise ValueError("rewrite rule sides must have the same length")
        if self.lhs == self.rhs:
            raise ValueError("rewrite rule must change its window")

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def from_text(cls, text: str) -> "RewriteRule":
        """Parse "231-312" (each side in permutation text form)."""
        parts = text.strip().split("-")
        if len(parts) != 2:
            raise ValueError(f"bad rewrite rule {text!r}, expected lhs-rhs")
        return cls(Permutation.from_text(parts[0]), Permutation.from_text(parts[1]))

    def to_text(self) -> str:
        return f"{self.lhs.to_text()}-{self.rhs.to_text()}"


def _ranks(values: Sequence[int]) -> tuple[int, ...]:
    rank = {v: k + 1 for k, v in enumerate(sorted(values))}
    return tuple(rank[v] for v in values)


def _require_distinct(values: Sequence[int], what: str) -> tuple[int, ...]:
    letters = tuple(values)
    if len(set(letters)) != len(letters):
        raise ValueError(f"{what} letters must be distinct: {letters}")
    return letters


def contains_pattern(small: Iterable[int], big: Iterable[int]) -> bool:
    """Does big have a subsequence order isomorphic to small, letterwise >= it?

    Both arguments are distinct-letter words.  The subsequence must match
    small in relative order and each chosen letter must be at least the
    letter it matches.  For permutations the letterwise constraint is
    automatic; it only bites for words over a larger alphabet.
    """
    s = _require_distinct(tuple(small), "pattern")
    b = _require_distinct(tuple(big), "word")
    if len(s) > len(b):
        return False
    target = _ranks(s)
    for positions in itertools.combinations(range(len(b)), len(s)):
        vals = tuple(b[p] for p in positions)
        if all(v >= w for v, w in zip(vals, s)) and _ranks(vals) == target:
            return True
    return False


def _insertion_successors(
    letters: tuple[int, ...]
) -> list[tuple[tuple[str, tuple[int, int]], tuple[int, ...]]]:
    """All single-letter insertions as (("insert", (value, position)), result).

    Position is 1-based.  Existing letters >= value are shifted up by one.
    Ordered value-major, then by position.
    """
    n = len(letters)
    out = []
    for v in range(1, n + 2):
        shifted = tuple(x + 1 if x >= v else x for x in letters)
        for pos in range(1, n + 2):
            result = shifted[: pos - 1] + (v,) + shifted[pos - 1 :]
            out.append((("insert", (v, pos)), result))
    return out


def apply_insertion(p: Permutation, value: int, position: int) -> Permutation:
    """Insert value at the 1-based position, shifting letters >= value up."""
    n = len(p)
    if not 1 <= value <= n + 1:
        raise ValueError(f"insertion value {value} out of range 1..{n + 1}")
    if not 1 <= position <= n + 1:
        raise ValueError(f"insertion position {position} out of range 1..{n + 1}")
    shifted = tuple(x + 1 if x >= value else x for x in p.letters)
    return Permutation(shifted[: position - 1] + (value,) + shifted[position - 1 :])


def _swap_successors(
    letters: tuple[int, ...]
) -> list[tuple[tuple[str, tuple[int, int]], tuple[int, ...]]]:
    """All legal value swaps as (("swap", (i, j)), result), ordered by (i, j).

    Values i < j may swap when i sits before j and every value strictly
    between them sits before j's position.  For fixed i, reach is the
    furthest position among the values i..j-1, so (i, j) is legal exactly
    when j sits beyond reach, and then j becomes the furthest.
    """
    n = len(letters)
    pos = [0] * (n + 1)
    for k, v in enumerate(letters):
        pos[v] = k
    out = []
    for i in range(1, n):
        pi = reach = pos[i]
        for j in range(i + 1, n + 1):
            pj = pos[j]
            if pj > reach:
                reach = pj
                swapped = list(letters)
                swapped[pi], swapped[pj] = j, i
                out.append((("swap", (i, j)), tuple(swapped)))
    return out


def apply_swap(p: Permutation, i: int, j: int) -> Permutation:
    """Swap values i < j, enforcing the betweenness condition."""
    n = len(p)
    if not (1 <= i < j <= n):
        raise ValueError(f"swap values ({i}, {j}) out of range for length {n}")
    pos = {v: k for k, v in enumerate(p.letters)}
    if pos[i] >= pos[j]:
        raise ValueError(f"swap needs {i} positioned before {j}")
    if not all(pos[v] < pos[j] for v in range(i + 1, j)):
        raise ValueError(f"a value between {i} and {j} sits after {j}")
    swapped = list(p.letters)
    swapped[pos[i]], swapped[pos[j]] = j, i
    return Permutation(tuple(swapped))


def _bruhat_successors(
    letters: tuple[int, ...]
) -> list[tuple[tuple[int, int], tuple[int, ...]]]:
    """One-swap covers as ((i, j), result) pairs: swap i < j (i before j)
    when every value between them sits before i or after j.

    For fixed i, bound is the nearest position right of i's among the
    values i+1..j-1 (n when there is none), so (i, j) is a cover exactly
    when j sits right of i and left of bound, and then j becomes the
    nearest.
    """
    n = len(letters)
    pos = [0] * (n + 1)
    for k, v in enumerate(letters):
        pos[v] = k
    out = []
    for i in range(1, n):
        pi = pos[i]
        bound = n
        for j in range(i + 1, n + 1):
            pj = pos[j]
            if pi < pj < bound:
                bound = pj
                swapped = list(letters)
                swapped[pi], swapped[pj] = j, i
                out.append(((i, j), tuple(swapped)))
    return out


def bruhat_closure_leq(a: Permutation, b: Permutation) -> bool:
    """Is b reachable from a by repeated unconstrained-interval swaps?

    The swap rule here is looser than the one in apply_swap: the values
    between i and j may sit on either side of the pair, as long as none
    sits strictly between the two swapped positions.
    """
    if len(a) != len(b):
        raise ValueError("comparison needs equal lengths")
    return bfs(a.letters, _bruhat_successors, b.letters)[0]


def _rewrite_successors(
    letters: tuple[int, ...], rules: Sequence[RewriteRule]
) -> list[tuple[tuple[str, tuple[RewriteRule, int]], tuple[int, ...]]]:
    """All rule applications as (("rule", (rule, start)), result), start 1-based.

    A rule fires on every window of len(lhs) consecutive positions whose
    letters reduce to lhs; the window's letters are rearranged so they
    reduce to rhs.  Ordered by rule, then window position.
    """
    out = []
    for rule in rules:
        width = len(rule.lhs)
        lhs, rhs = rule.lhs.letters, rule.rhs.letters
        for start in range(len(letters) - width + 1):
            window = letters[start : start + width]
            if _ranks(window) == lhs:
                ordered = sorted(window)
                replacement = tuple(ordered[r - 1] for r in rhs)
                result = letters[:start] + replacement + letters[start + width :]
                out.append((("rule", (rule, start + 1)), result))
    return out


def apply_rewrite(p: Permutation, rule: RewriteRule, start: int) -> Permutation:
    """Apply rule at the window beginning at 1-based position start."""
    width = len(rule.lhs)
    if not 1 <= start <= len(p) - width + 1:
        raise ValueError(f"window start {start} out of range for rule {rule.to_text()}")
    window = p.letters[start - 1 : start - 1 + width]
    if _ranks(window) != rule.lhs.letters:
        raise ValueError(
            f"window at {start} does not match the left side of {rule.to_text()}"
        )
    ordered = sorted(window)
    replacement = tuple(ordered[r - 1] for r in rule.rhs.letters)
    return Permutation(p.letters[: start - 1] + replacement + p.letters[start - 1 + width :])
