"""Reachability deciders with replayable certificates.

Both deciders hand a per-query successor function over bare tuples (letter
tuples, matching order keys) to the shared breadth-first search in
``_search``; no state outlives a query.  Every move generator yields
``((kind, params), result)``, kind being the certificate's step name, so
the successor functions only choose generators and pass their items on.
The universe is finite by construction: the matching search is capped at
the target's largest vertex, never adds an edge to a state with the
target's edge count, and admits only states whose sorted matched-vertex
list, which no move lowers entrywise, still fits under the target's; the
permutation search only ever visits lengths between the two inputs.
Successors come in a fixed canonical order, so a query always returns
the same certificate.  The search keeps only parents, and ``Step``
objects are built only for the path that ``_search.path`` regenerates.

Termination therefore never depends on the order-theoretic facts the test
suites check; those are verified, not trusted.  A state budget turns
runaway queries into an explicit "budget" outcome that is never conflated
with incomparability.  Certificate replay goes through the ``apply_*``
validators, never through the successor generators the search uses.  The
side of a query or certificate is the type of its states; ``_SIDES`` maps
the side names of the CLI and result documents to those types.  Each step
kind is spelled once, in ``_STEP_KINDS``: its side, validator, text form
and param types drive ``Step``'s text both ways and replay's shape check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import le
from typing import Sequence

from ._search import BUDGET, bfs, path
from .matchings import (
    MOVE_KINDS,
    Matching,
    _order_key,
    _parse_edge,
    _successors,
    apply_move,
)
from .permutations import (
    Permutation,
    RewriteRule,
    _insertion_successors,
    _rewrite_successors,
    _swap_successors,
    apply_insertion,
    apply_rewrite,
    apply_swap,
)

__all__ = [
    "BUDGET",
    "DEFAULT_BUDGET",
    "MoveSet",
    "Step",
    "Certificate",
    "SearchResult",
    "VerificationResult",
    "AntichainReport",
    "matching_leq",
    "perm_leq",
    "verify_certificate",
    "antichain_check",
    "result_document",
    "certificate_from_document",
]

DEFAULT_BUDGET = 10**7

_SIDES = {"perm": Permutation, "matching": Matching}

# kind -> (side, the validator replay calls, text form, param types in order).
# In a text form each "{}" token is one param and each "{}-{}" token one
# edge, two params; every other token is literal.
_STEP_KINDS = {
    "Ia": (Matching, apply_move, "Ia {}-{}", (int, int)),
    "Ib": (Matching, apply_move, "Ib {}-{} -> {}-{}", (int, int, int, int)),
    "IIa": (Matching, apply_move, "IIa {} {} {} {}", (int, int, int, int)),
    "IIb": (Matching, apply_move, "IIb {} {} {} {}", (int, int, int, int)),
    "swap": (Permutation, apply_swap, "swap {} {}", (int, int)),
    "insert": (Permutation, apply_insertion, "insert {} @ {}", (int, int)),
    "rule": (Permutation, apply_rewrite, "rule {} @ {}", (RewriteRule, int)),
}


@dataclass(frozen=True)
class MoveSet:
    """Which single-step moves a reachability query may use.

    kinds are names from MOVE_KINDS and drive the matching-side search
    directly.  On the permutation side, single-letter insertions are
    available when both Ia and Ib are enabled, and swaps when IIa is.
    Extended rewrite rules act on permutations only.
    """

    kinds: frozenset[str] = frozenset()
    rules: tuple[RewriteRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", frozenset(self.kinds))
        object.__setattr__(self, "rules", tuple(self.rules))
        unknown = sorted(map(repr, self.kinds.difference(MOVE_KINDS)))
        if unknown:
            raise ValueError(f"unknown move kind {', '.join(unknown)}")
        if not self.kinds and not self.rules:
            raise ValueError("move set enables nothing")

    @classmethod
    def from_names(cls, text: str) -> "MoveSet":
        """Parse a comma list of move names.

        "I" enables both type I kinds, "II" both type II kinds; "Ia",
        "Ib", "IIa", "IIb" enable single kinds; "x:231-312" registers an
        extended rewrite rule.
        """
        kinds: set[str] = set()
        rules: list[RewriteRule] = []
        for raw in text.split(","):
            name = raw.strip()
            if name == "I":
                kinds.update(("Ia", "Ib"))
            elif name == "II":
                kinds.update(("IIa", "IIb"))
            elif name in MOVE_KINDS:
                kinds.add(name)
            elif name.startswith("x:"):
                rules.append(RewriteRule.from_text(name[2:]))
            else:
                raise ValueError(f"unknown move name {name!r}")
        return cls(frozenset(kinds), tuple(rules))


@dataclass(frozen=True)
class Step:
    """One recorded move.  params are 1-based vertex, value, or position
    numbers, except that a rule step's params are (RewriteRule, start);
    its text form still names the rule as "lhs-rhs".  Both text directions
    read the kind's form in _STEP_KINDS."""

    kind: str
    params: tuple

    def to_text(self) -> str:
        return _step_entry(self)[2].format(*self.params)

    @classmethod
    def from_text(cls, text: str) -> "Step":
        tokens = text.split()
        if not tokens:
            raise ValueError("empty step")
        entry = _STEP_KINDS.get(tokens[0])
        slots = entry[2].split() if entry else ()
        if len(slots) != len(tokens) or any(
            slot != token for slot, token in zip(slots, tokens) if "{" not in slot
        ):
            raise ValueError(f"bad step {text!r}")
        types, params = entry[3], []
        try:
            for slot, token in zip(slots, tokens):
                if slot == "{}-{}":
                    params += _parse_edge(token)
                elif slot == "{}":
                    param_type = types[len(params)]
                    params.append(
                        int(token) if param_type is int else param_type.from_text(token)
                    )
        except ValueError as exc:
            raise ValueError(f"bad step {text!r}: {exc}") from None
        return cls(tokens[0], tuple(params))


@dataclass(frozen=True)
class Certificate:
    """A replayable move sequence claiming to take start to end; the type
    of start, Matching or Permutation, is the side its steps replay on."""

    start: Matching | Permutation
    end: Matching | Permutation
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one reachability query.

    comparable is True, False, or the BUDGET sentinel; certificate is set
    exactly when comparable is True; states_explored counts every state
    the search added to its visited set, the start included.
    """

    comparable: bool | str
    certificate: Certificate | None
    states_explored: int


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failed_step: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PairOutcome:
    """Result for one ordered pair of an antichain query; indices 0-based."""

    i: int
    j: int
    result: SearchResult


@dataclass(frozen=True)
class AntichainReport:
    pairs: tuple[PairOutcome, ...] = field(default=())

    @property
    def verdict(self) -> str:
        """One of "antichain", "comparable", "budget"."""
        if any(p.result.comparable is True for p in self.pairs):
            return "comparable"
        if any(p.result.comparable == BUDGET for p in self.pairs):
            return BUDGET
        return "antichain"


def _decide(a, b, start, target, successors, admit, budget) -> SearchResult:
    """Search from start to target and certify a positive answer by its path."""
    outcome, parents = bfs(start, successors, target, admit, budget)
    certificate = None
    if outcome is True:
        steps = tuple(Step(*step) for step in path(parents, target, successors))
        certificate = Certificate(a, b, steps)
    return SearchResult(outcome, certificate, len(parents))


def matching_leq(
    a: Matching, b: Matching, moves: MoveSet, budget: int = DEFAULT_BUDGET
) -> SearchResult:
    """Decide whether moves can take a to b, with a certificate when so."""
    if moves.rules:
        raise ValueError("extended rewrite rules apply only to permutation queries")
    cap = b.max_vertex
    start, target = _order_key(a), _order_key(b)
    target_support = sorted(chain.from_iterable(target))

    def admit(key: tuple) -> bool:
        # Moves never lower the edge count (only a start can exceed the
        # target's; see full), nor the sorted matched-vertex list entrywise
        # (new vertices join, slides raise one, rearrangements keep it): a
        # state above the target's list, right-aligned, is dead.
        support = sorted(chain.from_iterable(key))
        return all(map(le, support, target_support[2 * (len(target) - len(key)) :]))

    # _successors needs every vertex of a state at most cap; the support test
    # in admit rejects any start whose largest vertex exceeds the target's
    if len(start) > len(target) or not admit(start):
        return SearchResult(False, None, 1)
    kinds = tuple(k for k in MOVE_KINDS if k in moves.kinds)
    # Ia adds an edge, so states with the target's edge count leave it out
    full = tuple(k for k in kinds if k != "Ia")

    def successors(key: tuple):
        return _successors(key, kinds if len(key) < len(target) else full, cap)

    return _decide(a, b, start, target, successors, admit, budget)


def perm_leq(
    a: Permutation, b: Permutation, moves: MoveSet, budget: int = DEFAULT_BUDGET
) -> SearchResult:
    """Decide whether moves can take a to b on the permutation side.

    Transitions are value swaps (enabled by IIa), single-letter insertions
    while shorter than the target (enabled by Ia and Ib together), and any
    extended rewrite rules.
    """
    start, target = a.letters, b.letters
    if len(start) > len(target):
        return SearchResult(False, None, 1)
    allow_swaps = "IIa" in moves.kinds
    allow_insertions = {"Ia", "Ib"} <= moves.kinds
    if len(start) < len(target) and not allow_insertions:
        # nothing grows the length except insertions
        return SearchResult(False, None, 1)
    target_len = len(target)

    def successors(current: tuple[int, ...]):
        if allow_swaps:
            yield from _swap_successors(current)
        if allow_insertions and len(current) < target_len:
            yield from _insertion_successors(current)
        if moves.rules:
            yield from _rewrite_successors(current, moves.rules)

    return _decide(a, b, start, target, successors, None, budget)


def _decider(items: Sequence[Matching] | Sequence[Permutation]):
    """The decider for items' side.  It is looked up at call time, so a
    wrapper patched over perm_leq or matching_leq sees every query."""
    if all(isinstance(item, Matching) for item in items):
        return matching_leq
    if all(isinstance(item, Permutation) for item in items):
        return perm_leq
    raise ValueError("items must be all matchings or all permutations")


def _step_entry(step: Step, state_type: type | None = None):
    """step's _STEP_KINDS entry, once its kind (a move of state_type's side,
    when given) and params fit it; anything else is a one-line ValueError."""
    kind, params = step.kind, step.params
    entry = _STEP_KINDS.get(kind) if isinstance(kind, str) else None
    if state_type is not None and not (entry and issubclass(state_type, entry[0])):
        side_name = "matching" if issubclass(state_type, Matching) else "permutation"
        raise ValueError(f"step kind {kind!r} is not a {side_name} move")
    if entry is None:
        raise ValueError(f"unknown step kind {kind!r}")
    if not isinstance(params, tuple) or tuple(map(type, params)) != entry[3]:
        raise ValueError(f"malformed step: kind {kind!r}, params {params!r}")
    return entry


def verify_certificate(certificate: Certificate) -> VerificationResult:
    """Replay a certificate step by step.

    Every step must be of its side's kinds, and its params a tuple of
    exactly the count and types _STEP_KINDS lists for its kind (a bool is
    not an int here); it is then validated through the owning module's
    single-step semantics.  The index of the first illegal or malformed
    step is reported, never raised, and a clean replay that lands somewhere
    other than the claimed end fails with failed_step None.
    """
    state = certificate.start
    for index, step in enumerate(certificate.steps):
        try:
            side, apply = _step_entry(step, type(state))[:2]
            args = (step.kind, step.params) if side is Matching else step.params
            state = apply(state, *args)
        except ValueError as exc:
            return VerificationResult(False, index, str(exc))
    if state != certificate.end:
        return VerificationResult(False, None, "end mismatch")
    return VerificationResult(True)


def antichain_check(
    items: Sequence[Matching] | Sequence[Permutation],
    moves: MoveSet,
    budget: int = DEFAULT_BUDGET,
) -> AntichainReport:
    """Test items[i] <= items[j] for every ordered pair i < j.

    The verdict is "antichain" when all those queries come back
    incomparable, that is, when no earlier item reaches a later one; a
    later item reaching an earlier one is not checked.  A budget outcome on
    any pair, with no comparable pair, makes the overall verdict "budget".
    """
    decide = _decider(items)
    pairs = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            pairs.append(PairOutcome(i, j, decide(items[i], items[j], moves, budget)))
    return AntichainReport(tuple(pairs))


def result_document(a, b, result: SearchResult) -> dict:
    """JSON-ready summary of a comparison.

    start and end ride along so the document is self-contained: the verify
    command can replay it without the original query.
    """
    return {
        "kind": next(name for name, side in _SIDES.items() if isinstance(a, side)),
        "start": a.to_text(),
        "end": b.to_text(),
        "comparable": result.comparable,
        "certificate": None
        if result.certificate is None
        else [step.to_text() for step in result.certificate.steps],
        "states_explored": result.states_explored,
    }


def certificate_from_document(doc: dict) -> Certificate:
    """Rebuild a certificate from a result document.

    Anything that is not shaped like result_document's output (a JSON
    object with string start and end and a list of step strings) is
    rejected with a one-line ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError(
            f"result document must be a JSON object, not {type(doc).__name__}"
        )
    try:
        kind = doc["kind"]
        start_text = doc["start"]
        end_text = doc["end"]
        steps_texts = doc["certificate"]
    except KeyError as exc:
        raise ValueError(f"result document is missing {exc}") from None
    if steps_texts is None:
        raise ValueError("result document carries no certificate")
    if not isinstance(steps_texts, list):
        raise ValueError(
            f"certificate must be a list of steps, not {type(steps_texts).__name__}"
        )
    for field, value in (("start", start_text), ("end", end_text)):
        if not isinstance(value, str):
            raise ValueError(f"{field} must be a string, not {type(value).__name__}")
    for index, text in enumerate(steps_texts):
        if not isinstance(text, str):
            raise ValueError(f"step {index} must be a string, not {type(text).__name__}")
    side = _SIDES.get(kind) if isinstance(kind, str) else None
    if side is None:
        raise ValueError(f"unknown certificate kind {kind!r}")
    start, end = side.from_text(start_text), side.from_text(end_text)
    return Certificate(start, end, tuple(Step.from_text(text) for text in steps_texts))
