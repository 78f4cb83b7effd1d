"""Seeded inputs and expected answers for the benchmark workloads.

A compare workload is a list of rounds that the closed loop cycles through.
Every round has the same make-up: a fixed number of seeded pairs of each
length class in a fixed order, with the workload's anchors spaced between
them.  An op is one ``matchorder`` command line plus the answer it must
give.  No answer comes from the package under test: the anchors carry the
answers the README states, and the seeded pairs are answered by the
reference decider in ``reference.py``, matching pairs through the word
bijection.

Seeded permutation pairs are chosen for their answer as well as their
cost, which takes the reference minutes per seed, so ``expected.json``
stores STORED_SETS of them with their answers; ``--seed`` picks set
seed mod STORED_SETS.  Matching pairs are cheap to answer and are drawn
and answered at run time.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
STORED_SETS = 12
EXPECTED_PATH = os.path.join(HERE, "expected.json")
REACH_PATH = os.path.join(HERE, "reach_sizes.json")

SEEDED = ("perm-compare", "matching-compare")
WORKLOADS = SEEDED + ("suite",)
LENGTH_CLASSES = ((3, 5), (4, 5), (4, 6), (5, 7), (6, 8))

# Compare runs do at least this many ops, so that ten lie beyond op_p90_ms.
MIN_OPS = 100
# About one round's time at the seed commit (2-vCPU VM, Python 3.11); a run
# does the whole number of rounds that lasts closest to --seconds there.
ROUND_SECONDS = {"perm-compare": 10.6, "matching-compare": 4.6, "suite": 18.0}

FORK1 = "412563"
FORK2 = "41263785"
FORK3 = "4,1,2,6,3,8,5,9,10,7"  # fork --n 3: the fork on a 6-vertex path
FORK_BUDGET = 5000
MATCHING_BUDGET = 10000


def _compare(kind: str, a: str, b: str, *flags: str, moves: str = "I,II") -> list[str]:
    return ["compare", "--kind", kind, "--moves", moves, *flags, "--format", "json", a, b]


# README: "compare --moves I,II 412563 41263785" is incomparable and becomes
# comparable with x:231-312; forks are pairwise incomparable under the
# built-in moves (fork 2->3 hits its budget before deciding at the seed
# commit, which counts as undecided); 2143 reaches 3142 and 34152; the three
# items form an antichain; "1-4 2-3" reaches "1-3 2-4".
_PERM_ANCHORS = [
    ("fork1-fork2", _compare("perm", FORK1, FORK2), "compare", False),
    ("fork1-fork2-231-312",
     _compare("perm", FORK1, FORK2, moves="I,II,x:231-312"), "compare", True),
    ("fork2-fork3-budget",
     _compare("perm", FORK2, FORK3, "--budget", str(FORK_BUDGET)), "compare", False),
    ("2143-3142", _compare("perm", "2143", "3142"), "compare", True),
    ("2143-34152", _compare("perm", "2143", "34152"), "compare", True),
    ("antichain", ["antichain", "--moves", "I,II", "--format", "json", FORK1, FORK2, "3142"],
     "antichain", "antichain"),
]
# The matching 3142 -> 426153 (29,550 states at the seed commit) has no
# stated answer; the reference answers it on the words.
_MATCHING_ANCHORS = [
    ("3142-426153", (3, 1, 4, 2), (4, 2, 6, 1, 5, 3)),
    ("readme-IIa", _compare("matching", "1-4 2-3", "1-3 2-4"), "compare", True),
]

_BUDGETED = ("--budget", str(MATCHING_BUDGET))
# One round: (length of a, length of b, extra flags) per seeded slot; the
# anchors are spread evenly between the slots.
_ROUND = {
    "perm-compare": ([(5, 7, ())] * 4 + [(6, 8, ())]) * 8,
    "matching-compare": ([(3, 5, ()), (4, 5, ())] * 4 + [(4, 6, _BUDGETED)]) * 4,
}
# Rounds stored per perm-compare input set; longer runs cycle through them.
_STORED_ROUNDS = 4


def rounds(name: str, seconds: int, traced: bool) -> int:
    """Whole rounds a run does.  The work is fixed by the workload and
    --seconds alone, never by how fast the program is, so every commit does
    the same ops and the matching runs never repeat a query (which would hit
    the move cache on every move).  A traced run does half the rounds,
    rounded up."""
    count = max(1, round(seconds / ROUND_SECONDS[name]))
    if name in SEEDED:
        count = max(count, math.ceil(MIN_OPS / round_ops(name)))
    return math.ceil(count / 2) if traced else count


def round_ops(name: str) -> int:
    """Ops in one round.  A suite round is one suite pass."""
    if name == "suite":
        return 1
    return len(_ROUND[name]) + len(_anchor_ops(name))


def _slots(name: str, count: int) -> list[tuple[int, int, tuple]]:
    return _ROUND[name] * count


def _van_der_corput(k: int) -> float:
    value, scale = 0.0, 1.0
    while k:
        k, bit = divmod(k, 2)
        scale /= 2
        value += bit * scale
    return value


@functools.cache
def _cost_order(m: int, n: int, side: int) -> list[tuple[int, ...]]:
    """S_m ordered by reachable-set size within length n (side 0, sources),
    or S_n ordered by inversion count (side 1, targets)."""
    if side == 0:
        with open(REACH_PATH, encoding="utf-8") as handle:
            sizes = json.load(handle)[f"{m}-{n}"]
        key = lambda p: (sizes[reference.perm_text(p)], p)  # noqa: E731
        return sorted(itertools.permutations(range(1, m + 1)), key=key)
    return sorted(itertools.permutations(range(1, n + 1)),
                  key=lambda p: (reference.inversions(p), p))


def _strata(name: str, seed: int, count: int):
    """Yield (m, n, k, a, b_stratum, rng) per seeded slot of count rounds,
    in op order.

    The words of a length class are stratified by what sets a query's
    cost: sources by the size of their reachable set, which an incomparable
    query explores in full, and targets by inversion count.  The class's
    k-th source sits at quantile (vdc(k) + s) mod 1 of its order and the
    k-th target in the stratum holding (vdc(k') + t) mod 1, where vdc is the
    base-2 van der Corput sequence, k' permutes k within each round, and s
    and t are seeded shifts.  Each round holds an aligned block of k for
    every class, so it takes one word from every stratum, and rounds of any
    seed do nearly the same work.  b_stratum is (low, width) in [0, 1).
    """
    rng = random.Random(f"{name}:{seed}")
    per_round: dict[tuple[int, int], int] = {}
    for m, n, _ in _ROUND[name]:
        per_round[(m, n)] = per_round.get((m, n), 0) + 1
    shifts = {cls: (rng.random(), rng.random()) for cls in sorted(per_round)}
    seen: dict[tuple[int, int], int] = {}
    for m, n, _ in _slots(name, count):
        k = seen[(m, n)] = seen.get((m, n), -1) + 1
        size = per_round[(m, n)]
        paired = k - k % size + (k % size * 5 + 1) % size
        shift_a, shift_b = shifts[(m, n)]
        sources = _cost_order(m, n, 0)
        a = sources[int((_van_der_corput(k) + shift_a) % 1.0 * len(sources))]
        u = (_van_der_corput(paired) + shift_b) % 1.0
        yield m, n, k, a, (int(u * size) / size, 1 / size), rng


def _target(m: int, n: int, stratum: tuple[float, float], rng: random.Random):
    """A uniformly random target from the stratum."""
    targets = _cost_order(m, n, 1)
    low, width = stratum
    return targets[int((low + rng.random() * width) * len(targets))]


def perm_pairs(set_index: int) -> list[tuple[tuple[int, ...], tuple[int, ...], bool]]:
    """Generate perm-compare's (a, b, answer) triples for one stored set.

    Besides the strata, each slot fixes its answer: every 6->8 pair is
    incomparable, so it explores its source's whole reachable set, and the
    5->7 pairs follow the Thue-Morse sequence, half comparable in every
    aligned block and so in every source stratum.  Targets are redrawn
    in the stratum until the reference gives the slot's answer, after 8
    misses from anywhere in S_n; after 32 the last draw stays, whatever
    its answer.
    """
    out = []
    for m, n, k, a, stratum, rng in _strata("perm-compare", set_index, _STORED_ROUNDS):
        want = (m, n) != (6, 8) and bin(k).count("1") % 2 == 1
        for attempt in range(32):
            b = _target(m, n, stratum if attempt < 8 else (0.0, 1.0), rng)
            answer = reference.leq(a, b)
            if answer == want:
                break
        out.append((a, b, answer))
    return out


def _matching_pairs(seed: int, count: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(a, _target(m, n, stratum, rng))
            for m, n, _, a, stratum, rng in _strata("matching-compare", seed, count)]


def _anchor_ops(name: str) -> list[dict]:
    if name == "perm-compare":
        return [{"label": label, "argv": argv, "kind": kind, "expect": expect}
                for label, argv, kind, expect in _PERM_ANCHORS]
    out = []
    for label, *rest in _MATCHING_ANCHORS:
        if len(rest) == 2:
            a, b = rest
            argv = _compare("matching", reference.word_matching_text(a),
                            reference.word_matching_text(b))
            rest = [argv, "compare", reference.leq(a, b)]
        argv, kind, expect = rest
        out.append({"label": label, "argv": argv, "kind": kind, "expect": expect})
    return out


def _stored_perm_pairs(seed: int):
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        rows = json.load(handle)["perm-compare"][str(seed % STORED_SETS)]
    for row in rows:
        a, b, answer = row.split()
        yield tuple(map(int, a)), tuple(map(int, b)), answer == "1"


def ops(name: str, seed: int, count: int) -> list[dict]:
    """The op list of count rounds of a workload; expect is the answer each
    op must give.  Perm-compare cycles through its stored rounds, and its
    searches share no state."""
    if name == "suite":
        return [{"label": "suite", "argv": ["suite", "--format", "json"],
                 "kind": "suite", "expect": "pass"}] * count
    if name == "perm-compare":
        kind, text, pairs = "perm", reference.perm_text, _stored_perm_pairs(seed)
    else:
        kind, text = "matching", reference.word_matching_text
        pairs = ((a, b, reference.leq(a, b)) for a, b in _matching_pairs(seed, count))
    anchors = _anchor_ops(name)
    size = len(_ROUND[name])
    out = []
    stored = list(zip(pairs, _slots(name, count)))
    for index in range(count * size):
        (a, b, answer), (_, _, flags) = stored[index % len(stored)]
        out.append({"label": f"{len(a)}-{len(b)}",
                    "argv": _compare(kind, text(a), text(b), *flags),
                    "kind": "compare", "expect": answer})
        position = index % size + 1
        spread = position * len(anchors) // size
        if spread > (position - 1) * len(anchors) // size:
            out.append(anchors[spread - 1])
    return out
