"""Reference decider for the permutation order, independent of matchorder.

The benchmark checks the program's answers on seeded permutation pairs
against this module, and its answers on seeded matching pairs through the
word bijection (the agreement criterion A2 states).  Nothing here imports
the package under test.

Moves, as the package documents them for the permutation side under
``--moves I,II``:

- a value swap exchanges values i < j when i sits before j and every value
  strictly between them sits before j's position;
- an insertion adds one letter v (1 <= v <= n + 1) at any position, and
  every existing letter >= v goes up by one, so the result contains the
  old permutation as a pattern.

Search is breadth first, bounded by the target's length and pruned by the
inversion count: a swap of i < j adds the inversion (i, j) plus two for
every value between them that sits between their positions, and leaves all
other pairs as they were; an insertion keeps the relative order of the old
letters and so keeps every old inversion.  Neither move lowers the count,
so a state with more inversions than the target never reaches it.

Run as a script to rewrite the stored perm-compare input sets and their
answers (``expected.json``), one process per CPU, or the reachable-set
sizes the pair sampler orders sources by (``reach_sizes.json``); each takes
several minutes:

    python3 perfbench/reference.py --write
    python3 perfbench/reference.py --reach
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections import deque

Perm = tuple[int, ...]


def inversions(p: Perm) -> int:
    n = len(p)
    return sum(1 for x in range(n) for y in range(x + 1, n) if p[x] > p[y])


def swaps(p: Perm) -> list[Perm]:
    n = len(p)
    where = [0] * (n + 1)
    for k, v in enumerate(p):
        where[v] = k
    out = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            pi, pj = where[i], where[j]
            if pi < pj and all(where[v] < pj for v in range(i + 1, j)):
                q = list(p)
                q[pi], q[pj] = j, i
                out.append(tuple(q))
    return out


def insertions(p: Perm) -> list[Perm]:
    n = len(p)
    out = []
    for v in range(1, n + 2):
        shifted = tuple(x + 1 if x >= v else x for x in p)
        for k in range(n + 1):
            out.append(shifted[:k] + (v,) + shifted[k:])
    return out


def _explore(a: Perm, max_length: int, bound: int | None):
    """Yield every permutation the moves reach from a, a first, in
    breadth-first order, up to max_length letters and, when bound is set,
    at most bound inversions."""
    seen = {a}
    queue = deque((a,))
    while queue:
        p = queue.popleft()
        yield p
        nexts = swaps(p)
        if len(p) < max_length:
            nexts += insertions(p)
        for q in nexts:
            if q not in seen and (bound is None or inversions(q) <= bound):
                seen.add(q)
                queue.append(q)


def leq(a: Perm, b: Perm) -> bool:
    """Can swaps and insertions take a to b?"""
    bound = inversions(b)
    if len(a) > len(b) or inversions(a) > bound:
        return False
    return any(p == b for p in _explore(a, len(b), bound))


def reach_size(a: Perm, max_length: int) -> int:
    """How many permutations of length <= max_length the moves reach from a,
    a included.  An incomparable query explores exactly this many states."""
    return sum(1 for _ in _explore(a, max_length, None))


def perm_text(p: Perm) -> str:
    return "".join(map(str, p)) if len(p) <= 9 else ",".join(map(str, p))


def word_matching_text(word: Perm) -> str:
    """The intertwined matching of a word: letter w_j pairs with 2n + 1 - j."""
    n = len(word)
    edges = sorted((w, 2 * n - k) for k, w in enumerate(word))
    return " ".join(f"{i}-{j}" for i, j in edges)


def _stored_set(set_index: int) -> list[str]:
    import workloads

    return [f"{perm_text(a)} {perm_text(b)} {int(answer)}"
            for a, b, answer in workloads.perm_pairs(set_index)]


def main(argv=None) -> int:
    import multiprocessing

    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true",
                        help="rewrite the stored perm-compare input sets")
    action.add_argument("--reach", action="store_true", help="rewrite the reachable-set sizes")
    args = parser.parse_args(argv)
    if args.reach:
        sizes = {
            f"{m}-{n}": {perm_text(a): reach_size(a, n)
                         for a in itertools.permutations(range(1, m + 1))}
            for m, n in workloads.LENGTH_CLASSES
        }
        with open(workloads.REACH_PATH, "w", encoding="utf-8") as handle:
            json.dump(sizes, handle, indent=0, sort_keys=True)
            handle.write("\n")
        return 0
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        sets = pool.map(_stored_set, range(workloads.STORED_SETS))
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"perm-compare": {str(k): rows for k, rows in enumerate(sets)}}, handle,
                  indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
