"""Spans around the calls each matchorder module makes into the next layer.

Tracing changes no source: ``install`` replaces, in the calling module, the
name it imported (``matchorder.engine._swap_successors``,
``matchorder.cli.perm_leq``, ...) with a wrapper that records a span.
Names a later version no longer has are skipped and reported.

A span record is ``[name, start, end, parent, op, calls, total, out, states,
peak_bytes]``.  Outer layers (searches, verification, criteria, CLI calls)
get one record per call.  Hot leaf layers (successor generators, move
generators, lex_key, graph tests) run up to millions of times per run, so
their calls are folded into one record per (name, parent span): start is
the first call's, end the last call's, and calls, total and out are sums.
A record's self time is its total minus the totals of the records whose
parent it is.  A search that runs while tracemalloc is tracing also
records its tracemalloc peak above the level at its start.
"""

from __future__ import annotations

import json
import tracemalloc
from time import perf_counter

NAME, START, END, PARENT, OP, CALLS, TOTAL, OUT, STATES, PEAK = range(10)


class Tracer:
    def __init__(self):
        self.records: list[list] = []
        self.stack: list[int] = []
        self.folded: dict[tuple[str, int], int] = {}
        self.op = -1
        self.installed: list[str] = []
        self.missing: list[str] = []

    def _open(self, name: str, start: float) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.records.append([name, start, None, parent, self.op, 1, 0.0, 0, 0, None])
        index = len(self.records) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int, start: float) -> list:
        self.stack.pop()
        end = perf_counter()
        record = self.records[index]
        record[END] = end
        record[TOTAL] = end - start
        return record

    def span(self, name: str, fn, after=None, memory: bool = False):
        """One record per call; after(record, args, result) adds counts.
        With memory, while tracemalloc is tracing, the record's PEAK is
        the tracemalloc peak during the call above the level at its start;
        otherwise PEAK stays None."""

        def wrapper(*args, **kwargs):
            measured = memory and tracemalloc.is_tracing()
            if measured:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start = perf_counter()
            index = self._open(name, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                record = self._close(index, start)
            if measured:
                record[PEAK] = tracemalloc.get_traced_memory()[1] - base
            if after is not None:
                after(record, args, result)
            return result

        return wrapper

    def folded_span(self, name: str, fn, count_out: bool = True):
        """Calls folded into one record per parent; out sums len(result)."""
        records, stack, folded = self.records, self.stack, self.folded

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = folded.get((name, parent))
            start = perf_counter()
            if index is None:
                records.append([name, start, start, parent, self.op, 0, 0.0, 0, 0, None])
                index = folded[(name, parent)] = len(records) - 1
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = perf_counter()
                record = records[index]
                record[END] = end
                record[CALLS] += 1
                record[TOTAL] += end - start
            if count_out:
                record[OUT] += len(result)
            return result

        return wrapper

    def patch(self, module, attr: str, wrap) -> None:
        label = f"{module.__name__}.{attr}"
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(label)
            return
        setattr(module, attr, wrap(original))
        self.installed.append(label)

    def install(self) -> None:
        from matchorder import cli, engine, matchings, permgraphs, suites

        def search(name):
            def states(record, args, result):
                record[STATES] = result.states_explored

            return lambda fn: self.span(name, fn, states, memory=True)

        def verify(fn):
            def steps(record, args, result):
                record[OUT] = len(args[0].steps)

            return self.span("engine.verify_certificate", fn, steps)

        def folded(name, count_out=True):
            return lambda fn: self.folded_span(name, fn, count_out)

        # (calling module, the name it imported, wrapper)
        targets = [
            (module, attr, search(f"engine.{attr}"))
            for module in (cli, engine, suites)
            for attr in ("perm_leq", "matching_leq")
        ]
        targets += [(module, "verify_certificate", verify) for module in (cli, suites)]
        for module, attrs in ((engine, ("swap", "insertion", "rewrite")),
                              (suites, ("swap", "insertion"))):
            targets += [
                (module, f"_{attr}_successors", folded(f"permutations.{attr}_successors"))
                for attr in attrs
            ]
        targets += [
            (engine, "moves_with_params", folded("matchings.moves_with_params")),
            (suites, "moves_with_params", folded("matchings.moves_with_params")),
            (matchings, "lex_key", folded("matchings.lex_key", False)),
            (suites, "lex_key", folded("matchings.lex_key", False)),
            (suites, "_has_cycle_edges", folded("permgraphs.cycle_test", False)),
            (suites, "_components_edges", folded("permgraphs.components", False)),
            (permgraphs, "_canonical_order", folded("permgraphs.canonical_form", False)),
            (suites, "permutation_from_labeled", folded("permgraphs.from_labeled", False)),
            (permgraphs, "permutation_from_labeled", folded("permgraphs.from_labeled", False)),
        ]
        for module, attr, wrap in targets:
            self.patch(module, attr, wrap)

        generators = getattr(matchings, "_MOVE_GENERATORS", None)
        if generators is None:
            self.missing.append("matchorder.matchings._MOVE_GENERATORS")
        else:
            for kind, fn in list(generators.items()):
                generators[kind] = self.folded_span(f"matchings.moves.{kind.value}", fn)
            self.installed.append("matchorder.matchings._MOVE_GENERATORS")
        criteria = getattr(suites, "CRITERIA", None)
        if criteria is None:
            self.missing.append("matchorder.suites.CRITERIA")
        else:
            suites.CRITERIA = tuple(
                (label, self.span(f"suites.{label}", check)) for label, check in criteria
            )
            self.installed.append("matchorder.suites.CRITERIA")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record))
                handle.write("\n")


def self_times(records: list[list]) -> list[float]:
    """Each record's total minus the totals of its child records."""
    child = [0.0] * len(records)
    for record in records:
        if record[PARENT] >= 0:
            child[record[PARENT]] += record[TOTAL]
    return [record[TOTAL] - child[k] for k, record in enumerate(records)]
