"""Command-line front end.

Subcommands: compare, antichain, fork, graph, decompose, recognize,
verify, suite.  Exit codes: 0 for any definite answer (incomparable and
invalid-certificate included), 1 for usage or parse problems, 2 when a
search hit its state budget, 3 when the suite command finds a failing
criterion.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TextIO

from .engine import (
    BUDGET,
    DEFAULT_BUDGET,
    MoveSet,
    antichain_check,
    certificate_from_document,
    matching_leq,
    perm_leq,
    result_document,
    verify_certificate,
)
from .matchings import Matching, decompose_intertwined, word_to_matching
from .permgraphs import (
    LabeledGraph,
    UnlabeledGraph,
    fork_labeled,
    fork_permutation,
    is_permutation_graph,
    permutation_graph,
    to_dot,
)
from .permutations import Permutation

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main controls the code."""

    def error(self, message):
        raise _UsageError(message)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matchorder",
        description="Decide move-order comparability of matchings and "
        "permutations, and work with their inversion graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="decide a <= b under a move set")
    compare.add_argument("--kind", choices=("perm", "matching"), default="perm")
    compare.add_argument(
        "--moves",
        default="I,II",
        help="comma list: I, II, Ia, Ib, IIa, IIb, x:LHS-RHS (default I,II)",
    )
    compare.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    compare.add_argument("--format", choices=("text", "json"), default="text")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(func=_cmd_compare)

    antichain = sub.add_parser(
        "antichain", help="check that no earlier item reaches a later one"
    )
    antichain.add_argument("--kind", choices=("perm", "matching"), default="perm")
    antichain.add_argument("--moves", default="I,II")
    antichain.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    antichain.add_argument("--format", choices=("text", "json"), default="text")
    antichain.add_argument("items", nargs="+")
    antichain.set_defaults(func=_cmd_antichain)

    fork = sub.add_parser("fork", help="emit a member of the fork family")
    fork.add_argument("--n", type=_positive, required=True)
    fork.add_argument(
        "--emit",
        choices=("perm", "graph", "matching"),
        default="perm",
        help="permutation, value-labeled graph, or the matching of its word",
    )
    fork.add_argument("--format", choices=("text", "json", "dot"), default="text")
    fork.set_defaults(func=_cmd_fork)

    graph = sub.add_parser("graph", help="inversion graph of a permutation")
    graph.add_argument("--format", choices=("text", "json", "dot"), default="text")
    graph.add_argument("perm")
    graph.set_defaults(func=_cmd_graph)

    decompose = sub.add_parser(
        "decompose", help="split a perfect matching into intertwined pieces"
    )
    decompose.add_argument("--format", choices=("text", "json"), default="text")
    decompose.add_argument("matching")
    decompose.set_defaults(func=_cmd_decompose)

    recognize = sub.add_parser(
        "recognize", help="find a permutation realizing a graph, if any"
    )
    recognize.add_argument("--cap", type=_positive, default=8)
    recognize.add_argument("--format", choices=("text", "json"), default="text")
    recognize.add_argument("graph")
    recognize.set_defaults(func=_cmd_recognize)

    verify = sub.add_parser(
        "verify", help="replay a certificate from a compare JSON document"
    )
    verify.add_argument(
        "path", nargs="?", default="-", help="JSON file, or - for stdin (default)"
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=_cmd_verify)

    suite = sub.add_parser("suite", help="run the exhaustive property suites")
    suite.add_argument(
        "--max-n",
        type=_positive,
        default=7,
        help="length cap for the exhaustive permutation scans (default 7); "
        "the matching scan uses one more vertex than this",
    )
    suite.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
    suite.add_argument(
        "--criteria",
        default=None,
        help="comma list of criterion names to run (default: all)",
    )
    suite.add_argument("--format", choices=("text", "json"), default="text")
    suite.set_defaults(func=_cmd_suite)

    return parser


def _parse_items(kind: str, texts):
    if kind == "perm":
        return [Permutation.from_text(t) for t in texts]
    return [Matching.from_text(t) for t in texts]


def _cmd_compare(args, out: TextIO) -> int:
    moves = MoveSet.from_names(args.moves)
    a, b = _parse_items(args.kind, (args.a, args.b))
    decide = perm_leq if args.kind == "perm" else matching_leq
    result = decide(a, b, moves, args.budget)
    if args.format == "json":
        json.dump(result_document(args.kind, a, b, result), out)
        out.write("\n")
    elif result.comparable is True:
        print("comparable", file=out)
        for step in result.certificate.steps:
            print(step.to_text(), file=out)
    elif result.comparable is False:
        print("incomparable", file=out)
    else:
        print(BUDGET, file=out)
    return 2 if result.comparable == BUDGET else 0


def _cmd_antichain(args, out: TextIO) -> int:
    moves = MoveSet.from_names(args.moves)
    items = _parse_items(args.kind, args.items)
    report = antichain_check(items, moves, args.budget)
    verdict = report.verdict
    if args.format == "json":
        json.dump(
            {
                "pairs": [
                    {"i": p.i + 1, "j": p.j + 1, "comparable": p.result.comparable}
                    for p in report.pairs
                ],
                "verdict": verdict,
            },
            out,
        )
        out.write("\n")
    else:
        for p in report.pairs:
            shown = {True: "comparable", False: "incomparable"}.get(
                p.result.comparable, BUDGET
            )
            print(f"{p.i + 1} {p.j + 1} {shown}", file=out)
        print(
            {"antichain": "antichain", "comparable": "not an antichain"}.get(
                verdict, BUDGET
            ),
            file=out,
        )
    return 2 if verdict == BUDGET else 0


def _emit_graph(g, args, out: TextIO) -> int:
    labeled = g.representative if isinstance(g, UnlabeledGraph) else g
    if args.format == "dot":
        print(to_dot(g), file=out)
    elif args.format == "json":
        json.dump({"n": labeled.n, "edges": [list(e) for e in labeled.edges]}, out)
        out.write("\n")
    else:
        print(labeled.to_text(), file=out)
    return 0


def _cmd_fork(args, out: TextIO) -> int:
    if args.emit == "graph":
        return _emit_graph(fork_labeled(args.n), args, out)
    if args.format == "dot":
        raise ValueError("dot output is only available for --emit graph")
    perm = fork_permutation(args.n)
    if args.emit == "matching":
        text = word_to_matching(perm).to_text()
        payload = {"matching": text}
    else:
        text = perm.to_text()
        payload = {"permutation": text}
    if args.format == "json":
        json.dump(payload, out)
        out.write("\n")
    else:
        print(text, file=out)
    return 0


def _cmd_graph(args, out: TextIO) -> int:
    return _emit_graph(permutation_graph(Permutation.from_text(args.perm)), args, out)


def _cmd_decompose(args, out: TextIO) -> int:
    pieces = decompose_intertwined(Matching.from_text(args.matching))
    if args.format == "json":
        json.dump({"pieces": [piece.to_text() for piece in pieces]}, out)
        out.write("\n")
    else:
        for piece in pieces:
            print(piece.to_text(), file=out)
    return 0


def _cmd_recognize(args, out: TextIO) -> int:
    g = LabeledGraph.from_text(args.graph)
    witness = is_permutation_graph(g, args.cap)
    if args.format == "json":
        json.dump(
            {"permutation": None if witness is None else witness.to_text()}, out
        )
        out.write("\n")
    elif witness is None:
        print("not a permutation graph", file=out)
    else:
        print(witness.to_text(), file=out)
    return 0


def _cmd_verify(args, out: TextIO) -> int:
    if args.path == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.path, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as exc:
            reason = exc.strerror or exc
            raise ValueError(f"cannot read {args.path}: {reason}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON document: {exc}") from None
    verdict = verify_certificate(certificate_from_document(doc))
    if args.format == "json":
        json.dump(
            {
                "valid": verdict.ok,
                "failed_step": verdict.failed_step,
                "reason": verdict.reason or None,
            },
            out,
        )
        out.write("\n")
    elif verdict.ok:
        print("valid", file=out)
    elif verdict.failed_step is None:
        print(f"invalid: {verdict.reason}", file=out)
    else:
        print(f"invalid at step {verdict.failed_step}: {verdict.reason}", file=out)
    return 0


def _cmd_suite(args, out: TextIO) -> int:
    from . import suites

    names = None
    if args.criteria is not None:
        names = [name.strip() for name in args.criteria.split(",") if name.strip()]
        if not names:
            raise ValueError(f"--criteria {args.criteria!r} names no criterion")
    results = suites.run_all(names=names, max_n=args.max_n, budget=args.budget)
    if args.format == "json":
        json.dump(
            {
                "results": [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "seconds": round(r.seconds, 2),
                        "detail": r.detail,
                    }
                    for r in results
                ]
            },
            out,
        )
        out.write("\n")
    else:
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.name} {status} ({r.seconds:.1f}s): {r.detail}", file=out)
    return 0 if all(r.passed for r in results) else 3


def main(argv=None, stdout: TextIO | None = None) -> int:
    out = sys.stdout if stdout is None else stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
