"""Command-line front end.

Subcommands: compare, antichain, fork, graph, decompose, recognize,
verify, suite.  Exit codes: 0 for any definite answer (incomparable and
invalid-certificate included), 1 for usage or parse problems, 2 when a
search hit its state budget, 3 when the suite command finds a failing
criterion.

Every ``_cmd_*`` handler takes the parsed arguments and returns
``(code, doc, lines)``: the exit code, the JSON-ready document that
``--format json`` prints on one line, and the lines every other format
prints.  Handlers write nothing; ``main`` alone writes stdout, and turns a
usage or ``ValueError`` problem into one ``error:`` line on stderr.

The graph commands (fork, graph, recognize) import ``permgraphs``, and
suite imports ``suites``, inside their handlers, so the other commands
never load either module.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TextIO

from .engine import (
    BUDGET,
    DEFAULT_BUDGET,
    _SIDES,
    MoveSet,
    _decider,
    antichain_check,
    certificate_from_document,
    result_document,
    verify_certificate,
)
from .matchings import Matching, decompose_intertwined, word_to_matching
from .permutations import Permutation

__all__ = ["main", "build_parser"]


class _UsageError(ValueError):
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

    def command(name, func, help):
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(func=func)
        return cmd

    def search_command(name, func, help):
        cmd = command(name, func, help)
        cmd.add_argument("--kind", choices=tuple(_SIDES), default="perm")
        cmd.add_argument(
            "--moves",
            default="I,II",
            help="comma list: I, II, Ia, Ib, IIa, IIb, x:LHS-RHS (default I,II)",
        )
        cmd.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
        return cmd

    compare = search_command("compare", _cmd_compare, "decide a <= b under a move set")
    compare.add_argument("a")
    compare.add_argument("b")

    search_command(
        "antichain", _cmd_antichain, "check that no earlier item reaches a later one"
    ).add_argument("items", nargs="+")

    fork = command("fork", _cmd_fork, "emit a member of the fork family")
    fork.add_argument("--n", type=_positive, required=True)
    fork.add_argument(
        "--emit",
        choices=("perm", "graph", "matching"),
        default="perm",
        help="permutation, value-labeled graph, or the matching of its word",
    )

    graph = command("graph", _cmd_graph, "inversion graph of a permutation")
    graph.add_argument("perm")

    command(
        "decompose", _cmd_decompose, "split a perfect matching into intertwined pieces"
    ).add_argument("matching")

    recognize = command(
        "recognize", _cmd_recognize, "find a permutation realizing a graph, if any"
    )
    recognize.add_argument("--cap", type=_positive)
    recognize.add_argument("graph")

    command(
        "verify", _cmd_verify, "replay a certificate from a compare JSON document"
    ).add_argument(
        "path", nargs="?", default="-", help="JSON file, or - for stdin (default)"
    )

    command("suite", _cmd_suite, "run the exhaustive property suites").add_argument(
        "--criteria",
        default=None,
        help="comma list of criterion names to run (default: all)",
    )

    # every command prints text or JSON; the graph-valued ones also print DOT
    for name, cmd in sub.choices.items():
        dot = ("dot",) if name in ("fork", "graph") else ()
        cmd.add_argument("--format", choices=("text", "json", *dot), default="text")

    return parser


# how text output shows one search answer and an antichain verdict
_SHOWN = {True: "comparable", False: "incomparable", BUDGET: BUDGET}
_VERDICTS = {"antichain": "antichain", "comparable": "not an antichain", BUDGET: BUDGET}


def _cmd_compare(args):
    moves = MoveSet.from_names(args.moves)
    side = _SIDES[args.kind]
    a, b = side.from_text(args.a), side.from_text(args.b)
    result = _decider((a, b))(a, b, moves, args.budget)
    lines = [_SHOWN[result.comparable]]
    if result.comparable is True:
        lines += [step.to_text() for step in result.certificate.steps]
    code = 2 if result.comparable == BUDGET else 0
    return code, result_document(a, b, result), lines


def _cmd_antichain(args):
    moves = MoveSet.from_names(args.moves)
    items = [_SIDES[args.kind].from_text(text) for text in args.items]
    report = antichain_check(items, moves, args.budget)
    verdict = report.verdict
    pairs = [
        {"i": p.i + 1, "j": p.j + 1, "comparable": p.result.comparable}
        for p in report.pairs
    ]
    lines = [f"{p['i']} {p['j']} {_SHOWN[p['comparable']]}" for p in pairs]
    lines.append(_VERDICTS[verdict])
    code = 2 if verdict == BUDGET else 0
    return code, {"pairs": pairs, "verdict": verdict}, lines


def _graph_output(g, fmt: str):
    from .permgraphs import to_dot

    doc = {"n": g.n, "edges": [list(e) for e in g.edges]}
    return 0, doc, [to_dot(g) if fmt == "dot" else g.to_text()]


def _cmd_fork(args):
    from .permgraphs import fork_permutation, permutation_graph

    if args.format == "dot" and args.emit != "graph":
        raise ValueError("dot output is only available for --emit graph")
    perm = fork_permutation(args.n)
    if args.emit == "graph":
        return _graph_output(permutation_graph(perm), args.format)
    if args.emit == "matching":
        key, text = "matching", word_to_matching(perm).to_text()
    else:
        key, text = "permutation", perm.to_text()
    return 0, {key: text}, [text]


def _cmd_graph(args):
    from .permgraphs import permutation_graph

    g = permutation_graph(Permutation.from_text(args.perm))
    return _graph_output(g, args.format)


def _cmd_decompose(args):
    matching = Matching.from_text(args.matching)
    pieces = [piece.to_text() for piece in decompose_intertwined(matching)]
    return 0, {"pieces": pieces}, pieces


def _cmd_recognize(args):
    from .permgraphs import RECOGNITION_DEFAULT_CAP, LabeledGraph, is_permutation_graph

    graph = LabeledGraph.from_text(args.graph)
    witness = is_permutation_graph(graph, args.cap or RECOGNITION_DEFAULT_CAP)
    if witness is None:
        return 0, {"permutation": None}, ["not a permutation graph"]
    return 0, {"permutation": witness.to_text()}, [witness.to_text()]


def _cmd_verify(args):
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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"bad JSON document: {exc}") from None
    verdict = verify_certificate(certificate_from_document(doc))
    if verdict.ok:
        line = "valid"
    elif verdict.failed_step is None:
        line = f"invalid: {verdict.reason}"
    else:
        line = f"invalid at step {verdict.failed_step}: {verdict.reason}"
    report = {
        "valid": verdict.ok,
        "failed_step": verdict.failed_step,
        "reason": verdict.reason or None,
    }
    return 0, report, [line]


def _cmd_suite(args):
    from . import suites

    names = None
    if args.criteria is not None:
        names = [name.strip() for name in args.criteria.split(",") if name.strip()]
        if not names:
            raise ValueError(f"--criteria {args.criteria!r} names no criterion")
    results = suites.run_all(names=names)
    doc = {
        "results": [
            {
                "name": r.name,
                "passed": r.passed,
                "seconds": round(r.seconds, 2),
                "detail": r.detail,
            }
            for r in results
        ]
    }
    lines = [
        f"{r.name} {'pass' if r.passed else 'FAIL'} ({r.seconds:.1f}s): {r.detail}"
        for r in results
    ]
    return (0 if all(r.passed for r in results) else 3), doc, lines


def main(argv=None, stdout: TextIO | None = None) -> int:
    out = sys.stdout if stdout is None else stdout
    try:
        args = build_parser().parse_args(argv)
        code, doc, lines = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        lines = [json.dumps(doc)]
    for line in lines:
        print(line, file=out)
    return code


if __name__ == "__main__":
    sys.exit(main())
