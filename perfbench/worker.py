"""Closed-loop client: runs one workload's ops through ``matchorder.cli.main``.

Started by ``run.py`` in a fresh process per workload run, with a JSON spec
on stdin.  One op at a time, no threads.  An op is one command; a compare
op whose answer is positive also replays its document through ``verify``,
and the op's time covers both.  The worker runs every op of the list once,
in order.  Between ops it takes ``setup_samples`` set-up samples, spread
evenly over the run: each is a fresh process that imports ``matchorder.cli``
and builds its parser, so the samples see the same drift in machine speed
as the ops do.  A traced run turns tracemalloc on for every
``memory_every``-th op only, since it slows the process down several times
over.  Results go to ``result_path`` as JSON; ``run.py`` checks them.
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import traceback
from collections import Counter
from time import perf_counter

SETUP_CODE = """\
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import matchorder.cli
matchorder.cli.build_parser()
print(time.perf_counter() - started)
"""


def main() -> int:
    spec = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import matchorder
    from matchorder import cli

    source = os.path.join(spec["root"], "src", "matchorder")
    if os.path.dirname(os.path.abspath(matchorder.__file__)) != source:
        print(f"error: imported matchorder from {matchorder.__file__}, not {source}",
              file=sys.stderr)
        return 1

    tracer = None
    run_cli = cli.main
    if spec["trace"]:
        import tracemalloc

        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run_cli = tracer.span("cli", cli.main)

    def positive(text: str) -> bool:
        try:
            return json.loads(text).get("comparable") is True
        except (ValueError, AttributeError):
            return False

    def run_op(op: dict) -> dict:
        buffer = io.StringIO()
        code = run_cli(op["argv"], stdout=buffer)
        result = {"code": code, "out": buffer.getvalue()}
        if op["kind"] == "compare" and code == 0 and positive(result["out"]):
            stdin, sys.stdin = sys.stdin, io.StringIO(result["out"])
            try:
                buffer = io.StringIO()
                result["verify_code"] = run_cli(["verify", "--format", "json", "-"], stdout=buffer)
                result["verify_out"] = buffer.getvalue()
            finally:
                sys.stdin = stdin
        return result

    if tracer is not None:
        run_op = tracer.span("op", run_op)

    def sample_setup() -> float:
        done = subprocess.run(
            [sys.executable, "-s", "-c", SETUP_CODE, os.path.join(spec["root"], "src")],
            capture_output=True, text=True, check=True, timeout=60,
        )
        return float(done.stdout)

    ops = spec["ops"]
    samples = spec["setup_samples"]
    if samples:
        sample_setup()  # unmeasured: fills the bytecode cache
    # Sample j is taken before op round(j * len(ops) / (samples - 1)).
    at = Counter(round(j * len(ops) / (samples - 1)) for j in range(samples)) if samples else {}
    setup = []
    results = []
    for index in range(len(ops) + 1):
        setup += [sample_setup() for _ in range(at.get(index, 0))]
        if index == len(ops):
            break
        sampled = tracer is not None and spec["memory_every"] and index % spec["memory_every"] == 0
        if tracer is not None:
            tracer.op = index
        if sampled:
            tracemalloc.start()
        before = perf_counter()
        try:
            result = run_op(ops[index])
        except Exception:  # an op that crashes is counted failed; the loop goes on
            result = {"code": None, "out": "", "error": traceback.format_exc()}
        result["seconds"] = perf_counter() - before
        if sampled:
            tracemalloc.stop()
        results.append(result)

    cache_info = getattr(matchorder.matchings.moves_with_params, "cache_info", None)
    report = {
        "matchorder": matchorder.__file__,
        "setup": setup,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
        "cache": None if cache_info is None else cache_info()._asdict(),
    }
    if tracer is not None:
        tracer.dump(spec["spans_path"])
        report["installed"] = tracer.installed
        report["missing"] = tracer.missing
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
