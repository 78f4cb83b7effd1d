"""Benchmark of matchorder: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload perm-compare --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src``.  Each run starts a fresh worker process (worker.py)
that sends one op at a time through ``matchorder.cli.main``.  The work is a
fixed number of whole rounds, sized by ``--seconds`` to last that long at
the seed commit (workloads.py), so every version of the program does the
same ops.  Every answer is then checked here against answers that do not
come from the package (workloads.py).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` reruns with spans around each module's calls into the next
layer (tracer.py) and prints the per-layer metrics, then replays the same
ops untraced in another fresh process to give the tracing overhead.  The
last line of stdout is the JSON result; a full record of the run goes to
``.perfbench/`` at the checkout root.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from time import monotonic

import workloads
from tracer import CALLS, NAME, OUT, PARENT, PEAK, STATES, TOTAL, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "matchorder")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170
SETUP_SAMPLES = 31
MEMORY_EVERY = 8  # traced compare runs measure memory on every 8th op
CRITERIA = [f"A{k}" for k in range(1, 13)]


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = os.path.join(OUT_DIR, "tmp")  # the suite's A12 writes a temp file
    return env


def run_worker(spec: dict, deadline: float) -> dict:
    spec = dict(spec, root=ROOT, result_path=os.path.join(OUT_DIR, f"worker-{os.getpid()}.json"))
    done = subprocess.run(
        [sys.executable, "-s", os.path.join(HERE, "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True, env=child_env(),
        timeout=deadline - monotonic(),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with {done.returncode}")
    with open(spec["result_path"], encoding="utf-8") as handle:
        report = json.load(handle)
    os.unlink(spec["result_path"])
    report["stderr"] = done.stderr
    return report


def _load(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def check(op: dict, result: dict) -> str:
    """One of ok, undecided, wrong, error."""
    code, expect = result["code"], op["expect"]
    if code not in (0, 2, 3):
        return "error"
    doc = _load(result["out"])
    if not isinstance(doc, dict):
        return "error"
    if op["kind"] == "suite":
        rows = doc.get("results") or []
        if [row.get("name") for row in rows] != CRITERIA:
            return "wrong"
        passed = all(row.get("passed") is True for row in rows)
        return "ok" if passed and code == 0 else "wrong"
    if op["kind"] == "antichain":
        if code == 2:
            return "undecided" if doc.get("verdict") == "budget" else "wrong"
        pairs = doc.get("pairs") or []
        right = doc.get("verdict") == expect and len(pairs) == 3 and all(
            p.get("comparable") is False for p in pairs
        )
        return "ok" if code == 0 and right else "wrong"
    argv = op["argv"]
    if (doc.get("kind"), doc.get("start"), doc.get("end")) != (
        argv[argv.index("--kind") + 1], argv[-2], argv[-1]
    ):
        return "wrong"
    if code == 2:
        return "undecided" if doc.get("comparable") == "budget" else "wrong"
    if code != 0 or doc.get("comparable") is not expect:
        return "wrong"
    if expect is True:
        verdict = _load(result.get("verify_out", ""))
        if result.get("verify_code") != 0 or not isinstance(verdict, dict) or verdict.get("valid") is not True:
            return "wrong"
    return "ok"


def judge(ops: list[dict], results: list[dict]) -> list[str]:
    return [check(op, result) for op, result in zip(ops, results, strict=True)]


def quantile(values: list[float], p: float, steps: int = 20000) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics.  Op costs come in clusters, and
    a single order statistic jumps between them from run to run."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cdf = [0.0]
    for k in range(steps):
        t = (k + 0.5) / steps
        cdf.append(cdf[-1] + math.exp(norm + (a - 1) * math.log(t) + (b - 1) * math.log(1 - t)))
    weights = [cdf[i * steps // n] - cdf[(i - 1) * steps // n] for i in range(1, n + 1)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def end_to_end(name: str, report: dict, outcomes: list[str]) -> dict:
    """Times cover the whole run: the machine's speed drifts over tens of
    seconds, and the longest window steadies them most."""
    seconds = [r["seconds"] for r in report["ops"]]
    wall = sum(seconds)
    if name == "suite":
        rows = [row for r in report["ops"] for row in (_load(r["out"]) or {}).get("results", [])]
        decided = sum(row.get("passed") is True for row in rows) / max(len(rows), 1)
    else:
        decided = outcomes.count("ok") / len(outcomes)
    return {
        "setup_s": (statistics.median(report["setup"]), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (outcomes.count("ok") / wall, "1/s"),
        "op_p50_ms": (1000 * quantile(seconds, 0.5), "ms"),
        "op_p90_ms": (1000 * quantile(seconds, 0.9), "ms"),
        "decided_share": (decided, "ratio"),
        "peak_rss_mb": (report["maxrss_kb"] / 1024, "MB"),
    }


SEARCHES = ("engine.perm_leq", "engine.matching_leq")
GENERATORS = (
    "permutations.swap_successors",
    "permutations.insertion_successors",
    "permutations.rewrite_successors",
    "matchings.moves_with_params",
)
COUNTED = {
    "engine.perm_leq": ("calls", "self_s", "states", "states_per_s"),
    "engine.matching_leq": ("calls", "self_s", "states", "states_per_s"),
    "engine.verify_certificate": ("calls", "self_s", "steps"),
    **{g: ("calls", "self_s", "out") for g in GENERATORS},
    **{f"matchings.moves.{k}": ("calls", "self_s", "out") for k in ("Ia", "Ib", "IIa", "IIb")},
    "matchings.lex_key": ("calls", "self_s"),
    **{f"permgraphs.{k}": ("calls", "self_s")
       for k in ("cycle_test", "components", "canonical_form", "from_labeled")},
}
UNITS = {"calls": "count", "self_s": "s", "states": "count", "states_per_s": "1/s",
         "steps": "count", "out": "count"}


def per_layer(name: str, spans_path: str, traced: dict, replay: dict) -> dict:
    with open(spans_path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    selfs = self_times(records)
    layers = defaultdict(lambda: defaultdict(float))
    for record, own in zip(records, selfs):
        layer = layers[record[NAME]]
        layer["calls"] += record[CALLS]
        layer["self_s"] += own
        layer["total_s"] += record[TOTAL]
        layer["out"] += record[OUT]
        layer["steps"] += record[OUT]
        layer["states"] += record[STATES]
    for layer in layers.values():
        layer["states_per_s"] = layer["states"] / layer["total_s"] if layer["total_s"] else 0.0

    metrics = {}
    for layer, keys in COUNTED.items():
        for key in keys:
            value = layers[layer][key] if layer in layers else 0
            unit = UNITS[key]
            metrics[f"{layer}.{key}"] = (round(value) if unit == "count" else value, unit)

    searches = [r for r in records if r[NAME] in SEARCHES]
    admitted = sum(max(r[STATES] - 1, 0) for r in searches)
    generated = sum(
        r[OUT] for r in records
        if r[NAME] in GENERATORS and r[PARENT] >= 0 and records[r[PARENT]][NAME] in SEARCHES
    )
    sampled = [r for r in searches if r[PEAK] is not None]
    sampled_states = sum(r[STATES] for r in sampled)
    metrics["engine.admit_ratio"] = (admitted / generated if generated else 0.0, "ratio")
    metrics["engine.peak_bytes_per_state"] = (
        sum(r[PEAK] for r in sampled) / sampled_states if sampled_states else 0.0, "B/state"
    )

    cache = traced["cache"]
    hits, misses, entries = (
        (cache["hits"], cache["misses"], cache["currsize"]) if cache else (0, 0, 0)
    )
    metrics["matchings.move_cache.present"] = (int(cache is not None), "count")
    metrics["matchings.move_cache.hits"] = (hits, "count")
    metrics["matchings.move_cache.misses"] = (misses, "count")
    metrics["matchings.move_cache.entries"] = (entries, "count")
    metrics["matchings.move_cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio"
    )

    criteria = defaultdict(list)
    if name == "suite":
        for result in replay["ops"]:
            for row in (_load(result["out"]) or {}).get("results", []):
                criteria[row["name"]].append(row["seconds"])
    for label in CRITERIA:
        metrics[f"suites.{label}.s"] = (
            statistics.median(criteria[label]) if criteria[label] else 0.0, "s"
        )
    metrics["suites.self_s"] = (
        sum(v["self_s"] for k, v in layers.items() if k.startswith("suites.")), "s"
    )
    metrics["cli.self_s"] = (layers["cli"]["self_s"] if "cli" in layers else 0.0, "s")

    traced_s = sum(r["seconds"] for r in traced["ops"])
    untraced_s = sum(r["seconds"] for r in replay["ops"])
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            with open(os.path.join(SOURCE, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="matchorder benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SOURCE, "cli.py")):
        print(f"error: no matchorder sources at {SOURCE}", file=sys.stderr)
        return 1
    deadline = monotonic() + DEADLINE_S
    os.makedirs(os.path.join(OUT_DIR, "tmp"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    rounds = workloads.rounds(args.workload, args.seconds, bool(args.trace))
    ops = workloads.ops(args.workload, args.seed, rounds)
    spec = {
        "ops": ops,
        "trace": bool(args.trace),
        "setup_samples": 0 if args.trace else SETUP_SAMPLES,
        "memory_every": 0 if args.workload == "suite" else MEMORY_EVERY,
        "spans_path": os.path.join(OUT_DIR, f"spans-{tag}.jsonl"),
    }
    report = run_worker(spec, deadline)
    outcomes = judge(ops, report["ops"])
    if args.trace:
        replay = run_worker(dict(spec, trace=False), deadline)
        replay_outcomes = judge(ops, replay["ops"])
        outcomes = [a if a in ("wrong", "error") else b for a, b in zip(outcomes, replay_outcomes)]
        metrics = per_layer(args.workload, spec["spans_path"], report, replay)
    else:
        metrics = end_to_end(args.workload, report, outcomes)

    failed = outcomes.count("wrong") + outcomes.count("error")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "python": platform.python_version(),
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "input_set": args.seed % workloads.STORED_SETS if args.workload == "perm-compare" else None,
        "outcomes": {k: outcomes.count(k) for k in ("ok", "undecided", "wrong", "error")},
    }
    if args.trace:
        info["patched"] = report["installed"]
        info["not_found"] = report["missing"]
        info["spans"] = os.path.relpath(spec["spans_path"], ROOT)
    bad = [
        {"op": k, "label": ops[k]["label"], "argv": ops[k]["argv"],
         "outcome": outcome, "result": report["ops"][k]}
        for k, outcome in enumerate(outcomes) if outcome in ("wrong", "error")
    ]
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({"info": info, "metrics": metrics, "failures": bad}, handle, indent=1)

    for entry in bad[:5]:
        print(f"FAILED op {entry['op']} ({entry['label']}): {entry['outcome']} "
              f"{' '.join(entry['argv'])}", file=sys.stderr)
    if report["stderr"]:
        sys.stderr.write(report["stderr"][-2000:])
    print("info " + json.dumps(info))
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
