"""annulink benchmark: one workload per run, one closed-loop caller.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

The inputs are set up SETUP_REPEATS times, each in a fresh interpreter
(`inputs.py`); the median is ``setup_s``.  Then every op calls
``annulink.cli.main(argv)`` in this process with stdout captured, and
each op's exit code and stdout digest are checked against
``pins.json``.  With ``--trace 0`` whole passes over the ops repeat for
``--seconds`` and the end-to-end metrics are reported.  With
``--trace 1`` two untraced and two traced passes alternate, the exact
counts of the traced passes must agree, and the per-layer metrics are
reported.

The last line of stdout is the JSON result; a human summary goes to
stderr and the full record to ``.perfbench/records/``.  See README.md
for what each metric means.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

if not os.path.isfile(os.path.join(SRC, "annulink", "__init__.py")):
    sys.exit("perfbench: no annulink source under %s; run from a checkout of the repository" % SRC)

sys.path.insert(0, HERE)

import inputs  # noqa: E402  (puts src/ on sys.path)
import tracing  # noqa: E402
from annulink import cli  # noqa: E402
from annulink.diagfile import parse_recipe  # noqa: E402
from annulink.skein import bracket, bracket_gray  # noqa: E402
from annulink.theorems import verify_all  # noqa: E402

SETUP_REPEATS = 7
TAIL_PERCENTILE = 90
TAIL_MIN_BEYOND = 10
PINS = os.path.join(HERE, "pins.json")


# ROADMAP open item 1, measured by hand: name -> (low, high).
HAND_TABLE = {
    "roadmap.plain_us_per_state": (5.1, 7.7),
    "roadmap.gray_us_per_state": (4.3, 5.4),
    "roadmap.gray_n18_s": (1.41, 1.41),
    "roadmap.verify_all_n14_s": (0.34, 0.34),
    "roadmap.verify_corpus_s": (0.23, 0.23),
}


class OpResult(NamedTuple):
    key: str
    seconds: float
    code: object
    digest: str
    stdout_bytes: int
    error: Optional[str]
    ok: bool


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def call(argv: List[str], tracer: Optional[tracing.Tracer] = None) -> Tuple[float, object, str, Optional[str]]:
    """One call of the CLI entry point: (seconds, exit code, stdout, error).

    An exception is caught and returned as the error, so an op that
    raises fails on its own instead of ending the run."""
    out, err = io.StringIO(), io.StringIO()
    code: object = None
    error = None
    t0 = time.perf_counter()
    root = tracer.open("bench.op") if tracer is not None else -1
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects argv this way
        code = exc.code
    except Exception:
        error = traceback.format_exc(limit=-3)
    finally:
        if tracer is not None:
            tracer.close(root)
    return time.perf_counter() - t0, code, out.getvalue(), error


def run_op(key: str, argv: List[str], pin: Optional[list], tracer: Optional[tracing.Tracer] = None) -> OpResult:
    """Run one op and check its exit code and stdout digest against ``pin``."""
    if tracer is not None:
        tracer.op = key
    seconds, code, text, error = call(argv, tracer)
    size = len(text.encode("utf-8"))
    if tracer is not None:
        tracer.counts["cli.stdout_bytes"] += size
    got = digest(text)
    if error is None and pin is None:
        error = "no pinned output for %s" % key
    ok = error is None and [code, got] == pin
    return OpResult(key, seconds, code, got, size, error, ok)


def failed_frac(results: List[OpResult]) -> float:
    return sum(1 for r in results if not r.ok) / len(results)


def run_pass(ops, pins, tracer=None) -> Tuple[float, List[OpResult]]:
    t0 = time.perf_counter()
    results = [run_op(key, argv, pins.get(key), tracer) for key, argv in ops]
    return time.perf_counter() - t0, results


def read_tree(path: str) -> Dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def set_up(workload: str, seed: int) -> Tuple[List[float], str, bool]:
    """Run the set-up step SETUP_REPEATS times in fresh interpreters.

    Returns the set-up times, the directory of the first copy, and
    whether all copies are byte-identical."""
    times, dirs = [], []
    for k in range(SETUP_REPEATS):
        out = os.path.join(WORK, "%s-seed%d-setup%d" % (workload, seed, k))
        shutil.rmtree(out, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", out],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.exit("perfbench: set-up failed:\n" + proc.stderr)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        dirs.append(out)
    first = read_tree(dirs[0])
    same = all(read_tree(d) == first for d in dirs[1:])
    for d in dirs[1:]:
        shutil.rmtree(d)
    return times, dirs[0], same


def load_ops(work: str) -> List[Tuple[str, List[str]]]:
    with open(os.path.join(work, "ops.json"), encoding="utf-8") as fh:
        ops = json.load(fh)
    return [(key, [os.path.join(work, a) if a.endswith(".diag") else a for a in argv]) for key, argv in ops]


def tail(latencies: List[float]) -> Dict[str, float]:
    """The TAIL_PERCENTILE latency, with the sample count behind it."""
    if len(latencies) > 1:
        value = statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    else:
        value = latencies[0]
    beyond = sum(1 for x in latencies if x > value)
    return {
        "percentile": TAIL_PERCENTILE,
        "value_ms": 1000 * value,
        "samples": len(latencies),
        "beyond": beyond,
        "supported": beyond >= TAIL_MIN_BEYOND,
    }


def timed_passes(ops, pins, seconds: float):
    """Whole passes until the next one would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        wall, results = run_pass(ops, pins)
        passes.append((wall, results))
        if time.perf_counter() - start + wall > seconds:
            return passes


def hand_table(pins) -> Tuple[Dict[str, float], List[str], OpResult]:
    """Re-measure the ROADMAP item 1 hand table; flag entries off by > 2x.

    Also returns the checked ``verify corpus`` op it timed."""
    def timed(fn, recipe: str) -> float:
        d = parse_recipe(recipe)
        t0 = time.perf_counter()
        fn(d)
        return time.perf_counter() - t0

    def zigzag(n: int) -> str:
        return inputs.bracket_recipe("zigzag", n, 0)

    corpus = run_op(inputs.CORPUS_KEY, ["verify", "corpus"], pins.get(inputs.CORPUS_KEY))
    got = {
        "roadmap.plain_us_per_state": 1e6 * timed(bracket, zigzag(16)) / 2 ** 16,
        "roadmap.gray_us_per_state": 1e6 * timed(bracket_gray, zigzag(16)) / 2 ** 16,
        "roadmap.gray_n18_s": timed(bracket_gray, zigzag(18)),
        "roadmap.verify_all_n14_s": timed(verify_all, zigzag(14)),
        "roadmap.verify_corpus_s": corpus.seconds,
    }
    flags = [
        "%s: %.3g outside [%.3g, %.3g] / 2x" % (name, got[name], low, high)
        for name, (low, high) in HAND_TABLE.items()
        if not low / 2 <= got[name] <= 2 * high
    ]
    return got, flags, corpus


def machine() -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "git_sha": sha,
    }


def src_lines() -> int:
    total = 0
    pkg = os.path.join(SRC, "annulink")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def measure(ops, pins, seconds: float, setup_times: List[float]) -> Tuple[Dict[str, float], dict]:
    passes = timed_passes(ops, pins, seconds)
    latencies = [r.seconds for _, results in passes for r in results]
    tail_info = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(len(results) / wall for wall, results in passes),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": tail_info["value_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "passes": [{"wall_s": wall, "ops": len(results)} for wall, results in passes],
        "tail": tail_info,
        "latency_ms": {key: [1000 * r.seconds for _, res in passes for r in res if r.key == key] for key, _ in ops},
        "results": [r for _, results in passes for r in results],
    }
    return metrics, record


def measure_traced(ops, pins) -> Tuple[Dict[str, float], dict]:
    """Untraced and traced passes alternate, so that drift in machine
    speed falls on both sides of ``trace.overhead_frac``."""
    plain, traced = [], []
    for _ in range(2):
        plain.append(run_pass(ops, pins))
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            wall, results = run_pass(ops, pins, tracer)
        traced.append((wall, results, tracer))
    tracer = traced[0][2]
    counts = [tracing.exact_counts(t) for _, _, t in traced]
    metrics = tracing.layer_metrics(tracer)
    table = tracing.SpanTable(tracer.spans)
    op_wall = table.inclusive({"bench.op"})
    metrics["trace.overhead_frac"] = sum(w for w, _, _ in traced) / sum(w for w, _ in plain) - 1
    metrics["trace.self_coverage"] = sum(table.self_time) / op_wall
    metrics["repo.src_lines"] = src_lines()
    roadmap, flags, corpus = hand_table(pins)
    metrics.update(roadmap)
    metrics["roadmap.flagged"] = len(flags)
    record = {
        "untraced_wall_s": [w for w, _ in plain],
        "traced_wall_s": [w for w, _, _ in traced],
        "counts": counts[0],
        "counts_repeat": counts[0] == counts[1],
        "roadmap_flags": flags,
        "results": [r for _, res in plain for r in res] + [r for _, res, _ in traced for r in res] + [corpus],
        "spans": tracer.spans,
    }
    return metrics, record


def metric_units() -> Dict[str, str]:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="annulink benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    units = metric_units()
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)[args.workload]
    setup_times, work, same_inputs = set_up(args.workload, args.seed)
    try:
        ops = load_ops(work)
        warm = run_op(inputs.CORPUS_KEY, ["verify", "corpus"], pins.get(inputs.CORPUS_KEY))
        if args.trace:
            metrics, record = measure_traced(ops, pins)
            counts_ok = record["counts_repeat"]
        else:
            metrics, record = measure(ops, pins, args.seconds, setup_times)
            counts_ok = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [warm] + record.pop("results")
    failures = [r for r in results if not r.ok]
    correct = not failures and same_inputs and counts_ok
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine(),
        setup_s=setup_times,
        inputs_identical=same_inputs,
        inputs={key: inputs.parse_key(key)[1] if key != inputs.CORPUS_KEY else None for key, _ in ops},
        attempted=len(results),
        failed=len(failures),
        failed_frac=failed_frac(results),
        failures=[r._asdict() for r in failures],
        metrics=metrics,
    )
    os.makedirs(os.path.join(WORK, "records"), exist_ok=True)
    path = os.path.join(WORK, "records", "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for name, value in metrics.items():
        sys.stderr.write("%-28s %14.6g %s\n" % (name, value, units[name]))
    for r in failures:
        sys.stderr.write("FAILED %s code=%r digest=%s %s\n" % (r.key, r.code, r.digest, r.error or ""))
    for flag in record.get("roadmap_flags", []):
        sys.stderr.write("roadmap table off by more than 2x: %s\n" % flag)
    if not same_inputs:
        sys.stderr.write("set-up copies differ: inputs are not deterministic\n")
    if not counts_ok:
        sys.stderr.write("exact counts differ between the two traced passes\n")
    sys.stderr.write("record: %s\n" % path)

    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
