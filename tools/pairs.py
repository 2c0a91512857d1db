"""Paired perfbench runs: a base commit against the working tree.

    python3 tools/pairs.py --base HEAD --workload verify-sweep --seed 1 --pairs 4
    python3 tools/pairs.py --base-tree ../parent --workload props-large --seed 3 --pairs 2 --seconds 10

The base side is a ``git worktree`` of ``--base``, made in a temporary
directory and removed at the end, or an existing checkout given as
``--base-tree``.  Each pair runs ``perfbench/run.py`` once in the base
and once in the working tree, each with its own copy of the benchmark,
and alternates which side runs first.  A line per run (correct, ops/s,
peak RSS) and per pair (change/parent ratios of the five end-to-end
metrics, set-up time included) is printed as it arrives;
at the end, per metric, come the two medians,
the change/parent ratio, how many pairs the change won and the parent's
interquartile range.  Each end-to-end metric of ``BENCHMARK.json`` is
marked ``ok`` when the change's median is no worse than the parent's by
more than its bound, else ``OVER``; but ``unresolved`` when the parent's
interquartile range exceeds the bound times the parent's median, since
a spread that wide cannot tell a change within the bound from one past
it, unless every run of the change beats every run of the parent.  A
last line per side counts its correct runs and its failed ops out of
those attempted.

perfbench times its set-up repeats back to back, so a host that slows
down for a few seconds moves one side's ``setup_s`` alone.  Each pair
therefore also runs ``perfbench/inputs.py`` once per tree in fresh
interpreters, in the pair's order, and prints both set-up times and
whether the two trees wrote byte-identical inputs; a final block gives
their medians, ratio, the pairs the change won and the identical count.
Last comes one line per op key: each side's median latency, read from
the record every perfbench child writes under ``.perfbench/records/``,
as the median over pairs, with the change/parent ratio and the pairs
the change won, so that a change that moves one slot shows which.
``--out`` writes every run to a JSON file.

A perfbench or set-up child that exits non-zero or times out stops the
pairs: the failure is printed with its pair and side, the summary covers
the pairs finished before it, ``--out`` holds them and the failure, and
the exit status is 1.  A ``--base`` that git cannot check out prints
git's message and exits 2.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RunFailed(Exception):
    """A perfbench or set-up child that exited non-zero or timed out."""


def _child(tree: str, args: List[str], timeout: float) -> dict:
    """The JSON result line of ``python args`` run in ``tree``; RunFailed
    when the child exits non-zero or runs past ``timeout`` seconds."""
    try:
        proc = subprocess.run([sys.executable] + args, cwd=tree, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed("%s timed out after %g s in %s" % (args[0], timeout, tree)) from None
    if proc.returncode != 0:
        raise RunFailed("%s exited %d in %s:\n%s" % (args[0], proc.returncode, tree, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def run_bench(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in ``tree``: its JSON result line, with the
    median latency of each op key under ``key_p50_ms``."""
    result = _child(tree, [os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], seconds * 4 + 300)
    result["key_p50_ms"] = key_latencies(tree, workload, seed)
    return result


def key_latencies(tree: str, workload: str, seed: int) -> Dict[str, float]:
    """Op key -> median latency (ms) in the record of the last untraced
    perfbench run of ``workload`` and ``seed`` in ``tree``; empty when
    there is no such record."""
    path = os.path.join(tree, ".perfbench", "records", "%s-seed%d-trace0.json" % (workload, seed))
    try:
        with open(path, encoding="utf-8") as fh:
            latency = json.load(fh)["latency_ms"]
    except (OSError, ValueError, KeyError):
        return {}
    return {key: statistics.median(ms) for key, ms in latency.items() if ms}


def key_summary(runs: List[Dict[str, dict]]) -> List[str]:
    """One line per op key that every run timed: the median over pairs
    of each side's median latency, their ratio and the pairs the change
    won; no lines when no key was timed on both sides."""
    sides = [r[who].get("key_p50_ms", {}) for r in runs for who in ("parent", "change")]
    keys = [key for key in sides[0] if all(key in side for side in sides)]
    if not keys:
        return []
    lines = ["%-24s %12s %12s %7s %5s" % ("op key (p50 ms)", "parent", "change", "ratio", "won")]
    for key in keys:
        base = [r["parent"]["key_p50_ms"][key] for r in runs]
        new = [r["change"]["key_p50_ms"][key] for r in runs]
        mb, mc = statistics.median(base), statistics.median(new)
        won = sum(1 for b, c in zip(base, new) if c < b)
        lines.append("%-24s %12.6g %12.6g %7.3f %2d/%-2d" % (key, mb, mc, mc / mb if mb else float("nan"),
                                                             won, len(runs)))
    return lines


def run_setup(tree: str, workload: str, seed: int, out: str) -> float:
    """One set-up step in ``tree``, in a fresh interpreter, writing its
    inputs into ``out``; its setup_s."""
    shutil.rmtree(out, ignore_errors=True)
    return _child(tree, [os.path.join("perfbench", "inputs.py"), "--workload", workload, "--seed", str(seed),
                         "--out", out], 300)["setup_s"]


def same_tree(a: str, b: str) -> bool:
    """Whether two directories hold the same file names with the same bytes."""
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def setup_summary(setups: List[dict]) -> List[str]:
    """The interleaved set-up block: medians, change/parent ratio, pairs
    the change won and how many pairs wrote byte-identical inputs."""
    base = [s["parent"] for s in setups]
    new = [s["change"] for s in setups]
    mb, mc = statistics.median(base), statistics.median(new)
    won = sum(1 for b, c in zip(base, new) if c < b)
    same = sum(1 for s in setups if s["same"])
    return ["%-20s %12s %12s %7s %5s %s" % ("interleaved set-up", "parent", "change", "ratio", "won", "identical"),
            "%-20s %12.6g %12.6g %7.3f %2d/%-2d %d/%d"
            % ("setup_s", mb, mc, mc / mb if mb else float("nan"), won, len(setups), same, len(setups))]


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def pair_ratios(pair: Dict[str, dict]) -> str:
    """The change/parent ratio of each end-to-end metric of one pair."""
    return " ".join("%s %.3f" % (name, value(pair["change"], name) / value(pair["parent"], name))
                    for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"))


def summary(runs: List[dict], manifest: dict) -> List[str]:
    """One line per metric: medians, ratio, pairs won, parent IQR, bound;
    then one line per side: correct runs, and failed out of attempted ops."""
    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    better = {m["name"]: m["better"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    lines = ["metric               parent       change   ratio   won parent IQR  bound"]
    for name in runs[0]["parent"]["metrics"]:
        base = [value(r["parent"], name) for r in runs]
        new = [value(r["change"], name) for r in runs]
        sign = 1 if better.get(name, "lower") == "higher" else -1
        won = sum(1 for b, c in zip(base, new) if sign * (c - b) > 0)
        mb, mc = statistics.median(base), statistics.median(new)
        q1, _, q3 = quartiles(base)
        verdict = ""
        if name in bounds:
            limit = bounds[name]["bound"]
            ok = mc >= mb * (1 - limit) if sign > 0 else mc <= mb * (1 + limit)
            clear = min(sign * c for c in new) > max(sign * b for b in base)
            if q3 - q1 > limit * mb and not clear:
                word = "unresolved"
            else:
                word = "ok" if ok else "OVER"
            verdict = "%s (%.0f%%)" % (word, 100 * limit)
        ratio = mc / mb if mb else float("nan")
        lines.append("%-14s %12.6g %12.6g %7.3f %2d/%-2d %10.4g  %s"
                     % (name, mb, mc, ratio, won, len(runs), q3 - q1, verdict))
    for who in ("parent", "change"):
        sides = [r[who] for r in runs]
        lines.append("%-6s correct %d/%d runs, failed %d/%d ops" % (
            who, sum(1 for s in sides if s["correct"]), len(sides),
            sum(s["failed"] for s in sides), sum(s["attempted"] for s in sides)))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alternating perfbench pairs, base commit vs working tree")
    side = ap.add_mutually_exclusive_group(required=True)
    side.add_argument("--base", help="commit to check out in a git worktree")
    side.add_argument("--base-tree", help="an existing checkout of the base")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--out", help="write every run to this JSON file")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    tmp = tempfile.mkdtemp(prefix="pairs-")
    base = args.base_tree
    if base is None:
        base = os.path.join(tmp, "base")
        proc = subprocess.run(["git", "worktree", "add", "--detach", base, args.base], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            shutil.rmtree(tmp, ignore_errors=True)
            print("pairs: git worktree add %s failed: %s" % (args.base, " ".join(proc.stderr.split())),
                  file=sys.stderr)
            return 2
    runs: List[Dict[str, dict]] = []
    failure = None
    try:
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for who in order:
                pair[who] = run_bench(base if who == "parent" else ROOT, args.workload, args.seed, args.seconds)
                print("pair %d %-6s correct=%s ops/s=%.4g rss=%.2f MB" % (
                    k + 1, who, pair[who]["correct"], value(pair[who], "ops_per_s"), value(pair[who], "peak_rss_mb")),
                    flush=True)
            print("pair %d change/parent: %s" % (k + 1, pair_ratios(pair)), flush=True)
            setup = {}
            for who in order:
                tree = base if who == "parent" else ROOT
                setup[who] = run_setup(tree, args.workload, args.seed, os.path.join(tmp, "setup-" + who))
            setup["same"] = same_tree(os.path.join(tmp, "setup-parent"), os.path.join(tmp, "setup-change"))
            pair["setup"] = setup
            runs.append(pair)
            print("pair %d interleaved setup_s parent %.4f change %.4f, inputs %s" % (
                k + 1, setup["parent"], setup["change"], "identical" if setup["same"] else "DIFFER"),
                flush=True)
    except RunFailed as exc:
        failure = {"pair": k + 1, "side": who, "error": str(exc)}
        print("pair %d %s failed, stopping: %s" % (k + 1, who, exc), flush=True)
    finally:
        if args.base_tree is None:
            subprocess.run(["git", "worktree", "remove", "--force", base], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "pairs": runs,
                       "failure": failure}, fh)
    if runs:
        print("\n".join(summary(runs, manifest)))
        print()
        print("\n".join(setup_summary([r["setup"] for r in runs])))
        keys = key_summary(runs)
        if keys:
            print()
            print("\n".join(keys))
    ok = failure is None and all(r["parent"]["correct"] and r["change"]["correct"] for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
