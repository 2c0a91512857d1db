"""Self-tests of the benchmark harness, at a tiny size (a few seconds).

    python3 perfbench/selftest.py

Checks that one seed always gives byte-identical inputs, that a corrupted
output is caught by the pinned digest, and that an op that raises is
counted as failed while the run carries on.
"""

import json
import os
import shutil
import sys

import run
from annulink import cli

inputs = run.inputs


def _pins(workload: str) -> dict:
    with open(run.PINS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def same_seed_same_inputs(work: str) -> None:
    """Fresh interpreters (so also fresh hash seeds) write the same bytes."""
    for workload in sorted(inputs.WORKLOADS):
        trees = {}
        for seed in (7, 8):
            _, out, same = run.set_up(workload, seed)
            trees[seed] = run.read_tree(out)
            shutil.rmtree(out)
            if not same:
                raise AssertionError("%s: seed %d gave different inputs" % (workload, seed))
        if trees[7] == trees[8]:
            raise AssertionError("%s: seeds 7 and 8 gave the same inputs" % workload)


def _small_ops(work: str):
    keys = [k for k in inputs.choose("verify-sweep", 7) if k.startswith("alt-n00")][:3]
    inputs.materialize("verify-sweep", keys, work)
    return run.load_ops(work)


def corrupted_output_fails(work: str) -> None:
    ops = _small_ops(work)
    pins = _pins("verify-sweep")
    _, clean = run.run_pass(ops, pins)
    if run.failed_frac(clean) != 0:
        raise AssertionError("clean ops failed: %r" % [r for r in clean if not r.ok])
    emit = cli._emit
    results = [run.run_op(ops[0][0], ops[0][1], pins.get(ops[0][0]))]
    cli._emit = lambda line="": emit(line.replace("pass", "PASS"))
    try:
        results.append(run.run_op(ops[1][0], ops[1][1], pins.get(ops[1][0])))
    finally:
        cli._emit = emit
    results.append(run.run_op(ops[2][0], ops[2][1], pins.get(ops[2][0])))
    if [r.ok for r in results] != [True, False, True] or run.failed_frac(results) != 1 / 3:
        raise AssertionError("corrupted output not caught: %r" % results)


def raising_op_fails(work: str) -> None:
    ops = [("too-big", ["verify", "braid 2: " + " ".join(["s1"] * 27)])] + _small_ops(work)[:1]
    results = run.run_pass(ops, _pins("verify-sweep"))[1]
    if results[0].ok or "BracketSizeError" not in (results[0].error or ""):
        raise AssertionError("27-crossing verify did not fail with BracketSizeError: %r" % (results[0],))
    if not results[1].ok:
        raise AssertionError("the op after a raising op failed: %r" % (results[1],))


def main() -> int:
    work = os.path.join(run.WORK, "selftest")
    bad = 0
    for test in (same_seed_same_inputs, corrupted_output_fails, raising_op_fails):
        shutil.rmtree(work, ignore_errors=True)
        try:
            test(work)
            print("PASS", test.__name__)
        except AssertionError as exc:
            bad += 1
            print("FAIL", test.__name__, exc)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
