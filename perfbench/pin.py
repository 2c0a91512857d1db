"""Record the exit code and stdout digest of every op any seed can run.

    python3 perfbench/pin.py            # rewrites perfbench/pins.json

Every pool input of every workload runs once through the same op runner
as the benchmark.  Before a bracket-large input is pinned, the plain and
Gray-code evaluators must agree on it.  ``verify corpus`` must exit 1:
corpus entry fig14 is red by design.
"""

import json
import os
import shutil
import sys

import run
from annulink.diagfile import parse_recipe
from annulink.skein import bracket, bracket_gray


def pin_workload(workload: str) -> dict:
    keys = run.inputs.pool_keys(workload)
    work = os.path.join(run.WORK, "pin-" + workload)
    shutil.rmtree(work, ignore_errors=True)
    try:
        run.inputs.materialize(workload, keys, work)
        pins = {}
        for key, argv in run.load_ops(work):
            if argv[0] == "bracket":
                d = parse_recipe(argv[1])
                if bracket(d) != bracket_gray(d):
                    sys.exit("pin: plain and Gray brackets differ on %s" % key)
            _, code, text, error = run.call(argv)
            if error is not None:
                sys.exit("pin: %s raised\n%s" % (key, error))
            if code != 0:
                print("pin: %s exits %r" % (key, code), file=sys.stderr)
            pins[key] = [code, run.digest(text)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if pins[run.inputs.CORPUS_KEY][0] != 1:
        sys.exit("pin: verify corpus should exit 1 (fig14 is red by design)")
    return pins


def main() -> int:
    pins = {}
    for workload in sorted(run.inputs.WORKLOADS):
        pins[workload] = pin_workload(workload)
        print("pinned %d ops of %s" % (len(pins[workload]), workload), file=sys.stderr)
    with open(run.PINS, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, workload in enumerate(sorted(pins)):
            rows = ",\n".join("  %s: %s" % (json.dumps(k), json.dumps(v)) for k, v in sorted(pins[workload].items()))
            fh.write("%s: {\n%s\n}%s\n" % (json.dumps(workload), rows, "," if i + 1 < len(pins) else ""))
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
