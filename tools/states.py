"""Microseconds per call and per state of both state-sum enumerators, as JSON.

    python3 tools/states.py
    python3 tools/states.py --sizes 6 --repeats 1

Times ``skein._plain_states`` and ``skein._gray_states`` on the 4-strand
zigzag closure ``[1, -2, 3, 1, -2, 3, ...]`` at each size (default
n = 14, 16, 18 and 20).  Each size runs in a fresh interpreter, so no
memo or heap state carries over between sizes; inside it each
enumerator runs ``--repeats`` times on a freshly built diagram, and the
median wall time is reported per call and divided by the 2^n states.
Below about n = 8 a call's set-up outweighs its states, which only the
per-call figure shows.  Next to the Gray timings stands the plan the
walk ran on (``skein._gray_plan``): the crossing it held, that
crossing's smoothing, the probe smoothings in which its arcs shared a
circle and the number of probes (0 up to n = 8, where crossing 0 is
held at ``+``).  The output is one JSON object:
``{"zigzag n=14": {"plain": {"us_per_call": us, "us_per_state": us},
"gray": {"us_per_call": us, "us_per_state": us, "plan": {"held": c,
"sign": "+" or "-", "shared": count, "probes": R}}}, ...}``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ZIGZAG = (1, -2, 3)


def measure(n: int, repeats: int) -> dict:
    """µs per call and per state of each enumerator on the n-crossing zigzag."""
    from annulink import skein
    from annulink.diagram import from_braid_closure

    word = [ZIGZAG[i % len(ZIGZAG)] for i in range(n)]
    out = {}
    for name, states in (("plain", skein._plain_states), ("gray", skein._gray_states)):
        times = []
        for _ in range(repeats):
            d = from_braid_closure(word, 4)
            d.half_edges()
            start = time.perf_counter()
            states(d)
            times.append(time.perf_counter() - start)
        us = 1e6 * statistics.median(times)
        out[name] = {"us_per_call": round(us, 2), "us_per_state": round(us / 2 ** n, 4)}
    held, sign, _, shared, probes = skein._gray_plan(from_braid_closure(word, 4))
    out["gray"]["plan"] = {"held": held, "sign": "+" if sign > 0 else "-", "shared": shared, "probes": probes}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="µs per call and per state of the plain and Gray enumerators")
    ap.add_argument("--sizes", type=int, nargs="+", default=[14, 16, 18, 20])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    # each child imports this file as `states`, next to the source tree
    path = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = {}
    for n in args.sizes:
        code = "import json, states; print(json.dumps(states.measure(%d, %d)))" % (n, args.repeats)
        proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, check=True)
        result["zigzag n=%d" % n] = json.loads(proc.stdout)
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
