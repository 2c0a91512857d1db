"""Deterministic workload inputs for the annulink benchmark.

Each workload is a fixed list of slots ``(family, crossings, count)``.
Every slot has a pool of ``POOL`` pinned inputs; the run seed picks
``count`` distinct pool members per slot.  So a seed changes which
diagrams run but not their crossing-count histogram, which keeps the
cost of a pass steady across seeds, and every input a seed can pick
has a pinned output digest in ``pins.json``.

Run as a script this module is the set-up step that ``setup_s``
times: a fresh interpreter that imports annulink, builds the chosen
diagrams and writes them, plus ``ops.json``, into ``--out``.  It
prints its own elapsed time as JSON.

    python3 perfbench/inputs.py --workload props-large --seed 3 --out DIR
"""

import time

_T0 = time.perf_counter()  # set-up time starts before annulink is imported

import argparse
import json
import os
import random
import sys
import zlib
from typing import Dict, List, NamedTuple, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from annulink.diagfile import parse_recipe, save_diagram  # noqa: E402
from annulink.diagram import AnnularDiagram, from_braid_closure  # noqa: E402
from annulink.generate import (  # noqa: E402
    alternating_braid_closures,
    alternating_word,
    disk_alternating,
    r_move_perturbations,
    random_braid_closures,
)


class Slot(NamedTuple):
    family: str
    n: int
    count: int


POOL = 8
ZIGZAG = (1, -2, 3)
CORPUS_KEY = "corpus"

WORKLOADS: Dict[str, Tuple[str, List[Slot]]] = {
    # State-sum bound: 2^n smoothings through the plain route (the printed
    # bracket) and the Gray route (inside --jones), on two zigzag closures
    # and one 6-strand random-sign closure.
    "bracket-large": (
        "bracket",
        [Slot("zigzag", 16, 1), Slot("zigzag", 18, 1), Slot("braid6", 17, 1)],
    ),
    # Many small diagrams: per-call overhead and repeated evaluation of
    # the same diagram inside verify_all dominate.
    "verify-sweep": (
        "verify",
        [Slot("alt", n, 4) for n in range(2, 11)]
        + [Slot("alt", n, 1) for n in range(11, 15)]
        + [Slot("rand", n, 4) for n in range(2, 11)]
        + [Slot("rand", n, 1) for n in range(11, 15)]
        + [Slot("disk", n, 4) for n in range(3, 11)]
        + [Slot("disk", n, 1) for n in range(11, 15)]
        + [Slot("rmove", n, 5) for n in range(4, 10)],
    ),
    # No state sum: file parsing, face and walk derivation, and the
    # predicates, with is_adequate's O(n^2) scan on alternating input.
    # The counts put the median op inside the alt4 n=100 group and the
    # 90th percentile inside the alt4 n=400 group, whose members cost
    # about the same, rather than on a boundary between two groups.
    "props-large": (
        "props",
        [Slot("alt4", 50, 2), Slot("alt4", 100, 6), Slot("alt4", 200, 4), Slot("alt4", 300, 2), Slot("alt4", 400, 6)]
        + [Slot("rand6", 50, 2), Slot("rand6", 100, 2), Slot("rand6", 200, 2), Slot("rand6", 400, 4)],
    ),
}


def _start(family: str, n: int, p: int) -> int:
    return zlib.crc32(("%s/%d/%d" % (family, n, p)).encode())


def _first_with_n(n: int, make, start: int) -> AnnularDiagram:
    """First diagram with exactly n crossings among make(start), make(start+1), ..."""
    for j in range(start, start + 10_000):
        d = make(j)
        if d.n == n:
            return d
    raise ValueError("no diagram with %d crossings near seed %d" % (n, start))


def _word_recipe(word: List[int], strands: int) -> str:
    return "braid %d: %s" % (
        strands,
        " ".join("-s%d" % -g if g < 0 else "s%d" % g for g in word),
    )


def bracket_recipe(family: str, n: int, p: int) -> str:
    """Inline recipe for a bracket-large input.

    Pool member p is the family's word rotated by p letters: a conjugate
    braid, so the same closure with its crossings relabelled and the
    same amount of work for every p.
    """
    if family == "zigzag":
        word, strands = [ZIGZAG[i % len(ZIGZAG)] for i in range(n)], 4
    elif family == "braid6":
        rng = random.Random(_start(family, n, 0))
        word, strands = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(n)], 6
    else:
        raise ValueError("unknown bracket family %r" % family)
    return _word_recipe(word[p:] + word[:p], strands)


def build_diagram(family: str, n: int, p: int) -> AnnularDiagram:
    """Pool member p of a file-based family, with exactly n crossings."""
    start = _start(family, n, p)
    if family == "alt":
        return _first_with_n(n, lambda j: alternating_braid_closures(1, j, max_length=n)[0], start)
    if family == "rand":
        return _first_with_n(n, lambda j: random_braid_closures(1, j, max_length=n)[0], start)
    if family == "disk":
        return _first_with_n(n, lambda j: disk_alternating(1, j, max_length=n)[0], start)
    if family == "rmove":
        return _first_with_n(n, lambda j: r_move_perturbations(1, j)[0], start)
    rng = random.Random(start)
    if family == "alt4":
        return from_braid_closure(alternating_word(rng, 4, n), 4)
    if family == "rand6":
        return from_braid_closure([rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(n)], 6)
    raise ValueError("unknown family %r" % family)


def op_key(slot: Slot, p: int) -> str:
    return "%s-n%03d-p%d" % (slot.family, slot.n, p)


def parse_key(key: str) -> Tuple[str, int, int]:
    family, n, p = key.rsplit("-", 2)
    return family, int(n[1:]), int(p[1:])


def pool_keys(workload: str) -> List[str]:
    """Every input the workload can run, whatever the seed, plus the
    ``verify corpus`` op that warms up every run."""
    slots = WORKLOADS[workload][1]
    return sorted({op_key(s, p) for s in slots for p in range(POOL)}) + [CORPUS_KEY]


def choose(workload: str, seed: int) -> List[str]:
    """The op keys of one pass, in run order."""
    command, slots = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    keys = [op_key(s, p) for s in slots for p in sorted(rng.sample(range(POOL), s.count))]
    return keys + [CORPUS_KEY] if command == "verify" else keys


def materialize(workload: str, keys: List[str], out: str) -> List[Tuple[str, List[str]]]:
    """Build and write the inputs for ``keys``; return (key, argv) per op.

    A file argument is given by its name inside ``out``, so the ops of two
    set-ups into different directories compare byte for byte.
    """
    command = WORKLOADS[workload][0]
    os.makedirs(out, exist_ok=True)
    ops: List[Tuple[str, List[str]]] = []
    for key in keys:
        if key == CORPUS_KEY:
            ops.append((key, ["verify", "corpus"]))
            continue
        family, n, p = parse_key(key)
        if command == "bracket":
            recipe = bracket_recipe(family, n, p)
            built = parse_recipe(recipe).n
            if built != n:
                raise ValueError("%s has %d crossings" % (key, built))
            ops.append((key, ["bracket", recipe, "--jones"]))
            continue
        name = key + ".diag"
        save_diagram(os.path.join(out, name), build_diagram(family, n, p), {"key": key})
        ops.append((key, [command, name]))
    with open(os.path.join(out, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump(ops, fh)
    return ops


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    ops = materialize(args.workload, choose(args.workload, args.seed), args.out)
    elapsed = time.perf_counter() - _T0
    print(json.dumps({"setup_s": elapsed, "ops": len(ops)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
