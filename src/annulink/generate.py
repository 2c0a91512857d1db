"""Deterministic random families of diagrams for sweeps and reports.

Every family takes an integer seed and returns the same diagrams for
the same arguments, so reports built from them are reproducible byte
for byte.

The alternating families rely on a sign discipline rather than
filtering: in a braid word where the generator in column k appears
positively iff k is odd, a strand entering a crossing from the left
goes under exactly at odd columns and entering from the right exactly
at even ones, and every passage moves the strand to the other side of
its crossing column.  Consecutive passages along any strand therefore
alternate over/under, closure arcs included, so the closure is an
alternating diagram by construction.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from .analysis import is_connected, is_simple
from .diagram import (
    MAX_SIZE,
    AnnularDiagram,
    from_braid_closure,
    from_free_loops,
    insert_r1,
    insert_r2,
)

__all__ = [
    "FAMILIES",
    "alternating_word",
    "alternating_braid_closures",
    "random_braid_closures",
    "disk_alternating",
    "parallel_cores",
    "r_move_perturbations",
    "generate_family",
]


def alternating_word(rng: random.Random, strands: int, length: int) -> List[int]:
    """A braid word whose closure is alternating: column k is used with
    sign + iff k is odd."""
    word = []
    for _ in range(length):
        g = rng.randint(1, strands - 1)
        word.append(g if g % 2 else -g)
    return word


def alternating_braid_closures(
    count: int,
    seed: int,
    strands_options: Sequence[int] = (2, 4),
    max_length: int = 12,
) -> List[AnnularDiagram]:
    """Random alternating closures; even strand counts keep the mod-2
    class trivial."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.choice(list(strands_options))
        length = rng.randint(1, max_length)
        out.append(from_braid_closure(alternating_word(rng, strands, length), strands))
    return out


def random_braid_closures(
    count: int,
    seed: int,
    strands_options: Sequence[int] = (2, 3, 4, 5),
    max_length: int = 12,
) -> List[AnnularDiagram]:
    """Random-sign closures, no structural guarantees beyond validity."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.choice(list(strands_options))
        length = rng.randint(0, max_length) if strands > 1 else 0
        word = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)
        ]
        out.append(from_braid_closure(word, strands))
    return out


def disk_alternating(
    count: int, seed: int, max_length: int = 10
) -> List[AnnularDiagram]:
    """Connected, simple, alternating diagrams in a disk, by rejection
    sampling over alternating disk closures.  Raises ValueError when
    1000 candidates per diagram give fewer than ``count``."""
    rng = random.Random(seed)
    out: List[AnnularDiagram] = []
    for _ in range(1000 * count):  # about one candidate in two is kept
        if len(out) == count:
            break
        strands = rng.choice((2, 3, 4))
        length = rng.randint(3, max_length)
        word = alternating_word(rng, strands, length)
        d = from_braid_closure(word, strands, disk=True)
        if is_connected(d) and is_simple(d):
            out.append(d)
    if len(out) < count:
        raise ValueError(
            "%d disk candidates gave %d of %d simple diagrams" % (1000 * count, len(out), count)
        )
    return out


def parallel_cores(k: int) -> AnnularDiagram:
    """k crossingless loops around the annulus."""
    return from_free_loops([1] * k)


def _random_r2(rng: random.Random, d: AnnularDiagram) -> Optional[AnnularDiagram]:
    """A finger move between the edges of two corners of a random face,
    or None when no face has two corners.  The two edges differ: in a
    planar map an edge with one face on both sides is a bridge, and a
    4-valent graph has none."""
    t = d.half_edges()
    faces = [f for f in t.faces if len(f) >= 2]
    if not faces:
        return None
    h1, h2 = rng.sample(rng.choice(faces), 2)
    return insert_r2(d, t.eid[h1], t.eid[h2])


def r_move_perturbations(
    count: int, seed: int, base: Optional[AnnularDiagram] = None
) -> List[AnnularDiagram]:
    """Variants of a base diagram under random kink and finger moves.

    The default base is the alternating 3-crossing disk knot.  Each
    variant applies one to three moves; the bracket changes only by the
    kink factors, which the caller can account for via the writhe.
    """
    if base is None:
        base = from_braid_closure([1, 1, 1], 2, disk=True)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = base
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5 and d.edge_parity:
                edge = rng.choice(sorted(d.edge_parity))
                d = insert_r1(d, edge, sign=rng.choice((1, -1)))
            else:
                d2 = _random_r2(rng, d)
                if d2 is None:
                    if d.free_loops:
                        d = insert_r1(d, 0, sign=rng.choice((1, -1)))
                    continue
                d = d2
        out.append(d)
    return out


# Family name -> builder(size, seed), in the order the CLI lists them.
_BUILDERS: Dict[str, Callable[[int, int], List[AnnularDiagram]]] = {
    "alternating-braid-closures": alternating_braid_closures,
    "random-braid-closures": random_braid_closures,
    "disk-alternating": disk_alternating,
    "parallel-cores": lambda size, seed: [parallel_cores(size)],
    "r-move-perturbations": r_move_perturbations,
}

FAMILIES = tuple(_BUILDERS)


def generate_family(family: str, size: int, seed: int) -> List[AnnularDiagram]:
    """Dispatch by family name (the command-line entry point).  Raises
    ValueError for an unknown family or a size outside 0 .. MAX_SIZE."""
    if family not in _BUILDERS:
        raise ValueError(
            "unknown family %r (want one of %s)" % (family, ", ".join(FAMILIES))
        )
    if size < 0:
        raise ValueError("size must be >= 0, not %d" % size)
    if size > MAX_SIZE:
        raise ValueError("size must be <= %d, not %d" % (MAX_SIZE, size))
    return _BUILDERS[family](size, seed)
