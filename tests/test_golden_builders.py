"""Every builder's output, pinned by one digest.

perfbench writes its pinned inputs with these builders, so a builder
edit that moves any serialized diagram would also move its pins; this
digest moves first.  Record a new one only for an intended change of
builder output, and say which builder changed and why.
"""

import hashlib
import random

from annulink.diagfile import serialize_diagram
from annulink.diagram import from_braid_closure, insert_r1, insert_r2, mirror_diagram
from annulink.generate import FAMILIES, generate_family

GOLDEN = "4d679727afc00dd808f17f533e2af4a237f48588ccbfd13193c1214dd33c289f"


def first_r2(d):
    """The finger move between the first two distinct edges of the first
    face that has them, or None."""
    for face in d.trace_faces():
        edges = list(dict.fromkeys(d.crossings[c][s] for c, s in face))
        if len(edges) >= 2:
            return insert_r2(d, edges[0], edges[1])
    return None


def builder_outputs():
    for family in FAMILIES:
        for seed in range(50):
            yield from generate_family(family, 3, seed)
    rng = random.Random(1510)
    for _ in range(150):
        strands = rng.randint(2, 5)  # short words leave some strands as free loops
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 10))]
        for disk in (False, True):
            d = from_braid_closure(word, strands, disk=disk)
            yield d
            yield mirror_diagram(d)
            sign = rng.choice((1, -1))
            if d.edge_parity:
                yield insert_r1(d, rng.choice(sorted(d.edge_parity)), sign)
            if d.free_loops:
                yield insert_r1(d, rng.randrange(len(d.free_loops)), sign)
            moved = first_r2(d)
            if moved is not None:
                yield moved


def test_builder_outputs_match_the_recorded_digest():
    digest = hashlib.sha256()
    count = 0
    for d in builder_outputs():
        digest.update(serialize_diagram(d).encode("utf-8"))
        digest.update(b"\0")
        count += 1
    assert count > 1500
    assert digest.hexdigest() == GOLDEN


def test_every_builder_output_passes_validate():
    bad = [(serialize_diagram(d), d.validate()) for d in builder_outputs() if d.validate()]
    assert bad == []
