"""Predicates and counts that drive the breadth checks.

Everything here reads a diagram and produces combinatorial facts about
it: its mod-2 winding class, whether it is connected or fits in a disk,
whether the strands alternate, how each crossing sits against the
external regions, and the circle counts of the two constant smoothings.
`profile` bundles the lot into one record, computed once per diagram
and memoised on it; the breadth checks and the CLI read their
hypotheses from that record.

Crossing classification follows the corner-incidence reading of the
removable configurations: a crossing is tagged fig3_type when its
corners meet two distinct external faces or meet one external face
twice, fig2_type when an internal face shows up at two of its corners
(the nugatory shape).  A crossing satisfying both is tagged fig3_type;
the count k of fig3_type crossings is what the breadth formula consumes,
while the equality hypotheses only need fig2_type to be absent.  The
classification only makes sense for connected diagrams: with a separate
component the "external" regions seen by a crossing say nothing about
removability, so the classification-derived fields of a profile are
None for disconnected input.

Adequacy is decided literally: every state at sign distance one from
a constant state is compared with it by trivial-circle count.  The
counts are not resolved from scratch; `skein.flip_counts` reads all of
them off one trace of the constant state, merges of two essential
circles into a trivial one included.  The shortcut "no circle of the
constant smoothing touches itself at a crossing" is equivalent in a
disk but not in the annulus, where reconnecting a self-touching circle
can also change the essential-circle count, so it is never used here
(the test suite keeps the naive condition around as a counterexample
generator, and the from-scratch one-flip scan as the oracle).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from .diagram import AnnularDiagram
from .skein import flip_counts

# Not called here; perfbench's traced pass counts the `resolve` calls
# made through this module's binding, so the name stays bound.
from .skein import resolve  # noqa: F401

__all__ = [
    "z2_class",
    "is_connected",
    "is_in_disk",
    "is_alternating",
    "classify_crossings",
    "is_simple",
    "is_quasi_simple",
    "state_counts",
    "is_adequate",
    "DiagramProfile",
    "profile",
]


def z2_class(d: AnnularDiagram) -> int:
    """Mod-2 winding of the whole diagram: the sum of all edge parities
    and free-loop parities.  Links with class 1 have vanishing bracket."""
    total = sum(d.edge_parity.values()) + sum(d.free_loops)
    return total & 1


def is_connected(d: AnnularDiagram) -> bool:
    """True iff the diagram is one piece: a single free loop, or a
    crossing graph in one component with no free loops at all."""
    if d.n == 0:
        return len(d.free_loops) == 1
    if d.free_loops:
        return False
    comp = d._crossing_components()
    return len(set(comp.values())) == 1


def is_in_disk(d: AnnularDiagram) -> bool:
    """True iff the diagram fits in a disk inside the annulus: every
    parity is 0 and both external markers land in the same face.

    A property of the diagram, not of the link it presents: a link
    that could be pushed into a disk still reports False when drawn
    with essential windings."""
    if any(d.edge_parity.values()) or any(d.free_loops):
        return False
    ext = d.external_face_indices()
    if ext is None:
        return True
    return ext[0] == ext[1]


def is_alternating(d: AnnularDiagram) -> bool:
    """True iff every strand walk meets over- and under-passages
    alternately around its full circuit.  Slots 0 and 2 are under,
    1 and 3 over.  Free loops are vacuously alternating."""
    for walk in d.strand_walks():
        kinds = [s % 2 for _, s in walk]
        m = len(kinds)
        if any(kinds[i] == kinds[(i + 1) % m] for i in range(m)):
            return False
    return True


def classify_crossings(d: AnnularDiagram) -> Dict[str, str]:
    """Tag each crossing regular / fig2_type / fig3_type.

    fig3_type: the four corners meet two distinct external faces, or
    meet one external face at least twice.  fig2_type: an internal face
    appears at two or more of the corners.  fig3_type wins ties.
    Requires a connected diagram.
    """
    if not is_connected(d):
        raise ValueError("crossing classification needs a connected diagram")
    if d.n == 0:
        return {}
    table = d.corner_face()
    ext = d.external_face_indices()
    external = set(ext) if ext is not None else set()
    tags: Dict[str, str] = {}
    for cid in d.crossings:
        corner_faces = [table[(cid, k)] for k in range(4)]
        ext_hits = [f for f in corner_faces if f in external]
        fig3 = len(set(ext_hits)) == 2 or len(ext_hits) >= 2
        internal_counts: Dict[int, int] = {}
        for f in corner_faces:
            if f not in external:
                internal_counts[f] = internal_counts.get(f, 0) + 1
        fig2 = any(c >= 2 for c in internal_counts.values())
        if fig3:
            tags[cid] = "fig3_type"
        elif fig2:
            tags[cid] = "fig2_type"
        else:
            tags[cid] = "regular"
    return tags


def is_simple(d: AnnularDiagram) -> bool:
    """No removable crossing of either kind (connected diagrams only)."""
    return all(t == "regular" for t in classify_crossings(d).values())


def is_quasi_simple(d: AnnularDiagram) -> bool:
    """No fig2_type crossing and at most one fig3_type."""
    tags = classify_crossings(d).values()
    if any(t == "fig2_type" for t in tags):
        return False
    return sum(1 for t in tags if t == "fig3_type") <= 1


def _constant_states(d: AnnularDiagram) -> Tuple[Tuple[int, int, bool], ...]:
    """(trivial, essential, adequate) for the all-plus, then the
    all-minus smoothing, from one trace of each."""
    out = []
    for sign in (1, -1):
        trivial, essential, flipped = flip_counts(d, sign)
        out.append((trivial, essential, all(t < trivial for t in flipped)))
    return tuple(out)


def state_counts(d: AnnularDiagram) -> Tuple[int, int, int, int]:
    """(s_plus, p_plus, s_minus, p_minus): trivial and essential circle
    counts of the all-plus and all-minus smoothings."""
    (sp, pp, _), (sm, pm, _) = _constant_states(d)
    return sp, pp, sm, pm


def is_adequate(d: AnnularDiagram) -> Tuple[bool, bool]:
    """(plus, minus) adequacy by one-flip comparison.

    Plus-adequate: the all-plus smoothing has strictly more trivial
    circles than every smoothing obtained from it by one sign flip;
    minus-adequate is the mirror statement.  Crossingless diagrams are
    vacuously adequate.
    """
    (_, _, plus), (_, _, minus) = _constant_states(d)
    return plus, minus


class DiagramProfile(NamedTuple):
    """Flat summary of one diagram.

    The classification-derived fields (k_fig3, simple, quasi_simple,
    k_fig2) are None when the diagram is disconnected; k_fig2 is also
    None for a diagram without crossings.
    """

    n: int
    connected: bool
    alternating: bool
    in_disk: bool
    z2_class: int
    s_plus: int
    s_minus: int
    p_plus: int
    p_minus: int
    k_fig3: Optional[int]
    simple: Optional[bool]
    quasi_simple: Optional[bool]
    plus_adequate: bool
    minus_adequate: bool
    k_fig2: Optional[int]

    def as_record(self) -> Dict[str, object]:
        """Field name -> value, in declaration order."""
        return self._asdict()


def profile(d: AnnularDiagram) -> DiagramProfile:
    """Every predicate and count for one diagram, computed on the first
    call and memoised on the diagram.

    ``k_fig2`` counts the fig2_type crossings; it is None when the
    diagram is disconnected or has no crossings.
    """
    if "profile" in d._cache:
        return d._cache["profile"]  # type: ignore[return-value]
    conn = is_connected(d)
    (sp, pp, pa), (sm, pm, ma) = _constant_states(d)
    k3: Optional[int] = None
    k2: Optional[int] = None
    simple: Optional[bool] = None
    quasi: Optional[bool] = None
    if conn:
        tags = list(classify_crossings(d).values())
        k3 = tags.count("fig3_type")
        k2 = tags.count("fig2_type") if tags else None
        simple = not k2 and k3 == 0
        quasi = not k2 and k3 <= 1
    p = DiagramProfile(
        n=d.n,
        connected=conn,
        alternating=is_alternating(d),
        in_disk=is_in_disk(d),
        z2_class=z2_class(d),
        s_plus=sp,
        s_minus=sm,
        p_plus=pp,
        p_minus=pm,
        k_fig3=k3,
        simple=simple,
        quasi_simple=quasi,
        plus_adequate=pa,
        minus_adequate=ma,
        k_fig2=k2,
    )
    d._cache["profile"] = p
    return p
