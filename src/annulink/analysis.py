"""Predicates and counts that drive the breadth checks.

Everything here reads a diagram and produces combinatorial facts about
it: its mod-2 winding class, whether it is connected or fits in a disk,
whether the strands alternate, how each crossing sits against the
external regions, and the circle counts of the two constant smoothings.
`profile` bundles the lot into one record, computed once per diagram
and memoised on it; the breadth checks and the CLI read their
hypotheses from that record.  It is the one producer of the
constant-state facts: `state_counts` and `is_adequate` read its record,
and its two `skein.flip_counts` calls, whose circles include the free
loops, are the only traces of the constant smoothings.

Both map predicates are read off the half-edge table.  A strand leaves
a crossing on the slot parity it arrived on, so a diagram alternates
exactly when every edge joins an under slot (even half-edge) to an
over slot (odd half-edge).  Crossing classification follows the
corner-incidence reading of the removable configurations: a crossing
is tagged fig3_type when at least two of its four corners lie in an
external face (two distinct ones, or one of them twice), otherwise
fig2_type when an internal face shows up at two of its corners (the
nugatory shape).  A crossing satisfying both is tagged fig3_type;
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

from typing import Dict, List, NamedTuple, Optional, Tuple

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
    return len(set(d.half_edges().comp)) == 1


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
    1 and 3 over, so the kind of half-edge h is h & 1, and a strand
    leaves a crossing on the kind it arrived on (slot s + 2); it
    alternates exactly when every edge joins an under slot to an over
    slot, that is, when the mate of every even half-edge is odd.  Free
    loops are vacuously alternating."""
    return all(m & 1 for m in d.half_edges().mate[0::2])


def classify_crossings(d: AnnularDiagram) -> Dict[str, str]:
    """Tag each crossing regular / fig2_type / fig3_type.

    fig3_type: at least two of the four corners lie in an external face
    (two distinct ones, or one of them twice).  fig2_type: an internal
    face appears at two or more of the corners.  fig3_type wins ties.
    Requires a connected diagram.
    """
    if not is_connected(d):
        raise ValueError("crossing classification needs a connected diagram")
    return dict(zip(d.crossings, _crossing_tags(d)))


def _crossing_tags(d: AnnularDiagram) -> List[str]:
    """`classify_crossings` tags in crossing order, read off the face of
    each corner (connected diagrams only)."""
    face = d.half_edges().face
    external = set(d.external_face_indices() or ())
    tags = []
    for a, b, c, e in zip(face[0::4], face[1::4], face[2::4], face[3::4]):
        if (a in external) + (b in external) + (c in external) + (e in external) >= 2:
            tags.append("fig3_type")
        elif a == b or a == c or a == e or b == c or b == e or c == e:
            tags.append("fig2_type")  # at most one external corner: an internal face repeats
        else:
            tags.append("regular")
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


def state_counts(d: AnnularDiagram) -> Tuple[int, int, int, int]:
    """(s_plus, p_plus, s_minus, p_minus): trivial and essential circle
    counts of the all-plus and all-minus smoothings, read off `profile`."""
    p = profile(d)
    return p.s_plus, p.p_plus, p.s_minus, p.p_minus


def is_adequate(d: AnnularDiagram) -> Tuple[bool, bool]:
    """(plus, minus) adequacy by one-flip comparison.

    Plus-adequate: the all-plus smoothing has strictly more trivial
    circles than every smoothing obtained from it by one sign flip;
    minus-adequate is the mirror statement.  Crossingless diagrams are
    vacuously adequate.  Read off `profile`.
    """
    p = profile(d)
    return p.plus_adequate, p.minus_adequate


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
    return d._cached("profile", lambda: _profile(d))


def _profile(d: AnnularDiagram) -> DiagramProfile:
    conn = is_connected(d)
    # one trace of each constant smoothing gives its counts and adequacy
    (sp, pp, fp), (sm, pm, fm) = flip_counts(d, 1), flip_counts(d, -1)
    k3: Optional[int] = None
    k2: Optional[int] = None
    simple: Optional[bool] = None
    quasi: Optional[bool] = None
    if conn:
        tags = _crossing_tags(d)
        k3 = tags.count("fig3_type")
        k2 = tags.count("fig2_type") if tags else None
        simple = not k2 and k3 == 0
        quasi = not k2 and k3 <= 1
    return DiagramProfile(
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
        plus_adequate=max(fp, default=-1) < sp,
        minus_adequate=max(fm, default=-1) < sm,
        k_fig2=k2,
    )
