"""Combinatorial annular link diagrams.

A diagram of a link in S1 x S2 is drawn in an annulus and encoded here
as a 4-valent combinatorial map plus homological bookkeeping:

* Each crossing has four slots numbered 0..3 counterclockwise.  The
  under-strand occupies slots 0 and 2, the over-strand slots 1 and 3.
* Each edge is an arc between two slot incidences and carries a cut
  parity bit: the mod-2 count of its intersections with a fixed arc
  joining the two annulus boundaries.  Cutting along that arc turns the
  annulus into a disk, so an embedded circle is homotopically essential
  in the annulus exactly when its total cut parity is odd.
* Circles without crossings cannot be edges; they are stored as free
  loops, each reduced to its parity bit.
* Two faces are marked external: the regions meeting the inner and the
  outer boundary of the annulus.  A marker is a corner reference
  ``(crossing_id, corner)`` where corner k lies between slots k and
  k+1 (mod 4), or the sentinel ``UNBOUNDED`` when the diagram has no
  crossings at all.

Faces, strand walks, crossing components, and the predicates and state
sums built on them all read one int form of the map, built once per
diagram by `AnnularDiagram.half_edges`.  Crossings are indexed in
``crossings`` order, and the half-edge at slot s of crossing i is
h = 4 * i + s; ``mate[h]`` is the other end of its edge and ``epar[h]``
that edge's parity.  Corner h lies between slots h and h + 1 of its
crossing.

* A face is a cycle of h -> mate[(h & ~3) | ((h + 1) & 3)]: arrive at
  slot s, leave along the edge at slot s + 1 (mod 4).  Corner h is
  emitted on arrival at half-edge h.
* A strand walk is a cycle of h -> mate[h ^ 2]: the strand enters at
  slot s and leaves through slot s + 2.  A walk lists its arrival
  half-edges; h ^ 2 belongs to the same passage and is not listed.
* Faces and walks are numbered by their smallest half-edge and stored
  as int cycles in trace order from there, so both come out in crossing
  order, slot by slot; ``eid[h]`` names the edge at half-edge h.

The removal moves read faces off the same table.  A face is removable
when it holds no boundary marker and its edges' parities sum to 0:

* R1: a face with one corner h is a kink, its edge joining slots h + 1
  and h of one crossing.  The crossing signs as +1 (bracket factor
  -A^3) when h is odd and as -1 (factor -A^-3) when h is even, as
  `insert_r1` builds them; since k+ + k- = k+ - k- (mod 2), removing
  kinks of writhe dw scales the bracket by (-A^3)^dw in all.
* R2: a face with two corners h1, h2 at two distinct crossings is a
  bigon; it is removable when h1 and h2 differ in parity, so that each
  of its edges joins slots of one parity and one strand passes over at
  both crossings (a twist bigon, such as the wrap-around one of a
  zigzag closure, fails this).

Removing crossings rejoins each stretch of a strand walk between two
surviving arrivals into one edge whose parity is the sum of its
stretch's (w ^ m ^ e for a strand's west, middle and east edges); a
walk with no surviving arrival becomes a free loop of its parity.  A
boundary marker on a removed crossing moves to the first surviving
corner of its face, its face's region widened across strands that
became free loops, and becomes ``UNBOUNDED`` when no crossing is left.
In a connected diagram a face without a marker is a disk, so each
removal is an isotopy in the annulus; for any diagram the bracket
identity holds, because the state sum sees only circles and their
parities, and an even face makes the circle an R1 or R2 smoothing
closes trivial.

For every component of crossings joined by edges, named by its lowest
crossing, `validate` checks V - E + F = 2 (a map on the 2-sphere) and
the cut parities: the cut arc runs from the component's face holding
the inner boundary circle to the one holding the outer, so a component
that holds both markers in two faces is odd around exactly those two,
one that holds both in one face around none, and any other around none
or two, its marker face among them when it holds one (the map does not
record which face of a component holds another component).  It reports
violations as strings rather than raising.

Builders return fresh immutable-by-convention diagrams; move
generators (`insert_r1`, `insert_r2`, `remove_r1`, `remove_r2`,
`simplify`) never mutate their input.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "MAX_SIZE",
    "UNBOUNDED",
    "AnnularDiagram",
    "from_free_loops",
    "from_braid_closure",
    "from_disk_pd",
    "insert_r1",
    "insert_r2",
    "remove_r1",
    "remove_r2",
    "simplify",
    "apply_full_twist",
    "mirror_diagram",
]

UNBOUNDED = "unbounded"

# Largest braid strand count and `generate` size: each is allocated for
# before anything reads it.  Five times the largest count any test uses.
MAX_SIZE = 100_000

Corner = Tuple[str, int]
Designator = Union[str, Corner]
Dart = Tuple[str, int]


class HalfEdges(NamedTuple):
    """The int form of a diagram's map (numbering in the module docstring)."""

    order: List[str]  # crossing ids by index
    eid: List[str]  # h -> the id of its edge
    mate: List[int]  # h -> the other end of its edge
    epar: List[int]  # h -> the cut parity of its edge
    face: List[int]  # corner h -> the index of its face
    faces: List[List[int]]  # each face's corners in trace order, from its smallest
    walks: List[List[int]]  # each strand walk's arrival half-edges, from its smallest
    comp: List[int]  # crossing index -> the lowest crossing index of its component


class AnnularDiagram:
    """A link diagram in the annulus, as a decorated 4-valent map."""

    __slots__ = ("crossings", "edge_parity", "free_loops", "external", "_cache")

    def __init__(
        self,
        crossings: Dict[str, Tuple[str, str, str, str]],
        edge_parity: Dict[str, int],
        free_loops: Sequence[int] = (),
        external: Tuple[Designator, Designator] = (UNBOUNDED, UNBOUNDED),
    ):
        self.crossings = {str(c): tuple(slots) for c, slots in crossings.items()}
        self.edge_parity = {str(e): int(p) for e, p in edge_parity.items()}
        self.free_loops = tuple([int(p) for p in free_loops])
        self.external = (external[0], external[1])
        self._cache: Dict[str, object] = {}

    # -- basic queries --------------------------------------------------

    @property
    def n(self) -> int:
        """Number of crossings."""
        return len(self.crossings)

    def half_edges(self) -> HalfEdges:
        """The map as int arrays, built on the first call and cached.

        Raises ValueError when the edge references are broken (a crossing
        without four slots, an edge not met exactly twice, an undeclared
        edge); `reference_violations` names them."""
        return self._cached("half_edges", lambda: _build_half_edges(self))

    def _cached(self, key: str, make):
        """The value memoised under ``key``, made by ``make()`` on the first
        call; each derived table and bracket route has its own key."""
        cache = self._cache
        if key not in cache:
            cache[key] = make()
        return cache[key]

    def edge_ends(self) -> Dict[str, List[Dart]]:
        """edge id -> its (crossing, slot) incidences, in scan order."""
        return self._cached("ends", self._scan_ends)

    def _scan_ends(self) -> Dict[str, List[Dart]]:
        ends: Dict[str, List[Dart]] = {}
        for cid, slots in self.crossings.items():
            for s, eid in enumerate(slots):
                ends.setdefault(eid, []).append((cid, s))
        return ends

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AnnularDiagram)
            and self.crossings == other.crossings
            and self.edge_parity == other.edge_parity
            and self.free_loops == other.free_loops
            and self.external == other.external
        )

    def __repr__(self) -> str:
        return "AnnularDiagram(n=%d, loops=%d)" % (self.n, len(self.free_loops))

    # -- validation ------------------------------------------------------

    def reference_violations(self) -> List[str]:
        """The violations that leave no map to check: slot counts, parity
        bits, edges that are undeclared or not met exactly twice, and
        boundary markers that name no corner of the diagram.  A diagram
        with none of these can be traced; `validate` runs these checks
        first.  Building the half-edge table checks every edge reference
        in one pass, so only a diagram that fails it is scanned again
        for the messages."""
        crossings, parity = self.crossings, self.edge_parity
        bad = [
            "crossing %s has %d slots, expected 4" % (cid, len(slots))
            for cid, slots in crossings.items()
            if len(slots) != 4
        ]
        bad += [
            "edge %s has parity %r, expected 0 or 1" % (eid, p)
            for eid, p in parity.items()
            if p not in (0, 1)
        ]
        bad += [
            "free loop %d has parity %r, expected 0 or 1" % (i, p)
            for i, p in enumerate(self.free_loops)
            if p not in (0, 1)
        ]
        try:
            self.half_edges()  # pairs every edge, or fails on a broken reference
        except ValueError:
            ends = self.edge_ends()
            bad += [
                "crossing %s references undeclared edge %s" % (cid, eid)
                for cid, slots in crossings.items()
                for eid in slots
                if eid not in parity
            ]
            bad += [
                "edge %s has %d incidences, expected 2" % (eid, len(ends.get(eid, ())))
                for eid in parity
                if len(ends.get(eid, ())) != 2
            ]

        for label, ref in zip(("inner", "outer"), self.external):
            if ref == UNBOUNDED:
                if self.crossings:
                    bad.append("%s designator is unbounded but the diagram has crossings" % label)
                continue
            if self.crossings and isinstance(ref, tuple) and len(ref) == 2:
                cid, corner = ref
                if cid not in self.crossings:
                    bad.append("%s designator names unknown crossing %r" % (label, cid))
                elif corner not in (0, 1, 2, 3):
                    bad.append("%s designator corner %r out of range" % (label, corner))
            elif not self.crossings:
                bad.append("%s designator must be unbounded in a crossingless diagram" % label)
            else:
                bad.append("%s designator %r is malformed" % (label, ref))
        return bad

    def validate(self) -> List[str]:
        """Return all structural violations (empty list == valid)."""
        bad = self.reference_violations()
        if bad:
            return bad  # map-level checks need a structurally sound diagram

        # One pass per component, in crossing order (rules in the module
        # docstring).  Every edge joins two half-edges of one component,
        # so E = 2V there.
        t = self.half_edges()
        face_comp = [t.comp[f[0] >> 2] for f in t.faces]
        vertices, faces = Counter(t.comp), Counter(face_comp)
        odd: Dict[int, List[int]] = {root: [] for root in vertices}
        ends: Dict[int, List[int]] = {root: [] for root in vertices}
        # each end g of an odd edge flips the face of corner g - 1, which leaves by it
        flips = [0] * len(t.faces)
        for g in compress(range(len(t.epar)), t.epar):
            flips[t.face[(g & ~3) | ((g - 1) & 3)]] ^= 1
        for f in compress(range(len(flips)), flips):
            odd[face_comp[f]].append(f)
        for f in self.external_face_indices() or ():
            ends[face_comp[f]].append(f)
        for root, v in vertices.items():  # first seen at their own index, so in order
            euler = faces[root] - v
            if euler != 2:
                bad.append(
                    "component at crossing %s has V-E+F = %d, expected 2 (non-planar gluing)"
                    % (t.order[root], euler)
                )
                continue
            here, marks = odd[root], ends[root]
            if len(marks) == 2:
                fits = here == (sorted(marks) if marks[0] != marks[1] else [])
            else:
                fits = not here or len(here) == 2 and set(marks) <= set(here)
            if not fits:
                bad.append(
                    "cut parities are odd around faces %r but the boundary circles "
                    "sit in faces %r" % (here, sorted(set(marks)))
                )
        return bad

    # -- faces and strands ---------------------------------------------------

    def _darts(self, cycles: List[List[int]]) -> Tuple[Tuple[Dart, ...], ...]:
        """Int cycles with each half-edge h as the dart (crossing id, slot)."""
        order = self.half_edges().order
        return tuple(tuple((order[h >> 2], h & 3) for h in cycle) for cycle in cycles)

    def trace_faces(self) -> Tuple[Tuple[Corner, ...], ...]:
        """All faces, each as its cyclic corner sequence."""
        return self._cached("faces", lambda: self._darts(self.half_edges().faces))

    def corner_face(self) -> Dict[Corner, int]:
        """corner -> index into trace_faces()."""
        return self._cached(
            "corner_face",
            lambda: {corner: i for i, face in enumerate(self.trace_faces()) for corner in face},
        )

    def external_face_indices(self) -> Tuple[int, int] | None:
        """Face indices of the two external markers, or None if sentinel."""
        if self.external[0] == UNBOUNDED or self.external[1] == UNBOUNDED:
            return None
        t = self.half_edges()
        (c0, k0), (c1, k1) = self.external  # type: ignore[misc]
        return (t.face[4 * t.order.index(c0) + k0], t.face[4 * t.order.index(c1) + k1])

    def strand_walks(self) -> Tuple[Tuple[Dart, ...], ...]:
        """Closed strand walks through crossings, one per link component
        that meets a crossing.  Each walk lists arrival darts; the strand
        enters at slot s and leaves through slot s+2.  Free loops are not
        included (they carry no darts)."""
        return self._cached("walks", lambda: self._darts(self.half_edges().walks))

    def component_count(self) -> int:
        return len(self.half_edges().walks) + len(self.free_loops)


def _turned(values: List[int], k: int) -> List[int]:
    """``values`` read k slots further counterclockwise at the same
    crossing: out[h] = values[(h & ~3) | ((h + k) & 3)]."""
    out = [0] * len(values)
    for s in range(4):
        out[s::4] = values[(s + k) % 4::4]
    return out


def _cycles(step: List[int], passages: bool = False) -> Tuple[List[int], List[List[int]]]:
    """(label, cycles) of h -> step[h]: each cycle is labelled by its index
    and listed in trace order from its smallest member.  With ``passages``
    a visit to h also claims h ^ 2, the other end of its passage, for the
    same cycle (a strand walk never arrives at both ends of one passage)."""
    label = [-1] * len(step)
    cycles: List[List[int]] = []
    for h0 in range(len(step)):
        if label[h0] < 0:
            k = len(cycles)
            cycle: List[int] = []
            cycles.append(cycle)
            h = h0
            while label[h] < 0:
                label[h] = k
                cycle.append(h)
                if passages:
                    label[h ^ 2] = k
                h = step[h]
    return label, cycles


def _build_half_edges(d: AnnularDiagram) -> HalfEdges:
    """One pass over the slots pairs the two ends of every edge; faces,
    walks and components then follow from ``mate`` alone."""
    crossings, parity = d.crossings, d.edge_parity
    eids = [eid for slots in crossings.values() for eid in slots]
    mate = [-1] * len(eids)
    first: Dict[str, int] = {}
    for h, eid in enumerate(eids):
        g = first.setdefault(eid, h)
        if g != h:
            mate[g], mate[h] = h, g
    # An edge met once leaves a -1; one met three times or more leaves
    # fewer distinct edges than half the slots.
    if (
        any(len(slots) != 4 for slots in crossings.values())
        or -1 in mate
        or 2 * len(first) != len(eids)
        or first.keys() != parity.keys()
    ):
        raise ValueError("broken edge references; validate() lists them")
    face, faces = _cycles(_turned(mate, 1))
    walks = _cycles(_turned(mate, 2), passages=True)[1]
    comp = [-1] * len(crossings)
    for root in range(len(comp)):  # a breadth-first search from each lowest unreached crossing
        if comp[root] < 0:
            comp[root] = root
            queue = [root]
            for i in queue:
                for h in mate[4 * i : 4 * i + 4]:
                    if comp[h >> 2] < 0:
                        comp[h >> 2] = root
                        queue.append(h >> 2)
    return HalfEdges(list(crossings), eids, mate, [parity[eid] for eid in eids], face, faces, walks, comp)


# -- builders ------------------------------------------------------------


def from_free_loops(parities: Sequence[int]) -> AnnularDiagram:
    """A diagram with no crossings: one free loop per parity bit."""
    return AnnularDiagram({}, {}, tuple(parities), (UNBOUNDED, UNBOUNDED))


# (NW, NE, SW, SE) slots of a negative and a positive braid crossing.
# NW/NE attach upward to positions i/i+1, SW/SE downward; for a positive
# generator the strand entering at NW passes over.  Slots run
# counterclockwise with the under-strand on slots 0 and 2, so the west
# corner (NW to SW) is the NW slot and the east corner (SE to NE) the SE slot.
_BRAID_SLOTS = ((2, 1, 3, 0), (3, 2, 0, 1))


def from_braid_closure(word: Sequence[int], strands: int, *, disk: bool = False) -> AnnularDiagram:
    """Close a braid word around the annulus.

    ``word`` lists nonzero generator indices: +i crosses position i over
    position i+1, -i crosses it under.  Rows are stacked top to bottom
    and each position's bottom end wraps back to its top end.  Wrap
    edges cross the cut arc once (parity 1); in-braid edges have parity
    0.  Positions never involved in a crossing become free loops of
    parity 1.  The inner external face is the region on the low-index
    side of the leftmost used column, the outer one mirrors it on the
    right.

    With ``disk=True`` the same map is produced as a planar (trace)
    closure instead: every parity is 0 and both external markers name
    the region left of the leftmost used column, which is the unbounded
    region of the planar picture.
    """
    if strands < 1:
        raise ValueError("strands must be >= 1")
    if strands > MAX_SIZE:
        raise ValueError("strands must be <= %d, not %d" % (MAX_SIZE, strands))
    for g in word:
        if g == 0 or abs(g) >= strands:
            raise ValueError("generator %r out of range for %d strands" % (g, strands))

    slots = [["", "", "", ""] for _ in word]  # per row, filled as edges are wired
    parity: Dict[str, int] = {}
    open_end: List[Tuple[int, int] | None] = [None] * (strands + 1)  # (row, slot)
    first_end: List[Tuple[int, int] | None] = [None] * (strands + 1)

    def new_edge(a: Tuple[int, int], b: Tuple[int, int], par: int) -> None:
        eid = "e%d" % len(parity)
        parity[eid] = par
        slots[a[0]][a[1]] = slots[b[0]][b[1]] = eid

    for row, g in enumerate(word):
        i = abs(g)
        nw, ne, sw, se = _BRAID_SLOTS[g > 0]
        for pos, slot in ((i, nw), (i + 1, ne)):
            if open_end[pos] is None:
                first_end[pos] = (row, slot)
            else:
                new_edge(open_end[pos], (row, slot), 0)
        open_end[i], open_end[i + 1] = (row, sw), (row, se)

    wrap = 0 if disk else 1
    loops: List[int] = []
    for top, bottom in zip(first_end[1:], open_end[1:]):
        if top is None or bottom is None:  # the position meets no crossing
            loops.append(wrap)
        else:
            new_edge(bottom, top, wrap)

    crossings = {"x%d" % row: tuple(quad) for row, quad in enumerate(slots, start=1)}
    external: Tuple[Designator, Designator] = (UNBOUNDED, UNBOUNDED)
    if word:
        lo, lo_g = min(enumerate(word, start=1), key=lambda rg: abs(rg[1]))
        hi, hi_g = max(enumerate(word, start=1), key=lambda rg: abs(rg[1]))
        west = ("x%d" % lo, _BRAID_SLOTS[lo_g > 0][0])
        east = ("x%d" % hi, _BRAID_SLOTS[hi_g > 0][3])
        external = (west, west) if disk else (west, east)

    return AnnularDiagram(crossings, parity, loops, external)


def from_disk_pd(pd: Sequence[Sequence[int]]) -> AnnularDiagram:
    """Build a classical diagram in a disk from a planar-diagram code.

    Each entry lists the four edge labels around a crossing counter-
    clockwise starting from the incoming under-strand, which matches the
    slot convention directly.  All cut parities are 0 and both external
    markers name the face at corner 0 of the first crossing.
    """
    crossings: Dict[str, Tuple[str, str, str, str]] = {}
    parity: Dict[str, int] = {}
    for k, quad in enumerate(pd, start=1):
        if len(quad) != 4:
            raise ValueError("PD entry %d has %d labels, expected 4" % (k, len(quad)))
        names = tuple("e%d" % lab for lab in quad)
        crossings["x%d" % k] = names  # type: ignore[assignment]
        for eid in names:
            parity[eid] = 0
    if not crossings:
        return from_free_loops(())
    ref = ("x1", 0)
    return AnnularDiagram(crossings, parity, (), (ref, ref))


# -- moves -----------------------------------------------------------------


def _fresh_ids(d: AnnularDiagram, want_crossings: int, want_edges: int):
    cnum = 0
    while any(("x%d" % (cnum + i + 1)) in d.crossings for i in range(want_crossings)):
        cnum += 1
    enum = 0
    while any(("e%d" % (enum + i)) in d.edge_parity for i in range(want_edges)):
        enum += 1
    return (
        ["x%d" % (cnum + i + 1) for i in range(want_crossings)],
        ["e%d" % (enum + i) for i in range(want_edges)],
    )


def _rewire(crossings: Dict[str, Tuple[str, ...]], t: HalfEdges, h: int, eid: str) -> None:
    """Point half-edge h of table ``t`` at edge ``eid``, replacing its
    crossing's tuple."""
    c = t.order[h >> 2]
    slots = list(crossings[c])
    slots[h & 3] = eid
    crossings[c] = tuple(slots)


def insert_r1(d: AnnularDiagram, edge: Union[str, int], sign: int = 1) -> AnnularDiagram:
    """Insert a kink on an edge (or, with an int index, on a free loop).

    ``sign=+1`` produces the kink whose bracket factor is -A^3 and whose
    crossing signs as +1 under any orientation; ``sign=-1`` the mirror.
    The split edge keeps its cut parity on one piece so every circle
    parity is preserved.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    (cid,), (e_a, e_loop, e_b) = _fresh_ids(d, 1, 3)
    crossings = dict(d.crossings)
    parity = dict(d.edge_parity)
    loops = list(d.free_loops)
    external = d.external

    if isinstance(edge, int):
        if not 0 <= edge < len(loops):
            raise ValueError("free loop index %d out of range for %d loops" % (edge, len(loops)))
        # Kink a free loop: it becomes a one-crossing circle on edge e_a.
        parity[e_a] = loops.pop(edge)
        parity[e_loop] = 0
        e_b = e_a
        if not d.crossings:
            # Both markers at the corner between the strand's two slots,
            # unless the circle is essential: it separates the boundary
            # circles, so the outer marker goes across the strand.
            inner = (cid, 1 if sign > 0 else 2)
            outer = (cid, 0 if sign > 0 else 3) if parity[e_a] else inner
            external = (inner, outer)
    else:
        if edge not in d.edge_parity:
            raise ValueError("unknown edge %r" % edge)
        t = d.half_edges()
        h = t.eid.index(edge)
        parity[e_a] = parity.pop(edge)
        parity[e_loop] = parity[e_b] = 0
        _rewire(crossings, t, h, e_a)
        _rewire(crossings, t, t.mate[h], e_b)

    # Positive kink: the small loop joins slots 3-0 (one A-smoothing pair)
    # and the strand runs in at slot 1, out at slot 2.  Negative kink: the
    # loop joins 0-1 (a B-pair) and the strand runs in at 2, out at 3.
    crossings[cid] = (e_loop, e_a, e_b, e_loop) if sign > 0 else (e_loop, e_loop, e_a, e_b)
    return AnnularDiagram(crossings, parity, loops, external)


def insert_r2(d: AnnularDiagram, edge1: str, edge2: str) -> AnnularDiagram:
    """Slide edge1 across a shared face so it passes over edge2.

    The two edges must lie on a common traced face; the finger move adds
    two crossings at which edge1's strand is the over-strand.  Raises
    ValueError when no common face exists.
    """
    if edge1 == edge2:
        raise ValueError("need two distinct edges")
    for e in (edge1, edge2):
        if e not in d.edge_parity:
            raise ValueError("unknown edge %r" % e)

    # Find the first arrival h1, h2 of each edge on the first face that
    # has both: the face boundary traverses the two edges in opposite
    # senses, which fixes the planar gluing of the finger.
    t = d.half_edges()
    for face in t.faces:
        ids = [t.eid[h] for h in face]
        if edge1 in ids and edge2 in ids:
            break
    else:
        raise ValueError("edges %r and %r do not bound a common face" % (edge1, edge2))

    # The finger tip sweeps over the stretch of face boundary strictly
    # between h1 and h2.  Cut-arc strands pinned there end up under the
    # finger, so the stub parities on that side must absorb their count
    # for every face to stay even.  A boundary circle at h1's corner or
    # in the stretch counts once: the arc ends there.
    i1, i2 = ids.index(edge1), ids.index(edge2)
    h1, h2 = face[i1], face[i2]
    stretch = face[i1 + 1 : i2] if i1 < i2 else face[i1 + 1 :] + face[:i2]
    darts = [(t.order[h >> 2], h & 3) for h in [h1] + stretch]
    swept = (sum(t.epar[h] for h in stretch) + sum(ref in darts for ref in d.external)) & 1

    # The boundary walk keeps its face on the right, so edge1 is traversed
    # u_a -> u_b and edge2 the opposite way, v_a -> v_b, around the face.
    u_b, u_a, v_b, v_a = h1, t.mate[h1], h2, t.mate[h2]

    (c_l, c_r), (t_w, t_m, t_e, b_w, b_m, b_e) = _fresh_ids(d, 2, 6)
    crossings = dict(d.crossings)
    parity = dict(d.edge_parity)

    # Left crossing: slots (0,1,2,3) = (B toward right, T outer-west,
    # B outer-west, T toward right).  Right crossing: slots = (B outer-
    # east, T outer-east, B toward left, T toward left).  edge1 = T is
    # the over-strand (slots 1/3) at both crossings.
    parity[t_w] = parity.pop(edge1)
    parity[t_m] = 0
    parity[t_e] = 0
    parity[b_w] = parity.pop(edge2) ^ swept
    parity[b_m] = 0
    parity[b_e] = swept

    _rewire(crossings, t, u_a, t_w)
    _rewire(crossings, t, u_b, t_e)
    _rewire(crossings, t, v_b, b_w)
    _rewire(crossings, t, v_a, b_e)
    crossings[c_l] = (b_m, t_w, b_w, t_m)
    crossings[c_r] = (b_e, t_e, b_m, t_m)

    out = AnnularDiagram(crossings, parity, d.free_loops, d.external)
    bad = out.validate()
    if bad:
        raise ValueError("finger move produced an invalid map: %s" % "; ".join(bad))
    return out


def _removals(d: AnnularDiagram) -> List[Tuple[Set[int], int]]:
    """(crossing indices, kink sign) of every removable face of ``d``, the
    monogons and then the bigons, each in face order (R1 and R2 in the
    module docstring); a bigon's sign is 0."""
    t = d.half_edges()
    ext = d.external_face_indices() or ()
    faces = [f for k, f in enumerate(t.faces) if k not in ext and len(f) <= 2]
    kinks = [({h >> 2}, 1 if h & 1 else -1) for h, *rest in faces if not rest and not t.epar[h]]
    bigons = [
        ({a >> 2, b >> 2}, 0)
        for a, *rest in faces
        for b in rest
        if a >> 2 != b >> 2 and (a ^ b) & 1 and t.epar[a] == t.epar[b]
    ]
    return kinks + bigons


def _excise(d: AnnularDiagram, gone: Set[int]) -> Optional[AnnularDiagram]:
    """``d`` without the crossings of index in ``gone``, each strand through
    them rejoined and each boundary marker on them moved (rules in the
    module docstring); None when a marker finds no surviving corner, or
    when a disconnected ``d``, where a removal need not be an isotopy
    (an unmarked face may hold another component), gives a map that
    fails `validate` (no such removal is known).  A rejoined edge keeps
    the id of its lower surviving end's old edge.  Raises ValueError
    when a connected valid ``d`` gives an invalid map."""
    t = d.half_edges()
    epar, eid = t.epar, t.eid
    cut = [h >> 2 in gone for h in range(len(epar))]
    crossings = {c: slots for i, (c, slots) in enumerate(d.crossings.items()) if i not in gone}
    parity = dict(d.edge_parity)
    for h in compress(range(len(cut)), cut):
        parity.pop(eid[h], None)
    loops = list(d.free_loops)
    free = [False] * len(cut)  # a cut half-edge on a new loop
    for walk in t.walks:
        ends = [i for i, h in enumerate(walk) if not cut[h]]  # its surviving arrivals
        if not ends:
            loops.append(sum(epar[h] for h in walk) & 1)
            for h in walk:
                free[h] = free[h ^ 2] = True
            continue
        ring = walk + walk[: ends[0] + 1]
        for a, b in zip(ends, ends[1:] + [ends[0] + len(walk)]):
            if b > a + 1:  # the stretch from departure a to arrival b passes cut crossings
                lo, hi = sorted((ring[a] ^ 2, ring[b]))
                parity[eid[lo]] = sum(epar[h] for h in ring[a + 1 : b + 1]) & 1
                _rewire(crossings, t, hi, eid[lo])

    external: List[Designator] = []
    for ref in d.external:
        if not crossings:
            ref = UNBOUNDED
        elif ref != UNBOUNDED and ref[0] not in crossings:
            h = _surviving_corner(t, cut, free, 4 * t.order.index(ref[0]) + ref[1])
            if h is None:
                return None
            ref = (t.order[h >> 2], h & 3)
        external.append(ref)
    out = AnnularDiagram(crossings, parity, loops, (external[0], external[1]))
    bad = out.validate()
    if bad and not d.validate():
        if len(set(t.comp)) > 1:
            return None
        raise ValueError("removal produced an invalid map: %s" % "; ".join(bad))
    return out


def _surviving_corner(t: HalfEdges, cut: List[bool], free: List[bool], h: int) -> Optional[int]:
    """The first corner at a surviving crossing reached from corner h by
    face steps, or across an edge of a new free loop (corner h leaves
    by half-edge g, across whose edge lies corner g); None if none is."""
    queue, seen = [h], {h}
    for h in queue:
        if not cut[h]:
            return h
        g = (h & ~3) | ((h + 1) & 3)
        for nxt in (t.mate[g], g) if free[g] else (t.mate[g],):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return None


def _remove(d: AnnularDiagram, ids: Sequence[str], move: str) -> AnnularDiagram:
    """`_excise` of the removable face at the crossings ``ids``, all distinct."""
    order = d.half_edges().order
    gone = {order.index(c) for c in ids if c in d.crossings}
    if len(gone) == len(ids) and any(face == gone for face, _ in _removals(d)):
        out = _excise(d, gone)
        if out is not None:
            return out
    raise ValueError("no removable %s at %s" % (move, ", ".join(map(repr, ids))))


def remove_r1(d: AnnularDiagram, crossing: str) -> AnnularDiagram:
    """Remove the kink at ``crossing``, the inverse of `insert_r1` (rule R1
    in the module docstring).  Raises ValueError when no removable
    monogon sits there."""
    return _remove(d, [crossing], "kink")


def remove_r2(d: AnnularDiagram, c1: str, c2: str) -> AnnularDiagram:
    """Remove the bigon between ``c1`` and ``c2``, the inverse of
    `insert_r2` (rule R2 in the module docstring).  Raises ValueError
    when no removable bigon joins them."""
    return _remove(d, [c1, c2], "bigon")


def simplify(d: AnnularDiagram) -> Tuple[AnnularDiagram, int]:
    """(diagram, dw): ``d`` with kinks removed, then bigons, the lowest
    removable face first, until `_excise` refuses each face left (it
    would strand a boundary marker, or leave a disconnected ``d`` failing
    `validate`), and dw the writhe of the removed kinks, so
    that <d> = (-A^3)^dw <diagram> (rules R1 and R2 in the module
    docstring).  A diagram with no removable face is returned as it is,
    cached tables and all."""
    dw = 0
    while True:
        for gone, sign in _removals(d):
            out = _excise(d, gone)
            if out is not None:
                d, dw = out, dw + sign
                break
        else:
            return d, dw


def apply_full_twist(word: Sequence[int], strands: int, sign: int = 1) -> List[int]:
    """Append a full twist on all strands to a braid word.

    The closure of the result is the same link in S1 x S2 as the closure
    of ``word``, re-embedded in the annulus; on one strand the word is
    unchanged.  ``sign=-1`` appends the inverse twist.
    """
    if strands < 1:
        raise ValueError("strands must be >= 1")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    twist: List[int] = []
    gens = list(range(1, strands))
    for _ in range(strands):
        if sign > 0:
            twist.extend(gens)
        else:
            twist.extend(-g for g in reversed(gens))
    return list(word) + twist


def mirror_diagram(d: AnnularDiagram) -> AnnularDiagram:
    """Reflect the diagram: every crossing switches handedness.

    Combinatorially each rotation is reversed while the under-strand
    stays on slots 0 and 2; corner k becomes corner 3-k.  The bracket of
    the mirror is the original bracket with A replaced by A^-1.
    """
    crossings = {
        cid: (slots[0], slots[3], slots[2], slots[1])
        for cid, slots in d.crossings.items()
    }

    def flip(ref: Designator) -> Designator:
        if ref == UNBOUNDED:
            return ref
        c, k = ref  # type: ignore[misc]
        return (c, (3 - k) % 4)

    return AnnularDiagram(
        crossings,
        dict(d.edge_parity),
        d.free_loops,
        (flip(d.external[0]), flip(d.external[1])),
    )

