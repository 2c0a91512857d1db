"""Kauffman bracket state sums for annular diagrams.

A smoothing assigns +1 or -1 to every crossing: +1 reconnects slots
0-3 and 1-2 (the pair whose corners touch the under-strand's incoming
side), -1 reconnects 0-1 and 2-3.  Every smoothing turns the diagram
into disjoint circles in the annulus; a circle is nullhomotopic exactly
when its total cut parity is even.  Writing ``sD`` for the number of
nullhomotopic circles and ``p`` for the essential ones, the bracket is

    <D> = sum over smoothings  alpha(p) * A^(sum of signs) * delta^sD

with delta = -A^2 - A^-2.  Essential circles are not worth delta each:
in S1 x S2 a pack of p parallel essential circles evaluates to
``alpha(p)``, the number of crossingless matchings of p points on a
line that can cap the pack off on both sides, which is 0 for odd p and
the (p/2)-th Catalan number for even p.  ``alpha_walk_oracle`` computes
the same quantity by a different route (counting nonnegative lattice
walks) and exists so the closed form can be cross-checked.

Normalization: the empty diagram evaluates to 1, a nullhomotopic
unknot to delta, a single essential circle to 0.

Every routine here walks the diagram's cached `half_edges` table; the
half-edge numbering and its step rules are stated once, in `diagram`.
A free loop is a circle of every smoothing, counted by its parity in
one place: `_label_circles` lists the loops after the traced circles,
and `resolve`, `state_circles`, `flip_counts` and the Gray walk read
them there.  Only `_plain_states`, the independent route, counts them
itself.

`bracket_simplified` is the route used in production, by the CLI's
`bracket` and by `jones`: `bracket_gray` of ``simplify(d)``, which has
shed its kinks and removable bigons (the rules are stated in
`diagram`), times (-A^3)^dw for the writhe dw of the removed kinks.
Each removed crossing halves the walk; a reduced diagram walks as
given.  `verify_all` and direct calls of `bracket_gray` and `bracket`
evaluate the diagram exactly as given, so the two routes are held to
the user's diagram.

`bracket_gray` is a Gray-code walk over all crossings but crossing 0
that relabels in place only the path a flip changed, counting each
state with its twin, crossing 0 flipped, in closed form: a merge, a
split or a reconnection.  Past n = 8 a probe of a few smoothings picks
the sign crossing 0 is held at (`_gray_sign`); the sign changes only
speed.
`bracket` enumerates the states independently and is its oracle: the two
must always agree and are never merged.  It runs one trace loop twice:
over the smoothings of all but the last three crossings, each traced
from scratch into closed circles and paths between the open slots, and
then over every smoothing of the three-crossing map whose edges are
those paths, once per distinct set of path ends (see `_plain_states`).
Plain closes its open crossings by tracing path ends and Gray closes
its held crossing from live circle ids, so the routes share no step.  Each
route memoises its histogram and its value on the diagram under keys of
its own, so a diagram is evaluated at most once per route and neither
route can read the other's result.
All three refuse diagrams with more than MAX_CROSSINGS crossings,
counted as given, rather than start a hopeless enumeration.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .diagram import AnnularDiagram, simplify
from .laurent import LaurentPoly, delta_power

__all__ = [
    "MAX_CROSSINGS",
    "BracketSizeError",
    "alpha",
    "alpha_walk_oracle",
    "resolve",
    "state_circles",
    "flip_counts",
    "bracket",
    "bracket_gray",
    "bracket_simplified",
    "writhe",
    "jones",
]

MAX_CROSSINGS = 26


class BracketSizeError(ValueError):
    """Raised when a state-sum enumeration would be too large to run."""


def alpha(p: int) -> int:
    """Value of a pack of p parallel essential circles.

    Zero for odd p; for p = 2m the m-th Catalan number, via the ballot
    closed form C(p, m) - C(p, m-1).
    """
    if p < 0:
        raise ValueError("circle count must be nonnegative")
    if p % 2:
        return 0
    m = p // 2
    return math.comb(p, m) - (math.comb(p, m - 1) if m else 0)


def alpha_walk_oracle(p: int) -> int:
    """Same value as `alpha`, computed independently.

    Counts lattice walks of length p with steps +-1 that start and end
    at height 0 and never go below 0, by dynamic programming over the
    height profile.
    """
    if p < 0:
        raise ValueError("circle count must be nonnegative")
    heights = {0: 1}
    for _ in range(p):
        nxt: Dict[int, int] = {}
        for h, ways in heights.items():
            nxt[h + 1] = nxt.get(h + 1, 0) + ways
            if h > 0:
                nxt[h - 1] = nxt.get(h - 1, 0) + ways
        heights = nxt
    return heights.get(0, 0)


# -- circles of one smoothing -------------------------------------------------


def _label_circles(
    d: AnnularDiagram, signs: Sequence[int]
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Label every circle of one smoothing.

    Returns (circle, parity, arc, prefix): the circle index of every
    half-edge, the parity of every circle, and for every half-edge
    whether the trace leaves it along an arc of the smoothing (1) or
    along its edge (0), and the parity of the edges crossed before
    reaching it.  Traced circles are numbered, and traced, from their
    smallest half-edge; the free loops follow in diagram order, so
    ``parity`` holds every circle and no caller counts the loops."""
    t = d.half_edges()
    mate, epar = t.mate, t.epar
    ident = [-1] * len(mate)
    arc = [0] * len(ident)
    prefix = [0] * len(ident)
    parity: List[int] = []
    for h0 in range(len(ident)):
        if ident[h0] >= 0:
            continue
        k = len(parity)
        par = 0
        cur = h0
        while True:
            m = mate[cur]
            ident[cur] = ident[m] = k
            arc[m] = 1
            prefix[cur] = par
            par ^= epar[cur]
            prefix[m] = par
            cur = m ^ 3 if signs[m >> 2] > 0 else m ^ 1
            if cur == h0:
                break
        parity.append(par)
    return ident, parity + list(d.free_loops), arc, prefix


def flip_counts(d: AnnularDiagram, sign: int) -> Tuple[int, int, List[int]]:
    """(trivial, essential, flipped) for the constant smoothing of ``sign``.

    ``flipped[i]`` is the trivial-circle count of the smoothing that
    differs from the constant one at crossing i alone.  One trace of
    the constant smoothing gives all of them.  Flipping crossing i
    removes its two arcs and joins their four ends the other way:

    * arcs on two circles: the circles merge, and the merged parity is
      the xor of theirs, so two essential circles merge into a trivial
      one;
    * arcs on one circle: cutting both leaves two paths, each running
      from the end an arc leaves to the end the other arc enters.  If
      each new arc closes one path the circle splits, and the edges
      between the cut points give the two parities (a prefix difference
      and its complement, in either order); otherwise the circle
      reconnects to itself and nothing changes.  A planar map always
      splits; reconnecting needs a map that is not planar, which a file
      that fails `validate` can still give.
    """
    if sign not in (1, -1):
        raise ValueError("smoothing signs must be +1 or -1")
    ident, parity, arc, prefix = _label_circles(d, [sign] * d.n)
    trivial = parity.count(0)
    essential = len(parity) - trivial
    old = 3 if sign > 0 else 1  # h ^ old: the partner of h now
    new = old ^ 2  # h ^ new: the partner of h after the flip
    flipped = []
    for j in range(0, 4 * d.n, 4):
        # arc 1 joins j and j ^ old, arc 2 joins j ^ new and j ^ 2
        a, b = ident[j], ident[j ^ new]
        pa = parity[a]
        if a != b:
            pb = parity[b]
            flipped.append(trivial - (pa == 0) - (pb == 0) + (pa == pb))
            continue
        # The trace comes off arc 1 at `leaves`, runs along a path and goes
        # onto arc 2 at `enters`; that path closes iff a new arc joins them.
        leaves = j ^ old if arc[j] else j
        enters = j ^ 2 if arc[j ^ 2] else j ^ new
        if leaves ^ new != enters:
            flipped.append(trivial)
            continue
        q = prefix[leaves] ^ prefix[enters]
        flipped.append(trivial - (pa == 0) + (q == 0) + (q == pa))
    return trivial, essential, flipped


def _state_signs(
    d: AnnularDiagram, state: Union[Mapping[str, int], Sequence[int]]
) -> List[int]:
    order = list(d.crossings)
    if isinstance(state, Mapping):
        missing = [c for c in order if c not in state]
        if missing:
            raise ValueError("state missing crossings: %s" % ", ".join(missing))
        signs = [state[c] for c in order]
    else:
        signs = list(state)
        if len(signs) != len(order):
            raise ValueError(
                "state has %d signs for %d crossings" % (len(signs), len(order))
            )
    if any(s not in (1, -1) for s in signs):
        raise ValueError("smoothing signs must be +1 or -1")
    return signs


def resolve(
    d: AnnularDiagram, state: Union[Mapping[str, int], Sequence[int]]
) -> Tuple[int, int]:
    """Count circles of one smoothing: (nullhomotopic, essential).

    ``state`` maps crossing ids to +-1, or lists signs in crossing
    order.
    """
    parity = _label_circles(d, _state_signs(d, state))[1]
    trivial = parity.count(0)
    return trivial, len(parity) - trivial


def state_circles(
    d: AnnularDiagram, state: Union[Mapping[str, int], Sequence[int]]
) -> List[Tuple[frozenset, int]]:
    """The circles of one smoothing, each as (corner set, parity).

    A circle is reported as the frozenset of (crossing id, slot) corners
    it runs through, together with its total cut parity (0 trivial, 1
    essential).  Free loops come last with empty corner sets.  The order
    is deterministic: circles appear by their smallest corner in table
    order, then free loops in diagram order.
    """
    ident, parity = _label_circles(d, _state_signs(d, state))[:2]
    order = d.half_edges().order
    corners: List[List[Tuple[str, int]]] = [[] for _ in parity]
    for h, k in enumerate(ident):
        corners[k].append((order[h >> 2], h & 3))
    return [(frozenset(c), par) for c, par in zip(corners, parity)]


# -- state sums ---------------------------------------------------------------


def _assemble(hist: Dict[Tuple[int, int, int], int]) -> LaurentPoly:
    """The bracket of a state histogram: the sum over its keys
    (ssum, triv, ess) of count * alpha(ess) * A^ssum * delta^triv."""
    coeffs: Dict[int, int] = {}
    for (ssum, triv, ess), count in hist.items():
        weight = alpha(ess) * count
        if weight:
            for exp, c in delta_power(triv).items():
                coeffs[exp + ssum] = coeffs.get(exp + ssum, 0) + c * weight
    return LaurentPoly(coeffs)


def _check_size(d: AnnularDiagram) -> None:
    if d.n > MAX_CROSSINGS:
        raise BracketSizeError(
            "diagram has %d crossings; enumeration is capped at %d"
            % (d.n, MAX_CROSSINGS)
        )


def bracket(d: AnnularDiagram) -> LaurentPoly:
    """Reference bracket: resolve all 2^n smoothings from scratch.

    One trace loop, `_smoothings`, runs twice: over the smoothings of
    all but the last three crossings, each traced from scratch, then
    over those of the small map formed by each distinct set of paths
    left between the open slots.  The only state shared between
    iterations is a visit-stamp array, so this route has none of the
    incremental bookkeeping `bracket_gray` relies on.  The value is
    memoised on the diagram under this route's own key.
    """
    _check_size(d)
    return d._cached("bracket:plain", lambda: _assemble(_plain_histogram(d)))


def _plain_histogram(d: AnnularDiagram) -> Dict[Tuple[int, int, int], int]:
    """`_plain_states(d)`, memoised under this route's own key."""
    return d._cached("states:plain", lambda: _plain_states(d))


def _plain_states(d: AnnularDiagram) -> Dict[Tuple[int, int, int], int]:
    """Histogram of smoothing invariants over all 2^n states: `_smoothings`
    with the last K = min(n, 3) crossings open, then once more on the
    K-crossing map of each distinct set of path ends it finds.  Three
    open crossings suit n >= 8, where the time goes: two cost more at
    every such n, and a fourth pays only from n = 10."""
    t = d.half_edges()
    n = d.n
    free_triv = d.free_loops.count(0)
    free_ess = len(d.free_loops) - free_triv
    k = min(n, 3)
    hist: Dict[Tuple[int, int, int], int] = {}
    for ends, rows in _smoothings(t.mate, t.epar, n, n - k).items():
        closings = _smoothings([e >> 1 for e in ends], [e & 1 for e in ends], k, k)[()]
        for (pop, triv, ess), count in rows.items():
            for (pop_k, triv_k, ess_k), ways in closings.items():
                key = (n - 2 * (pop + pop_k), triv + triv_k + free_triv, ess + ess_k + free_ess)
                hist[key] = hist.get(key, 0) + count * ways
    return hist


def _smoothings(
    mate: Sequence[int], epar: Sequence[int], n: int, traced: int
) -> Dict[Tuple[int, ...], Dict[Tuple[int, int, int], int]]:
    """Count the 2^traced smoothings of crossings 0 .. traced - 1 of an
    n-crossing map, the rest left open, by (minus signs, trivial,
    essential circles) under their ``ends``: for open slot a, half-edge
    4 * traced + a, ``far slot << 1 | parity`` of its path.  With
    ``traced = n`` nothing is open and the one key is ``()``.

    Each smoothing is traced from scratch, from the open slots and then
    from the even half-edges below them (every arc joins an even slot to
    an odd one, so every closed circle holds one); a trace stops at an
    open slot (a path) or back at its start (a circle).  The open slots
    come first so that every half-edge on a path is marked before a
    circle start on it could stop at the path's end and count half a
    path as a circle."""
    base = 4 * traced
    starts = list(range(base, 4 * n)) + list(range(0, base, 2))
    visited = [-1] * (4 * n)
    counts: Dict[Tuple[int, ...], Dict[Tuple[int, int, int], int]] = {}
    for bits in range(1 << traced):  # bit c puts crossing c at -
        ends = [0] * (4 * n - base)
        triv = ess = 0
        for h0 in starts:
            if visited[h0] == bits:  # on a path or circle already traced
                continue
            par = 0
            cur = h0
            while True:
                m = mate[cur]
                visited[cur] = visited[m] = bits
                par ^= epar[cur]
                if m >= base:
                    break
                cur = m ^ 1 if bits >> (m >> 2) & 1 else m ^ 3
                if cur == h0:
                    break
            if h0 >= base:
                a, b = h0 - base, m - base
                ends[a], ends[b] = b << 1 | par, a << 1 | par
            elif par:
                ess += 1
            else:
                triv += 1
        rows = counts.setdefault(tuple(ends), {})
        key = (bits.bit_count(), triv, ess)
        rows[key] = rows.get(key, 0) + 1
    return counts


def _gray_sign(d: AnnularDiagram) -> Tuple[int, int, int]:
    """(sign, shared, R): the sign the Gray walk holds crossing 0 at on
    n >= 1 crossings, from R = min(2n, 2^(n-1) // 256) smoothings drawn
    from ``random.Random(n)``.  It is the sign whose arcs, by sharing a
    circle, sent the twin on a walk in fewer probes (ties: ``+``), and
    shared counts those.  On a planar map exactly one sign's arcs share
    one, so one labelling counts both; elsewhere it is an estimate."""
    n = d.n
    probes = min(2 * n, (1 << n) >> 9)
    if not probes:  # n <= 8: a probe would cost more than it saves
        return 1, 0, 0
    rng = random.Random(n)
    plus = 0  # probes in which crossing 0's + arcs share a circle
    for _ in range(probes):
        signs = [rng.choice((1, -1)) for _ in range(n)]
        ident = _label_circles(d, signs)[0]
        plus += (ident[0] == ident[2]) == (signs[0] > 0)
    return (1, plus, probes) if 2 * plus <= probes else (-1, probes - plus, probes)


def _gray_states(d: AnnularDiagram) -> Dict[Tuple[int, int, int], int]:
    """Histogram of smoothing invariants over all 2^n states, two per step
    of a Gray-code walk over crossings 1 .. n - 1 with crossing 0 held at
    the sign of `_gray_sign` (see `bracket_gray`): step i flips crossing
    ``(i & -i).bit_length()``.  The sign changes only speed.

    Flipping crossing t replaces its two arcs.  If they lay on two
    circles, the path of the second one is relabelled into the first and
    the merged parity is the xor of the two.  If they lay on one circle,
    the path from half-edge 4t round to its new partner is relabelled
    with a fresh id: it either closed (a split, the rest keeps the old
    id and parity) or ran through the whole circle (it reconnected to
    itself, and the old id is freed).  Dead ids are reused, so at most
    2n + 1 slots are ever live.  The counts sit in one packed key of
    three fields (minus signs, trivial, essential circles), each wide
    enough for 2n traced circles and the free loops, unpacked once at
    the end."""
    t = d.half_edges()
    mate, epar = t.mate, t.epar
    n = d.n
    s = _gray_sign(d)[0]
    ident, seed = _label_circles(d, [s] + [1] * (n - 1))[:2]
    if n == 0:
        return {(0, seed.count(0), len(seed) - seed.count(0)): 1}
    parity = seed + [0] * (2 * n + 1)
    free = list(range(len(parity) - 1, len(seed) - 1, -1))
    partner = [h ^ 3 for h in range(4 * n)]
    if s < 0:  # crossing 0's - arcs
        partner[:4] = [1, 0, 3, 2]
    bits = (2 * n + len(seed)).bit_length()
    unit = (1 << bits, 1 << 2 * bits)  # key step per circle of parity 0, 1
    key = (s < 0) + seed.count(0) * unit[0] + (len(seed) - seed.count(0)) * unit[1]
    # the twin's arc from slot 0 closes a path from slot 0 that first comes back at `split`
    split = 1 if s > 0 else 3
    counts: Dict[int, int] = {}
    for i in range(1, (1 << (n - 1)) + 1):
        # the twin: crossing 0's arcs at s hold slots 0 and 2, one each
        ia, ib = ident[0], ident[2]
        if ia != ib:  # two circles merge
            pa, pb = parity[ia], parity[ib]
            k0 = key + s + unit[pa ^ pb] - unit[pa] - unit[pb]
        else:  # one circle: read the path from slot 0 to crossing 0's next slot
            par = 0
            cur = 0
            while True:
                m = mate[cur]
                par ^= epar[cur]
                if m < 4:
                    break
                cur = partner[m]
            if m == split:  # the twin's arc closes the path into a circle of its own
                pa = parity[ia]
                k0 = key + s + unit[par] + unit[pa ^ par] - unit[pa]
            else:  # m == 2: the circle reconnects to itself
                k0 = key + s
        counts[key] = counts.get(key, 0) + 1
        counts[k0] = counts.get(k0, 0) + 1
        b = (i & -i).bit_length()  # flip crossing b
        if b == n:  # every state of the other crossings is counted
            break
        j = 4 * b
        if partner[j] == j + 3:  # + to -: arcs j-(j+1), (j+2)-(j+3)
            partner[j], partner[j + 1], partner[j + 2], partner[j + 3] = j + 1, j, j + 3, j + 2
            key += 1
            nj = j + 1
        else:  # - to +: arcs j-(j+3), (j+1)-(j+2)
            partner[j], partner[j + 1], partner[j + 2], partner[j + 3] = j + 3, j + 2, j + 1, j
            key -= 1
            nj = j + 3
        ia, ib = ident[j], ident[j ^ 2]
        if ia != ib:
            # merge: ib's path runs from j ^ 2 round to nj, the other end
            # of its old arc, through no arc of crossing t = j >> 2
            cur = j ^ 2
            while True:
                m = mate[cur]
                ident[cur] = ident[m] = ia
                if m == nj:
                    break
                cur = partner[m]
            pa, pb = parity[ia], parity[ib]
            parity[ia] = pa ^ pb
            key += unit[pa ^ pb] - unit[pa] - unit[pb]
            free.append(ib)
            continue
        k = free.pop()
        par = 0
        cur = j
        while True:
            m = mate[cur]
            ident[cur] = ident[m] = k
            par ^= epar[cur]
            if m == nj:
                break
            cur = partner[m]
        pa = parity[ia]
        if ident[j ^ 2] == k:  # reconnected: the whole circle moved to k
            parity[k] = pa
            free.append(ia)
        else:
            parity[k], parity[ia] = par, pa ^ par
            key += unit[par] + unit[pa ^ par] - unit[pa]
    mask = unit[0] - 1
    hist: Dict[Tuple[int, int, int], int] = {}
    for key, count in counts.items():
        pop, triv, ess = key & mask, key >> bits & mask, key >> 2 * bits
        hist[(n - 2 * pop, triv, ess)] = count
    return hist


def bracket_gray(d: AnnularDiagram) -> LaurentPoly:
    """Bracket via Gray-code enumeration with incremental circle updates.

    Crossing 0 is held at a sign s while one walk visits the 2^(n-1)
    smoothings of the others, flipping one per step in Gray-code order
    and relabelling in place only the path whose circle changed.  At
    each state the twin with crossing 0 at -s is counted in closed form:
    if its arcs at s lie on two circles, these merge; if on one, a
    read-only walk from slot 0 comes back at the slot the twin's arc
    joins to slot 0, 1 at ``+`` and 3 at ``-`` (a circle of the walked
    parity splits off), or at slot 2 (the circle reconnects to itself).
    Crossing 0 never writes to the walk's tables.  `_gray_sign` picks s
    (``+`` up to n = 8); the sign changes only speed.  The value is
    memoised under this route's key.
    """
    _check_size(d)
    return d._cached("bracket:gray", lambda: _assemble(_gray_histogram(d)))


def _gray_histogram(d: AnnularDiagram) -> Dict[Tuple[int, int, int], int]:
    """`_gray_states(d)`, memoised under this route's own key."""
    return d._cached("states:gray", lambda: _gray_states(d))


def bracket_simplified(d: AnnularDiagram) -> LaurentPoly:
    """The bracket that CLI `bracket` prints and `jones` rescales:
    `bracket_gray` of ``simplify(d)``, whose kinks and removable bigons
    are gone, times (-A^3)^dw for the writhe dw of the removed kinks
    (rules in `diagram`).  A reduced diagram walks exactly as
    `bracket_gray(d)` does.  The size cap reads ``d`` as given, and the
    value is memoised on it under this route's own key."""
    _check_size(d)

    def evaluate() -> LaurentPoly:
        reduced, dw = simplify(d)
        return _kink_factor(bracket_gray(reduced), dw)

    return d._cached("bracket:simplified", evaluate)


def _kink_factor(poly: LaurentPoly, k: int) -> LaurentPoly:
    """``poly`` times (-A^3)^k."""
    scaled = poly.shift(3 * k)
    return -scaled if k % 2 else scaled


# -- orientation-dependent quantities ----------------------------------------


def writhe(d: AnnularDiagram, orientation: Union[Sequence[int], None] = None) -> int:
    """Sum of crossing signs under the chosen component orientations.

    ``orientation`` gives a direction (+1 forward, -1 reversed) for each
    component, listed as the strand walks in ``half_edges().walks``
    order followed by the free loops; None orients every component
    forward.
    A forward passage through a crossing enters at slot s and leaves at
    s+2; a crossing counts +1 when the under-strand leaves one slot
    clockwise of where the over-strand leaves, -1 otherwise.
    Self-crossings of a component keep their sign when the component is
    reversed, so knots have a well-defined writhe.
    """
    t = d.half_edges()
    ncomp = d.component_count()
    dirs = [1] * ncomp if orientation is None else list(orientation)
    if len(dirs) != ncomp or any(o not in (1, -1) for o in dirs):
        raise ValueError("orientation must give +1 or -1 for each of the %d components" % ncomp)
    # exits[2i] and exits[2i + 1]: the slots by which crossing i's under-
    # and over-strand leave.  A walk arriving at h leaves by h ^ 2, or by
    # h itself when its component is reversed.
    exits = [0] * (2 * d.n)
    for walk, o in zip(t.walks, dirs):
        turn = 2 if o > 0 else 0
        for h in walk:
            exits[h >> 2 << 1 | h & 1] = (h ^ turn) & 3
    return sum(1 if u == (v - 1) & 3 else -1 for u, v in zip(exits[::2], exits[1::2]))


def jones(d: AnnularDiagram, orientation: Union[Sequence[int], None] = None) -> LaurentPoly:
    """Bracket rescaled by (-A^3)^(-writhe), which is unchanged by
    kink insertion and the other moves that preserve the link."""
    return _kink_factor(bracket_simplified(d), -writhe(d, orientation))
