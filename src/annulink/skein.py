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

`bracket_gray` visits the 2^n smoothings in one Gray-code walk from
the all-plus state, updating the circle decomposition incrementally at
the one crossing that changed; it is the route used in production.
`bracket` enumerates them independently and is its oracle: the two
must always agree and are never merged.  Each memoises its value on
the diagram under its own key, so a diagram is evaluated at most once
per route and neither route can read the other's result.  Both refuse
diagrams with more than MAX_CROSSINGS crossings rather than start a
hopeless enumeration.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .diagram import AnnularDiagram
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


# -- compiled half-edge tables ------------------------------------------------


def _tables(d: AnnularDiagram) -> Tuple[List[str], List[int], List[int]]:
    """(crossing order, mate, edge parity) with half-edge h = 4*crossing + slot."""
    if "skein_tables" not in d._cache:
        order = list(d.crossings)
        index = {cid: i for i, cid in enumerate(order)}
        mate = [0] * (4 * len(order))
        epar = [0] * (4 * len(order))
        for eid, ends in d.edge_ends().items():
            (c1, s1), (c2, s2) = ends
            h1, h2 = 4 * index[c1] + s1, 4 * index[c2] + s2
            mate[h1], mate[h2] = h2, h1
            epar[h1] = epar[h2] = d.edge_parity[eid]
        d._cache["skein_tables"] = (order, mate, epar)
    return d._cache["skein_tables"]  # type: ignore[return-value]


def _partner_for(sign: int, h: int) -> int:
    return h ^ (3 if sign > 0 else 1)  # slot s pairs with 3-s (+1) or s^1 (-1)


def _label_circles(
    d: AnnularDiagram, signs: Sequence[int]
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """Trace every circle of one smoothing, free loops excluded.

    Returns (circle, parity, pos, prefix): the circle index of every
    half-edge, the parity of every circle, and for every half-edge its
    position along its circle and the parity of the edges crossed
    before reaching it.  Circles are numbered, and traced, from their
    smallest half-edge; the trace leaves an even position along an edge
    and an odd position along an arc of the smoothing."""
    order, mate, epar = _tables(d)
    ident = [-1] * (4 * len(order))
    pos = [0] * len(ident)
    prefix = [0] * len(ident)
    parity: List[int] = []
    for h0 in range(len(ident)):
        if ident[h0] >= 0:
            continue
        k = len(parity)
        par = 0
        step = 0
        cur = h0
        while True:
            m = mate[cur]
            ident[cur] = ident[m] = k
            pos[cur], pos[m] = step, step + 1
            prefix[cur] = par
            par ^= epar[cur]
            prefix[m] = par
            step += 2
            cur = m ^ 3 if signs[m >> 2] > 0 else m ^ 1
            if cur == h0:
                break
        parity.append(par)
    return ident, parity, pos, prefix


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

    Free loops are counted in ``trivial`` and ``essential``.
    """
    if sign not in (1, -1):
        raise ValueError("smoothing signs must be +1 or -1")
    ident, parity, pos, prefix = _label_circles(d, [sign] * d.n)
    trivial = parity.count(0) + d.free_loops.count(0)
    essential = len(parity) + len(d.free_loops) - trivial
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
        leaves = j if pos[j] % 2 == 0 else j ^ old
        enters = j ^ 2 if pos[j ^ 2] % 2 else j ^ new
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
    order.  Free loops are counted by their own parity.
    """
    parity = _label_circles(d, _state_signs(d, state))[1]
    trivial = parity.count(0) + d.free_loops.count(0)
    return trivial, len(parity) + len(d.free_loops) - trivial


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
    order = _tables(d)[0]
    corners: List[List[Tuple[str, int]]] = [[] for _ in parity]
    for h, k in enumerate(ident):
        corners[k].append((order[h >> 2], h & 3))
    out = [(frozenset(c), par) for c, par in zip(corners, parity)]
    for p in d.free_loops:
        out.append((frozenset(), p & 1))
    return out


# -- state sums ---------------------------------------------------------------


def _assemble(hist: Dict[Tuple[int, int, int], int]) -> LaurentPoly:
    coeffs: Dict[int, int] = {}
    for (ssum, triv, ess), count in hist.items():
        a = alpha(ess)
        if a == 0:
            continue
        for exp, c in delta_power(triv).to_pairs():
            e = exp + ssum
            coeffs[e] = coeffs.get(e, 0) + c * a * count
    return LaurentPoly(coeffs)


def _check_size(d: AnnularDiagram) -> None:
    if d.n > MAX_CROSSINGS:
        raise BracketSizeError(
            "diagram has %d crossings; enumeration is capped at %d"
            % (d.n, MAX_CROSSINGS)
        )


def bracket(d: AnnularDiagram) -> LaurentPoly:
    """Reference bracket: resolve all 2^n smoothings from scratch.

    Each state is traced independently; the only state shared between
    iterations is a visit-stamp array, so this route has none of the
    incremental bookkeeping `bracket_gray` relies on.  The value is
    memoised on the diagram under this route's own key.
    """
    _check_size(d)
    if "bracket:plain" not in d._cache:
        d._cache["bracket:plain"] = _assemble(_plain_states(d))
    return d._cache["bracket:plain"]  # type: ignore[return-value]


def _plain_states(d: AnnularDiagram) -> Dict[Tuple[int, int, int], int]:
    """Histogram of smoothing invariants over all 2^n states, each traced
    from scratch."""
    order, mate, epar = _tables(d)
    n = len(order)
    total = 4 * n
    free_triv = sum(1 for p in d.free_loops if p == 0)
    free_ess = len(d.free_loops) - free_triv
    plus = [(h & ~3) | (3 - (h & 3)) for h in range(total)]
    minus = [(h & ~3) | ((h & 3) ^ 1) for h in range(total)]
    visited = [-1] * total
    hist: Dict[Tuple[int, int, int], int] = {}
    for bits in range(1 << n):
        triv = ess = 0
        for h0 in range(total):
            if visited[h0] == bits:
                continue
            par = 0
            cur = h0
            while True:
                m = mate[cur]
                visited[cur] = bits
                visited[m] = bits
                par ^= epar[cur]
                cur = minus[m] if bits >> (m >> 2) & 1 else plus[m]
                if cur == h0:
                    break
            if par:
                ess += 1
            else:
                triv += 1
        key = (n - 2 * bits.bit_count(), triv + free_triv, ess + free_ess)
        hist[key] = hist.get(key, 0) + 1
    return hist


def _gray_states(d: AnnularDiagram) -> Dict[Tuple[int, int, int], int]:
    """Histogram of smoothing invariants over all 2^n states, visited in
    Gray-code order from the all-plus state."""
    order, mate, epar = _tables(d)
    n = len(order)
    total = 4 * n
    free_triv = sum(1 for p in d.free_loops if p == 0)
    free_ess = len(d.free_loops) - free_triv

    signs = [1] * n
    partner = [_partner_for(1, h) for h in range(total)]

    # Circle decomposition of the all-plus state.
    ident, seed_parity = _label_circles(d, signs)[:2]
    parity: Dict[int, int] = dict(enumerate(seed_parity))
    next_id = len(seed_parity)
    ntriv = seed_parity.count(0)
    ness = next_id - ntriv

    def walk(h0: int) -> Tuple[List[int], int]:
        par = 0
        cur = h0
        members = []
        while True:
            m = mate[cur]
            members.append(cur)
            members.append(m)
            par ^= epar[cur]
            cur = partner[m]
            if cur == h0:
                break
        return members, par

    hist: Dict[Tuple[int, int, int], int] = {}
    states = 1 << n
    pop = 0
    for i in range(1, states + 1):
        key = (n - 2 * pop, ntriv + free_triv, ness + free_ess)
        hist[key] = hist.get(key, 0) + 1
        if i == states:
            break
        t = (i & -i).bit_length() - 1  # flipped crossing
        j = 4 * t
        old_sign = signs[t]
        new_sign = -old_sign
        signs[t] = new_sign
        pop += 1 if new_sign < 0 else -1
        if old_sign > 0:
            ia, ib = ident[j], ident[j + 1]  # arcs (j,j+3) and (j+1,j+2)
        else:
            ia, ib = ident[j], ident[j + 2]  # arcs (j,j+1) and (j+2,j+3)
        for h in (j, j + 1, j + 2, j + 3):
            partner[h] = _partner_for(new_sign, h)
        if ia != ib:
            # merge two circles
            members, par = walk(j)
            for h in members:
                ident[h] = next_id
            for dead in (ia, ib):
                if parity.pop(dead):
                    ness -= 1
                else:
                    ntriv -= 1
            parity[next_id] = par
            if par:
                ness += 1
            else:
                ntriv += 1
            next_id += 1
        else:
            members, par = walk(j)
            other = j + 1 if new_sign > 0 else j + 2  # on the second new arc
            if other in members:
                continue  # circle reconnected to itself: nothing changed
            members2, par2 = walk(other)
            for h in members:
                ident[h] = next_id
            for h in members2:
                ident[h] = next_id + 1
            if parity.pop(ia):
                ness -= 1
            else:
                ntriv -= 1
            for new_id, new_par in ((next_id, par), (next_id + 1, par2)):
                parity[new_id] = new_par
                if new_par:
                    ness += 1
                else:
                    ntriv += 1
            next_id += 2
    return hist


def bracket_gray(d: AnnularDiagram) -> LaurentPoly:
    """Bracket via Gray-code enumeration with incremental circle updates.

    One walk visits every smoothing from the all-plus state, flipping
    one crossing per step and re-tracing only the circles through it.
    The value is memoised on the diagram under this route's own key.
    """
    _check_size(d)
    if "bracket:gray" not in d._cache:
        d._cache["bracket:gray"] = _assemble(_gray_states(d))
    return d._cache["bracket:gray"]  # type: ignore[return-value]


# -- orientation-dependent quantities ----------------------------------------


def writhe(d: AnnularDiagram, orientation: Union[Sequence[int], None] = None) -> int:
    """Sum of crossing signs under the chosen component orientations.

    ``orientation`` gives a direction (+1 forward, -1 reversed) for each
    component, listed as the strand walks in `strand_walks` order
    followed by the free loops; None orients every component forward.
    A forward passage through a crossing enters at slot s and leaves at
    s+2; a crossing counts +1 when the under-strand leaves one slot
    clockwise of where the over-strand leaves, -1 otherwise.
    Self-crossings of a component keep their sign when the component is
    reversed, so knots have a well-defined writhe.
    """
    walks = d.strand_walks()
    ncomp = len(walks) + len(d.free_loops)
    if orientation is None:
        dirs = [1] * ncomp
    else:
        dirs = list(orientation)
        if len(dirs) != ncomp or any(o not in (1, -1) for o in dirs):
            raise ValueError(
                "orientation must give +1 or -1 for each of the %d components"
                % ncomp
            )
    exits: Dict[str, Dict[str, int]] = {}
    for k, walk in enumerate(walks):
        for c, s in walk:
            kind = "under" if s % 2 == 0 else "over"
            exits.setdefault(c, {})[kind] = (s + 2) % 4 if dirs[k] > 0 else s
    total = 0
    for c, seen in exits.items():
        if len(seen) != 2:
            raise AssertionError("crossing %s missing a passage" % c)
        total += 1 if seen["under"] == (seen["over"] - 1) % 4 else -1
    return total


def jones(
    d: AnnularDiagram, orientation: Union[Sequence[int], None] = None
) -> LaurentPoly:
    """Bracket rescaled by (-A^3)^(-writhe), which is unchanged by
    kink insertion and the other moves that preserve the link."""
    w = writhe(d, orientation)
    poly = bracket_gray(d)
    scaled = poly.shift(-3 * w)
    return scaled if w % 2 == 0 else -scaled
