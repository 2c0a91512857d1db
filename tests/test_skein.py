"""State sums: counting rule, bracket routes, moves, writhe scaling."""

import importlib.util
import itertools
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulink import cli, skein
from annulink.analysis import is_connected, z2_class
from annulink.corpus import ENTRIES, get
from annulink.diagram import (
    AnnularDiagram,
    apply_full_twist,
    from_braid_closure,
    from_free_loops,
    insert_r1,
    insert_r2,
    _removals,
    mirror_diagram,
    simplify,
)
from annulink.diagfile import parse_recipe
from annulink.generate import FAMILIES, generate_family
from annulink.laurent import DELTA, ONE, ZERO, LaurentPoly
from annulink.skein import (
    MAX_CROSSINGS,
    BracketSizeError,
    alpha,
    alpha_walk_oracle,
    bracket,
    bracket_gray,
    bracket_simplified,
    jones,
    resolve,
    state_circles,
    writhe,
)
from annulink.theorems import FAIL, PASS, verify_all
from test_analysis import random_diagram, random_map
from test_diagram import engine_cases


def closure(word, strands, disk=False):
    return from_braid_closure(word, strands, disk=disk)


class TestAlpha:
    def test_small_values(self):
        assert [alpha(k) for k in range(7)] == [1, 0, 1, 0, 2, 0, 5]

    def test_catalan_closed_form(self):
        for n in range(0, 11):
            assert alpha(2 * n) == math.comb(2 * n, n) // (n + 1)

    def test_odd_vanishes(self):
        assert all(alpha(2 * n + 1) == 0 for n in range(10))

    def test_walk_oracle_agrees(self):
        # two independent routes; keep them separate on purpose
        for k in range(21):
            assert alpha(k) == alpha_walk_oracle(k)

    @pytest.mark.parametrize("route", (alpha, alpha_walk_oracle))
    def test_negative_count_raises(self, route):
        with pytest.raises(ValueError, match="nonnegative"):
            route(-1)


class TestCalibration:
    def test_empty(self):
        assert bracket(from_free_loops([])) == ONE

    def test_unknot(self):
        assert bracket(from_free_loops([0])) == DELTA

    def test_core_vanishes(self):
        assert bracket(from_free_loops([1])) == ZERO

    def test_parallel_cores(self):
        # 2k cores give the k-th Catalan number
        for k, value in ((2, 1), (4, 2), (6, 5)):
            assert bracket(from_free_loops([1] * k)) == LaurentPoly.parse(str(value))

    def test_one_crossing(self):
        assert bracket(closure([1], 2)) == LaurentPoly.parse("-A^-3")

    def test_one_crossing_mirror(self):
        assert bracket(closure([-1], 2)) == LaurentPoly.parse("-A^3")

    def test_disk_trefoil(self):
        # loop factor times the familiar three-crossing polynomial
        classical = LaurentPoly.parse("-A^5 - A^-3 + A^-7")
        assert bracket(closure([1, 1, 1], 2, disk=True)) == DELTA * classical

    def test_disk_unknot_closure(self):
        assert bracket(closure([], 2, disk=True)) == DELTA * DELTA


class TestStates:
    def test_resolve_all_positive(self):
        d = closure([1, 1, 1], 2)
        assert resolve(d, (1, 1, 1)) == (0, 2)
        assert resolve(d, (-1, -1, -1)) == (3, 0)
        assert resolve(d, {"x1": 1, "x2": 1, "x3": -1}) == (1, 0)

    def test_resolve_rejects_bad_state(self):
        d = closure([1], 2)
        with pytest.raises(ValueError):
            resolve(d, (2,))
        with pytest.raises(ValueError):
            resolve(d, {"nope": 1})

    def test_state_circles_partition_corners(self):
        d = closure([1, -2, 3], 4)
        circles = state_circles(d, (1, -1, 1))
        corners = [c for members, _ in circles for c in members]
        assert len(corners) == 4 * d.n
        assert len(set(corners)) == 4 * d.n
        assert all(par in (0, 1) for _, par in circles)

    def test_state_circles_match_resolve(self):
        d = closure([1, 1, 1, 1], 2)
        for signs in ((1, 1, 1, 1), (1, -1, 1, -1), (-1, -1, -1, -1)):
            circles = state_circles(d, signs)
            trivial = sum(1 for _, p in circles if p == 0)
            essential = sum(1 for _, p in circles if p == 1)
            assert (trivial, essential) == resolve(d, signs)


def random_population(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        strands = rng.choice((2, 3, 4))
        length = rng.randint(0, 8)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        out.append(closure(word, strands, disk=rng.random() < 0.3))
    return out


class TestRoutes:
    def test_gray_matches_plain(self):
        for d in random_population(271, 40):
            assert bracket(d) == bracket_gray(d)

    def test_mirror_diagram_matches_mirror_poly(self):
        for d in random_population(98, 15):
            assert bracket(mirror_diagram(d)) == bracket(d).mirror()

    def test_size_cap(self):
        d = closure([1] * (MAX_CROSSINGS + 1), 2)
        with pytest.raises(BracketSizeError):
            bracket(d)


class TestGrayKernel:
    """The Gray walk's whole histogram equals the plain enumeration's, not
    only the polynomial the two assemble to."""

    @given(
        st.sampled_from(("annulus", "disk", "kinks", "loops", "maps")),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_diagrams(self, kind, seed):
        d = random_diagram(kind, seed)
        assert skein._gray_states(d) == skein._plain_states(d)

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_corpus(self, name):
        d = get(name).build()
        assert skein._gray_states(d) == skein._plain_states(d)

    def test_circle_reconnecting_to_itself(self):
        # opposite slots joined (not planar): flipping reconnects the one circle
        virtual = AnnularDiagram({"x1": ("a", "b", "a", "b")}, {"a": 1, "b": 0})
        assert skein._gray_states(virtual) == {(1, 0, 1): 1, (-1, 0, 1): 1}
        assert skein._gray_states(virtual) == skein._plain_states(virtual)

    def test_free_loops_of_both_parities(self):
        base = closure([1, -2, 1, 2], 3)
        d = AnnularDiagram(base.crossings, base.edge_parity, (0, 1, 1, 0, 1), base.external)
        hist = skein._gray_states(d)
        assert hist == skein._plain_states(d)
        shifted = {(s, t + 2, e + 3): c for (s, t, e), c in skein._gray_states(base).items()}
        assert hist == shifted

    def test_packed_fields_hold_the_largest_state(self):
        # minus signs <= n and circles <= 2n, each in its own field
        assert 2 * MAX_CROSSINGS <= skein._FIELD
        assert skein._TRIVIAL == skein._FIELD + 1
        assert skein._ESSENTIAL == skein._TRIVIAL << skein._BITS


def resolved_histogram(d):
    """The state histogram built from `resolve`, one smoothing at a time."""
    hist = {}
    for signs in itertools.product((1, -1), repeat=d.n):
        key = (sum(signs),) + resolve(d, signs)
        hist[key] = hist.get(key, 0) + 1
    return hist


def literal_histogram(d):
    """The state histogram of the plain route's trace loop run once, on
    all 2^n smoothings with no crossing left open."""
    t = d.half_edges()
    free_triv = d.free_loops.count(0)
    free_ess = len(d.free_loops) - free_triv
    rows = skein._smoothings(t.mate, t.epar, d.n, d.n)[()]
    return {(d.n - 2 * pop, triv + free_triv, ess + free_ess): count for (pop, triv, ess), count in rows.items()}


def open_paths(d):
    """Every path (start, end, parity) between open slots, numbered from
    the first open crossing's slot 0, that some smoothing of the traced
    crossings gives; the last min(n, 3) crossings are open."""
    t = d.half_edges()
    traced = d.n - min(d.n, 3)
    base = 4 * traced
    paths = set()
    for signs in itertools.product((1, -1), repeat=traced):
        for h0 in range(base, 4 * d.n):
            par, cur = 0, h0
            while True:
                m = t.mate[cur]
                par ^= t.epar[cur]
                if m >= base:
                    break
                cur = m ^ 3 if signs[m >> 2] > 0 else m ^ 1
            paths.add((h0 - base, m - base, par))
    return paths


def shares_a_circle(d):
    """Whether some smoothing has a circle through every open crossing."""
    first = 4 * (d.n - min(d.n, 3))
    for signs in itertools.product((1, -1), repeat=d.n):
        ident = skein._label_circles(d, signs)[0]
        if set.intersection(*(set(ident[h : h + 4]) for h in range(first, 4 * d.n, 4))):
            return True
    return False


def in_order(d, order):
    """``d`` with its crossings listed in ``order``."""
    return AnnularDiagram({c: d.crossings[c] for c in order}, d.edge_parity, d.free_loops, d.external)


def crossing_at(d, cid, index):
    """``d`` with crossing ``cid`` moved to ``index`` in the crossing order."""
    order = [c for c in d.crossings if c != cid]
    order.insert(index, cid)
    return in_order(d, order)


def random_closure(seed, sizes):
    """A random braid closure whose crossing count lies in ``sizes``."""
    rng = random.Random(seed)
    strands = rng.randint(2, 5)
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.choice(sizes))]
    return closure(word, strands, disk=rng.random() < 0.3)


def kinked(sign, index):
    """An eight-crossing closure with an R1 kink moved to ``index``."""
    base = closure([1, -2, 1, 2, -1, 2, 1], 3)
    d = insert_r1(base, sorted(base.edge_parity)[0], sign=sign)
    (kink,) = set(d.crossings) - set(base.crossings)
    d = crossing_at(d, kink, index)
    assert d.n == 8  # crossings 5-7 are open
    h = 4 * index
    assert d.half_edges().mate[h] == h + (3 if sign > 0 else 1)
    return d


def r2_pair_appended(base):
    """``base`` with an R2 pair, which insert_r2 appends as its last two
    crossings, joined to each other by two edges."""
    face_edges = ({base.crossings[c][k] for c, k in f} for f in base.trace_faces())
    e1, e2 = sorted(next(e for e in face_edges if len(e) >= 2))[:2]
    d = insert_r2(base, e1, e2)
    t = d.half_edges()
    assert t.order[:-2] == list(base.crossings)
    last = 4 * (d.n - 1)
    assert sum(1 for h in range(last - 4, last) if t.mate[h] >= last) == 2
    return d


class TestPlainOpenCrossing:
    """The plain route, which leaves the last min(n, 3) crossings open
    and traces all 2^K smoothings of the map each distinct set of path
    ends forms, against a third evaluator: `resolve` on every smoothing
    (or, past n = 10, the Gray walk)."""

    @pytest.mark.parametrize("kind", ("annulus", "disk", "kinks", "loops", "maps"))
    def test_random_diagrams(self, kind):
        sizes = set()
        for seed in range(60):
            d = random_diagram(kind, seed)
            if d.n <= 8:
                sizes.add(d.n)
                assert skein._plain_states(d) == resolved_histogram(d)
        assert len(sizes) >= (1 if kind == "loops" else 4)

    # n = 5-8, each id with the open count that an earlier, per-size rule gave
    @pytest.mark.parametrize("n", (5, 6, 7, 8), ids=("5-1", "6-2", "7-2", "8-3"))
    def test_tier_boundaries(self, n):
        zigzag = closure([(1, -2, 3)[i % 3] for i in range(n)], 4)
        for d in [zigzag] + [random_map(n, random.Random(seed)) for seed in range(4)]:
            assert d.n == n
            assert skein._plain_states(d) == resolved_histogram(d)

    @pytest.mark.parametrize("kind", ("braids", "maps"))
    def test_three_open_against_resolve(self, kind):
        for seed in range(12):
            if kind == "braids":
                d = random_closure(seed, (8, 9, 10))
            else:
                d = random_map(8 + seed % 3, random.Random(seed))
            assert 8 <= d.n <= 10
            assert skein._plain_states(d) == resolved_histogram(d)

    @pytest.mark.parametrize("kind", ("braids", "maps"))
    def test_three_open_against_gray(self, kind):
        for seed in range(8):
            if kind == "braids":
                d = random_closure(seed, (11, 12, 13, 14))
            else:
                d = random_map(11 + seed % 4, random.Random(seed))
            assert 11 <= d.n <= 14
            assert skein._plain_states(d) == skein._gray_states(d)

    def test_no_crossings(self):
        assert skein._plain_states(from_free_loops([])) == {(0, 0, 0): 1}
        d = from_free_loops([0, 1, 1])
        assert skein._plain_states(d) == resolved_histogram(d) == {(0, 1, 2): 1}

    def test_one_crossing(self):
        # the one crossing is open and nothing is traced
        d = closure([1], 2)
        assert d.n == 1
        assert skein._plain_states(d) == resolved_histogram(d) == {(1, 0, 2): 1, (-1, 1, 0): 1}

    @pytest.mark.parametrize("word", ([1, 1], [1, -1], [-1, -1]))
    def test_two_crossings_one_traced(self, word):
        # both crossings are open and nothing is traced: each path is one
        # edge between open slots, and the one set of path ends is traced four ways
        d = closure(word, 2)
        assert d.n == 2
        t = d.half_edges()
        assert open_paths(d) == {(h, t.mate[h], t.epar[h]) for h in range(8)}
        assert {par for _, _, par in open_paths(d)} == {0, 1}
        assert skein._plain_states(d) == resolved_histogram(d)
        loops = AnnularDiagram(d.crossings, d.edge_parity, (1, 0), d.external)
        assert skein._plain_states(loops) == resolved_histogram(loops)

    @pytest.mark.parametrize("sign", (1, -1))
    def test_kink_on_the_open_crossing(self, sign):
        # a kink's loop joins slots 3-0 (+) or 0-1 (-), so the path from its
        # slot 0 ends at once, on slot 3 or slot 1
        d = kinked(sign, 7)
        assert skein._plain_states(d) == resolved_histogram(d)

    @pytest.mark.parametrize("sign", (1, -1))
    def test_kink_on_the_middle_open_crossing(self, sign):
        d = kinked(sign, 6)
        assert skein._plain_states(d) == resolved_histogram(d)

    @pytest.mark.parametrize("sign", (1, -1))
    def test_kink_on_the_first_open_crossing(self, sign):
        d = kinked(sign, 5)
        assert skein._plain_states(d) == resolved_histogram(d)

    def test_r2_pair_among_three_open_crossings(self):
        # insert_r2 appends its two crossings, joined by two edges: the pair
        # is the last two of the three open crossings, and both edges are
        # paths that run straight from one of its crossings to the other
        d = r2_pair_appended(closure([1, 2, -1, 2, 1, 2], 3))
        assert skein._plain_states(d) == resolved_histogram(d)

    def test_three_open_crossings_on_one_circle(self):
        d = closure([1, 1, 1, -2, 1, -2, 1, 1], 3)
        assert shares_a_circle(d)
        assert skein._plain_states(d) == resolved_histogram(d)

    def test_path_to_the_third_open_crossing(self):
        # an odd path from the first open crossing ends on the third one,
        # whose slots 8-11 are the highest far slots a path end can hold
        d = closure([1, 1, 1, -2, 1, -2, 1, 1], 3)
        assert (1, 8, 1) in open_paths(d)
        assert skein._plain_states(d) == resolved_histogram(d)

    def test_open_path_ending_at_slot_2(self):
        # not planar: y1's path from slot 0 runs through the traced y0 and,
        # at y0's - smoothing, comes back at y1's slot 2; y2 and y3 join
        # their own opposite slots, so paths run 4-6 and 8-10
        base = closure([1, -2, 1, 2], 3)
        crossings = dict(base.crossings)
        crossings.update(
            y0=("a", "b", "c", "d"), y1=("c", "a", "d", "b"), y2=("g", "h", "g", "h"), y3=("e", "f", "e", "f")
        )
        parity = dict(base.edge_parity, a=1, b=0, c=1, d=0, e=1, f=0, g=0, h=1)
        d = AnnularDiagram(crossings, parity)
        paths = open_paths(d)
        assert {(0, 2, 1), (4, 6, 0), (8, 10, 1), (9, 11, 0)} <= paths
        assert skein._plain_states(d) == resolved_histogram(d)
        virtual = AnnularDiagram({"x1": ("a", "b", "a", "b")}, {"a": 1, "b": 0})
        assert skein._plain_states(virtual) == resolved_histogram(virtual) == {(1, 0, 1): 1, (-1, 0, 1): 1}


class TestGrayAgainstLiteral:
    """The Gray walk against the literal oracle, which traces every
    smoothing whole and shares no step with it."""

    @pytest.mark.parametrize("kind", ("annulus", "disk", "kinks", "loops", "maps"))
    def test_random_diagrams(self, kind):
        sizes = set()
        for seed in range(40):
            d = random_diagram(kind, seed)
            if d.n <= 10:
                sizes.add(d.n)
                assert skein._gray_states(d) == literal_histogram(d)
        assert len(sizes) >= (1 if kind == "loops" else 4)

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_corpus(self, name):
        d = get(name).build()
        assert skein._gray_states(d) == literal_histogram(d)


def frontier_histogram(d):
    """(state histogram, largest key count) by adding crossings in index
    order.  A key holds the open half-edges (those whose mate is not
    added yet) paired as (a, b, parity) by the paths between them, plus
    the essential circles closed so far; its value counts states by
    (minus signs, trivial circles).  Shares no step with either route."""
    t = d.half_edges()
    mate, epar = t.mate, t.epar
    states = {((), 0): {(0, 0): 1}}
    width = 1
    for i in range(d.n):
        grown = {}
        for (paths, ess), counts in states.items():
            for minus, turn in ((0, 3), (1, 1)):  # + joins slots 0-3 and 1-2, - joins 0-1 and 2-3
                link = {h: (h ^ turn, 0) for h in range(4 * i, 4 * i + 4)}
                for a, b, par in paths:
                    link[a], link[b] = (b, par), (a, par)
                seen, new_paths, triv, closed = set(), [], 0, 0
                # open ends first, so that every node on a path is seen
                # before a circle trace could start on it
                for h0 in sorted(h for h in link if mate[h] not in link) + list(link):
                    if h0 in seen:
                        continue
                    h, par = h0, 0
                    while True:  # along a link, then through an edge
                        seen.add(h)
                        h, p = link[h]
                        seen.add(h)
                        par ^= p
                        if mate[h] not in link:  # a path between open ends
                            new_paths.append((h0, h, par))
                            break
                        par ^= epar[h]
                        h = mate[h]
                        if h == h0:  # a closed circle
                            triv, closed = triv + (not par), closed + par
                            break
                row = grown.setdefault((tuple(new_paths), ess + closed), {})
                for (m, tv), count in counts.items():
                    row[m + minus, tv + triv] = row.get((m + minus, tv + triv), 0) + count
        states = grown
        width = max(width, len(states))
    free_triv = d.free_loops.count(0)
    free_ess = len(d.free_loops) - free_triv
    hist = {}
    for (paths, ess), counts in states.items():
        for (minus, triv), count in counts.items():
            hist[d.n - 2 * minus, triv + free_triv, ess + free_ess] = count
    return hist, width


class TestFrontierOracle:
    """Both routes against the frontier, a third route that stays cheap
    where the plain oracle is too slow for tier-1."""

    def test_gray_on_the_bracket_large_slots(self):
        # pool member 0 of each slot, as given and simplified; the
        # frontier holds 14 keys on the zigzags and 28 on braid6 (16
        # once its bigons are off), where the walk counts 2^16 to 2^18 states
        inputs = load_perfbench_inputs()
        widths = []
        for family, n in (("zigzag", 16), ("zigzag", 18), ("braid6", 17)):
            d = parse_recipe(inputs.bracket_recipe(family, n, 0))
            for e in (d, simplify(d)[0]):
                hist, width = frontier_histogram(e)
                assert skein._gray_states(e) == hist, (family, n, e.n)
                widths.append(width)
        assert widths == [14, 14, 14, 14, 28, 16]

    def test_plain_on_every_family(self):
        for family, seed in itertools.product(FAMILIES, range(2)):
            for d in generate_family(family, 12, seed):
                if d.n <= 12:
                    assert skein._plain_states(d) == frontier_histogram(d)[0], (family, seed, d.n)

    @pytest.mark.parametrize("kind", ("annulus", "disk", "kinks", "loops", "maps"))
    def test_random_diagrams(self, kind):
        for seed in range(40):
            d = random_diagram(kind, seed)
            if d.n <= 10:
                assert literal_histogram(d) == frontier_histogram(d)[0]


class TestCrossingOrder:
    """The order of the crossings picks the ones the plain route leaves
    open and the one the Gray walk counts in closed form; neither
    histogram may depend on it."""

    @staticmethod
    def agree(d, rng):
        hist = skein._plain_states(d)
        assert skein._gray_states(d) == hist
        for _ in range(3):
            order = list(d.crossings)
            rng.shuffle(order)
            e = in_order(d, order)
            assert e.half_edges().order == order
            assert skein._plain_states(e) == skein._gray_states(e) == hist

    @pytest.mark.parametrize("kind", ("annulus", "disk", "kinks", "loops", "maps"))
    def test_random_diagrams(self, kind):
        rng = random.Random(kind)
        sizes = set()
        for seed in range(40):
            d = random_diagram(kind, seed)
            if d.n <= 8:
                sizes.add(d.n)
                self.agree(d, rng)
        assert len(sizes) >= (1 if kind == "loops" else 4)

    def test_random_closures(self):
        rng = random.Random(9)
        for seed in range(12):
            d = random_closure(seed, (9, 10, 11, 12))
            assert 9 <= d.n <= 12
            self.agree(d, rng)


def twin_cases(d):
    """How each smoothing with crossing 0 at + reaches its twin, crossing 0
    at -: "merge" when crossing 0's + arcs lie on two circles, otherwise
    the slot at which the path from slot 0 first comes back to crossing 0,
    with that path's parity."""
    t = d.half_edges()
    cases = set()
    for rest in itertools.product((1, -1), repeat=d.n - 1):
        signs = (1,) + rest
        ident = skein._label_circles(d, signs)[0]
        if ident[0] != ident[2]:
            cases.add(("merge", None))
            continue
        par, cur = 0, 0
        while True:
            m = t.mate[cur]
            par ^= t.epar[cur]
            if m < 4:
                break
            cur = m ^ 3 if signs[m >> 2] > 0 else m ^ 1
        cases.add((m, par))
    return cases


class TestGrayOpenCrossing:
    """The Gray walk where no probe runs (n <= 8, every case here), so it
    holds crossing 0 at + and counts each state's twin with crossing 0
    at - in closed form, against a third evaluator: `resolve` on every
    smoothing."""

    @pytest.mark.parametrize("kind", ("annulus", "disk", "kinks", "loops", "maps"))
    def test_random_diagrams(self, kind):
        sizes = set()
        for seed in range(60):
            d = random_diagram(kind, seed)
            if d.n <= 8:
                sizes.add(d.n)
                assert skein._gray_states(d) == resolved_histogram(d)
        assert len(sizes) >= (1 if kind == "loops" else 4)

    def test_no_crossings(self):
        assert skein._gray_states(from_free_loops([])) == {(0, 0, 0): 1}
        d = from_free_loops([0, 1, 1])
        assert skein._gray_states(d) == resolved_histogram(d) == {(0, 1, 2): 1}

    def test_one_crossing(self):
        d = closure([1], 2)
        assert d.n == 1
        assert skein._gray_states(d) == resolved_histogram(d) == {(1, 0, 2): 1, (-1, 1, 0): 1}

    @pytest.mark.parametrize("sign", (1, -1))
    def test_kink_on_crossing_0(self, sign):
        # a + kink's loop joins slots 3-0, a closed circle of its own that
        # merges at -; a - kink's loop joins 0-1, so the path from slot 0
        # comes back at once, at slot 1, along the loop's even edge
        base = closure([1, -2, 1, 2], 3)
        kinked = insert_r1(base, sorted(base.edge_parity)[0], sign=sign)
        (kink,) = set(kinked.crossings) - set(base.crossings)
        d = crossing_at(kinked, kink, 0)
        assert d.half_edges().order[0] == kink
        assert twin_cases(d) == ({("merge", None)} if sign > 0 else {(1, 0)})
        assert skein._gray_states(d) == resolved_histogram(d)

    def test_reconnect_at_slot_2(self):
        # not planar: opposite slots of crossing 0 are joined
        virtual = AnnularDiagram({"x1": ("a", "b", "a", "b")}, {"a": 1, "b": 0})
        assert twin_cases(virtual) == {(2, 1)}
        assert skein._gray_states(virtual) == resolved_histogram(virtual) == {(1, 0, 1): 1, (-1, 0, 1): 1}
        # through x1: at -, the path from x0 slot 0 runs through it to slot 2
        d = AnnularDiagram(
            {"x0": ("a", "b", "c", "d"), "x1": ("c", "a", "d", "b")},
            {"a": 1, "b": 0, "c": 1, "d": 0},
        )
        assert (2, 0) in twin_cases(d)
        assert skein._gray_states(d) == resolved_histogram(d)

    def test_odd_split_at_slot_1(self):
        # slots 0-1 of crossing 0 joined by an odd edge: its - smoothing
        # splits off an essential circle
        d = AnnularDiagram({"x1": ("a", "a", "b", "b")}, {"a": 1, "b": 1})
        assert twin_cases(d) == {(1, 1)}
        assert skein._gray_states(d) == resolved_histogram(d) == {(1, 1, 0): 1, (-1, 0, 2): 1}
        # the same split, reached through a second crossing's path
        d = AnnularDiagram(
            {"x0": ("a", "b", "c", "d"), "x1": ("a", "b", "c", "d")},
            {"a": 1, "b": 0, "c": 0, "d": 0},
        )
        assert (1, 1) in twin_cases(d)
        assert skein._gray_states(d) == resolved_histogram(d)


def probe_tally(d):
    """Per (crossing index, sign), the probe smoothings of `_gray_plan` in
    which that crossing's arcs at that sign share a circle, each found by
    labelling the smoothing with the crossing set to that sign; and per
    crossing, the summed corner count of the circle through its slot 2."""
    rng = random.Random(d.n)
    order = d.half_edges().order
    shared = {(c, s): 0 for c in range(d.n) for s in (1, -1)}
    cost = [0] * d.n
    for _ in range(min(2 * d.n, 2 ** (d.n - 1) // 256)):
        signs = [rng.choice((1, -1)) for _ in range(d.n)]
        for c in range(d.n):
            for s in (1, -1):
                ident = skein._label_circles(d, signs[:c] + [s] + signs[c + 1 :])[0]
                shared[c, s] += ident[4 * c] == ident[4 * c + 2]
        for corners, _ in state_circles(d, signs):
            for c, cid in enumerate(order):
                cost[c] += len(corners) if (cid, 2) in corners else 0
    return shared, cost


def probed_diagrams(kind):
    """Diagrams of 9-13 crossings, where the Gray walk's probe runs."""
    if kind == "closures":
        return [random_closure(seed, (9, 10, 11, 12, 13)) for seed in range(40)]
    return [d for family in FAMILIES for d in generate_family(family, 30, 3) if 9 <= d.n <= 13]


class TestGrayPlan:
    """Past n = 8 a probe picks the crossing the Gray walk holds, and its
    sign, and the order it flips the others in.  The plan changes only
    the walk's speed: every histogram must be the same under it."""

    @pytest.mark.parametrize("kind", ("closures", "families"))
    def test_probed_diagrams(self, kind):
        holds = set()
        for d in probed_diagrams(kind):
            assert 9 <= d.n <= 13
            c, s, order, _, probes = skein._gray_plan(d)
            assert probes == min(2 * d.n, 2 ** (d.n - 1) // 256) > 0
            assert sorted(order + [c]) == list(range(d.n))
            holds.add((c, s))
            hist = skein._gray_states(d)
            assert hist == skein._plain_states(d)
            if d.n <= 11:
                assert hist == literal_histogram(d)
        assert {s for _, s in holds} == {1, -1}
        assert any(c for c, _ in holds)

    @pytest.mark.parametrize("kind", ("closures", "families"))
    def test_plan_follows_the_probe(self, kind):
        for d in probed_diagrams(kind)[:12]:
            shared, cost = probe_tally(d)
            c, s, order, count, _ = skein._gray_plan(d)
            # these diagrams are planar, so one labelling counts both signs
            assert count == shared[c, s] == min(shared.values())
            assert (c, s) == min((k for k, v in shared.items() if v == count), key=lambda k: (k[0], -k[1]))
            assert order == sorted((x for x in range(d.n) if x != c), key=cost.__getitem__)

    def test_plus_kink_never_shares_a_circle(self):
        # a + kink's loop closes its 3-0 arc into a circle of its own, so
        # its + arcs never share one, and no hold can beat that count
        base = closure([(1, -2, 3)[i % 3] for i in range(11)], 4)
        d = insert_r1(base, sorted(base.edge_parity)[0], sign=1)
        (cid,) = set(d.crossings) - set(base.crossings)
        kink = d.half_edges().order.index(cid)
        shared, _ = probe_tally(d)
        assert shared[kink, 1] == 0
        c, s, _, count, probes = skein._gray_plan(d)
        assert probes == 8
        assert count == 0 == shared[c, s]
        assert (c, s) == min((k for k, v in shared.items() if v == 0), key=lambda k: (k[0], -k[1]))
        assert skein._gray_states(d) == skein._plain_states(d) == literal_histogram(d)
        # listed first, the kink is the hold: the lowest index, at +
        first = crossing_at(d, cid, 0)
        assert skein._gray_plan(first)[:2] == (0, 1)
        assert skein._gray_states(first) == skein._gray_states(d)

    def test_no_probe_up_to_n_8(self):
        for n in range(1, 9):
            d = closure([(1, -2, 3)[i % 3] for i in range(n)], 4)
            assert skein._gray_plan(d) == (0, 1, list(range(1, n)), 0, 0)
        for seed in range(20):
            d = random_diagram("maps", seed)
            if 1 <= d.n <= 8:
                assert skein._gray_plan(d) == (0, 1, list(range(1, d.n)), 0, 0)


class TestMoves:
    def test_r2_invariance(self):
        rng = random.Random(5)
        for d in random_population(33, 12):
            faces = [f for f in d.trace_faces() if len(f) >= 2]
            if not faces:
                continue
            face = rng.choice(faces)
            (c1, s1), (c2, s2) = rng.sample(list(face), 2)
            e1, e2 = d.crossings[c1][s1], d.crossings[c2][s2]
            if e1 == e2:
                continue
            assert bracket(insert_r2(d, e1, e2)) == bracket(d)

    @pytest.mark.parametrize("sign,factor", [(1, "-A^3"), (-1, "-A^-3")])
    def test_r1_kink_factor(self, sign, factor):
        scale = LaurentPoly.parse(factor)
        for d in random_population(7, 8):
            if not d.edge_parity:
                continue
            edge = sorted(d.edge_parity)[0]
            assert bracket(insert_r1(d, edge, sign=sign)) == scale * bracket(d)

    def test_full_twist_preserves_breadth(self):
        rng = random.Random(12)
        for _ in range(8):
            strands = rng.choice((2, 3))
            word = [
                rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 5))
            ]
            base = bracket(closure(word, strands))
            twisted = bracket(closure(apply_full_twist(word, strands), strands))
            assert twisted.breadth() == base.breadth()


def kink_factor(dw):
    """(-A^3)^dw."""
    return LaurentPoly({3 * dw: -1 if dw % 2 else 1})


def load_perfbench_inputs():
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSimplifiedBracket:
    """`bracket_simplified`, the printed bracket, walks ``simplify(d)``;
    the plain oracle reads d as given."""

    def test_plain_on_the_diagram_equals_gray_on_its_simplification(self):
        for label, d in engine_cases():
            s, dw = simplify(d)
            assert bracket(d) == kink_factor(dw) * bracket_gray(s), label
            assert bracket_simplified(d) == bracket(d), label

    def test_bracket_large_inputs(self):
        # every braid6 pool member loses its two bigons, then the bigons
        # they uncover, down to 9 crossings; the zigzags have none
        inputs = load_perfbench_inputs()
        for p in range(inputs.POOL):
            d = parse_recipe(inputs.bracket_recipe("braid6", 17, p))
            assert [sign for _, sign in _removals(d)] == [0, 0]
            assert simplify(d)[0].n == 9
        for n in (16, 18):
            d = parse_recipe(inputs.bracket_recipe("zigzag", n, 0))
            assert simplify(d)[0] is d

    def test_a_reduced_diagram_walks_as_given(self, monkeypatch):
        walked = []
        gray_states = skein._gray_states
        monkeypatch.setattr(skein, "_gray_states", lambda d: walked.append(d) or gray_states(d))
        d = closure([1, -2, 3] * 3, 4)
        assert bracket_simplified(d) == bracket(d)
        assert len(walked) == 1 and walked[0] is d
        e = closure([1, -1, 2, 2, 2], 3)  # s1 -s1 cancel
        assert bracket_simplified(e) == bracket(e)
        assert walked[1].n == 3

    def test_size_cap_reads_the_diagram_as_given(self):
        d = closure([1, -1] * (MAX_CROSSINGS // 2 + 1), 2)
        assert simplify(d)[0].n == 0
        with pytest.raises(BracketSizeError):
            bracket_simplified(d)


class TestWritheJones:
    def test_writhe_signs(self):
        assert writhe(closure([1], 2)) == 1
        assert writhe(closure([-1], 2)) == -1
        assert writhe(closure([1, 1, 1], 2)) == 3

    def test_writhe_reversal_of_all_components(self):
        d = closure([1, -2], 3)
        k = d.component_count()
        assert writhe(d, [-1] * k) == writhe(d)

    def test_jones_kink_invariance(self):
        d = closure([1, 1, 1], 2, disk=True)
        edge = sorted(d.edge_parity)[0]
        kinked = insert_r1(d, edge, sign=1)
        assert jones(kinked) == jones(d)
        kinked2 = insert_r1(d, edge, sign=-1)
        assert jones(kinked2) == jones(d)

    def test_jones_orientation_length(self):
        d = closure([1, 1], 2)
        with pytest.raises(ValueError):
            jones(d, [1])



def dart_walk_writhe(d, orientation=None):
    """The writhe read off the dart tuples of `strand_walks`: a reference
    for `writhe`, which walks the half-edge table instead."""
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
    exits = {}
    for k, walk in enumerate(walks):
        for c, s in walk:
            kind = "under" if s % 2 == 0 else "over"
            exits.setdefault(c, {})[kind] = (s + 2) % 4 if dirs[k] > 0 else s
    total = 0
    for c, seen in exits.items():
        if len(seen) != 2:
            raise ValueError("crossing %s missing a passage" % c)
        total += 1 if seen["under"] == (seen["over"] - 1) % 4 else -1
    return total


class TestWritheReference:
    """`writhe` against the dart-walk reference, under random orientations."""

    @staticmethod
    def agree(diagrams, rng):
        for d in diagrams:
            assert writhe(d) == dart_walk_writhe(d)
            for _ in range(3):
                o = [rng.choice((1, -1)) for _ in range(d.component_count())]
                assert writhe(d, o) == dart_walk_writhe(d, o)

    def test_generated_families(self):
        rng = random.Random(0)
        for family in FAMILIES:
            for size in range(9):
                for seed in range(6):
                    self.agree(generate_family(family, size, seed), rng)

    def test_closures_mirrors_and_kinks(self):
        rng = random.Random(1)
        for _ in range(100):
            strands = rng.randint(2, 5)
            word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 12))]
            d = closure(word, strands)
            kinked = [insert_r1(d, e, rng.choice((1, -1))) for e in sorted(d.edge_parity)[:2]]
            self.agree([d, mirror_diagram(d)] + kinked, rng)

    @pytest.mark.parametrize("kind", ["annulus", "disk", "kinks", "loops", "maps"])
    def test_random_diagrams(self, kind):
        rng = random.Random(kind)
        self.agree([random_diagram(kind, seed) for seed in range(60)], rng)


class TestExponentCongruence:
    """All exponents of one bracket lie in a single class mod 4.

    Switching one marker rewires two corners; on a sphere map the
    rewiring merges or splits circles, and each case moves the state's
    contribution by a multiple of four.  This is the obstruction that
    rules out values mixing classes.
    """

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_single_class(self, seed):
        rng = random.Random(seed)
        strands = rng.choice((2, 4))
        length = rng.randint(1, 7)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        poly = bracket(closure(word, strands))
        exps = [e for e, _ in poly.to_pairs()]
        assert len({e % 4 for e in exps}) <= 1


class TestEvaluateOnce:
    """Each diagram is evaluated at most once per route."""

    @pytest.fixture
    def enumerations(self, monkeypatch):
        counts = {"gray": 0, "plain": 0}
        gray_states, plain_states = skein._gray_states, skein._plain_states

        def counted_gray(*args, **kwargs):
            counts["gray"] += 1
            return gray_states(*args, **kwargs)

        def counted_plain(*args, **kwargs):
            counts["plain"] += 1
            return plain_states(*args, **kwargs)

        monkeypatch.setattr(skein, "_gray_states", counted_gray)
        monkeypatch.setattr(skein, "_plain_states", counted_plain)
        return counts

    def test_verify_all_runs_each_route_once(self, enumerations):
        d = closure([1, -2, 3, 1, -2, 3], 4)
        assert z2_class(d) == 0 and is_connected(d) and d.n <= 14
        assert verify_all(d).ok()
        assert enumerations == {"gray": 1, "plain": 1}

    def test_cli_bracket_jones_runs_gray_once(self, enumerations, capsys):
        assert cli.main(["bracket", "braid 4: s1 -s2 s3 s1 -s2 s3", "--jones"]) == 0
        assert "jones = " in capsys.readouterr().out
        assert enumerations == {"gray": 1, "plain": 0}


class TestOracleIndependence:
    def test_wrong_gray_memo_fails_route_check(self):
        d = closure([1, -2, 3, 1, -2, 3], 4)
        d._cache["bracket:gray"] = LaurentPoly.parse("A^4")
        (record,) = [r for r in verify_all(d).records if r.check == "bracket_routes"]
        assert record.verdict == FAIL
        assert record.left == str(bracket(closure([1, -2, 3, 1, -2, 3], 4)))
        assert record.right == "A^4"

    def test_wrong_odd_state_fails_route_check(self, monkeypatch):
        # every state of a class-1 diagram has odd p and alpha(odd p) = 0, so
        # both polynomials stay 0 and only the histograms tell them apart
        d = closure([1, 2, 1, 2], 3)
        assert z2_class(d) == 1
        gray_states = skein._gray_states

        def mutant(d):
            hist = dict(gray_states(d))
            key = min(hist)
            assert key[2] % 2 == 1
            hist[key] += 1
            return hist

        monkeypatch.setattr(skein, "_gray_states", mutant)
        records = {r.check: r for r in verify_all(d).records}
        assert records["vanishing_bracket"].verdict == PASS
        record = records["bracket_routes"]
        assert (record.left, record.right) == ("0", "0")
        assert record.verdict == FAIL
        key = min(skein._plain_states(d))
        count = skein._plain_states(d)[key]
        assert record.note == "histograms differ at %s: plain=%d gray=%d" % (key, count, count + 1)
        assert record.line().endswith("(%s)" % record.note)


class TestCircleLabelling:
    """`resolve` and `state_circles` read the same circle labelling."""

    @staticmethod
    def _agree(d, signs):
        circles = state_circles(d, signs)
        trivial = sum(1 for _, p in circles if p == 0)
        assert (trivial, len(circles) - trivial) == resolve(d, signs)
        corners = [c for members, _ in circles for c in members]
        assert len(corners) == len(set(corners))
        assert set(corners) == {(c, s) for c in d.crossings for s in range(4)}

    def test_random_states_of_closures(self):
        rng = random.Random(77)
        population = random_population(2024, 40)
        assert any(d.n and not any(d.edge_parity.values()) for d in population)  # disk closures
        for d in population:
            for _ in range(6):
                self._agree(d, [rng.choice((1, -1)) for _ in range(d.n)])

    def test_free_loop_diagrams(self):
        rng = random.Random(78)
        for _ in range(10):
            d = from_free_loops([rng.randint(0, 1) for _ in range(rng.randint(0, 5))])
            self._agree(d, [])
