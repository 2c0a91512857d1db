"""Diagram predicates: class, alternation, crossing types, adequacy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulink import skein
from annulink.analysis import (
    classify_crossings,
    is_adequate,
    is_alternating,
    is_connected,
    is_in_disk,
    is_quasi_simple,
    is_simple,
    profile,
    state_counts,
    z2_class,
)
from annulink.corpus import ENTRIES, get
from annulink.diagram import AnnularDiagram, from_braid_closure, from_free_loops
from annulink.generate import r_move_perturbations
from annulink.skein import flip_counts, resolve, state_circles


def closure(word, strands, disk=False):
    return from_braid_closure(word, strands, disk=disk)


class TestZ2:
    @pytest.mark.parametrize(
        "word,strands,cls",
        [([1], 2, 0), ([1, -2], 3, 1), ([1, 2, 3], 4, 0), ([], 5, 1)],
    )
    def test_closures_wind_once_per_strand(self, word, strands, cls):
        assert z2_class(closure(word, strands)) == cls

    def test_loops(self):
        assert z2_class(from_free_loops([1])) == 1
        assert z2_class(from_free_loops([1, 1])) == 0
        assert z2_class(from_free_loops([0, 1, 0])) == 1

    def test_disk_is_trivial(self):
        assert z2_class(closure([1, 1], 2, disk=True)) == 0


class TestPredicates:
    def test_connected(self):
        assert is_connected(closure([1, -2], 3))
        assert is_connected(closure([1, -2] * 2, 3))
        assert not is_connected(closure([1], 3))  # strand 3 floats free

    def test_in_disk(self):
        assert is_in_disk(closure([1], 2, disk=True))
        assert not is_in_disk(closure([1], 2))
        assert is_in_disk(from_free_loops([0, 0]))
        assert not is_in_disk(from_free_loops([0, 1]))

    @pytest.mark.parametrize(
        "word,strands,alt",
        [
            ([1], 2, True),
            ([1, 1, 1], 2, True),
            ([1, -2], 3, True),
            ([1, 2], 3, False),
            ([1, 2, 3], 4, False),
            ([1, -2, 3] * 2, 4, True),
        ],
    )
    def test_alternating(self, word, strands, alt):
        assert is_alternating(closure(word, strands)) is alt

    def test_crossing_classes(self):
        # a single crossing bridges the two boundary faces
        assert classify_crossings(closure([1], 2)) == {"x1": "fig3_type"}
        # a kink in a disk borders the same face twice
        assert classify_crossings(closure([1], 2, disk=True)) == {"x1": "fig2_type"}
        # the zigzag pattern has no removable crossings
        tags = classify_crossings(closure([1, -2, 3] * 2, 4))
        assert set(tags.values()) == {"regular"}

    def test_simple_quasi(self):
        assert is_simple(closure([1, -2, 3] * 2, 4))
        assert not is_simple(closure([1], 2))
        assert is_quasi_simple(closure([1], 2))
        assert not is_quasi_simple(closure([1, 1], 2))


class TestStateCounts:
    def test_match_resolve(self):
        for word, strands in (([1], 2), ([1, 1, 1], 2), ([1, -2, 3], 4)):
            d = closure(word, strands)
            sp, pp, sm, pm = state_counts(d)
            assert (sp, pp) == resolve(d, [1] * d.n)
            assert (sm, pm) == resolve(d, [-1] * d.n)

    def test_loop_only(self):
        d = from_free_loops([0, 1])
        sp, pp, sm, pm = state_counts(d)
        assert (sp, pp) == (1, 1)
        assert (sm, pm) == (1, 1)


def one_flip_scan(d, sign):
    """The literal definition, resolved from scratch: the circle counts of
    the constant smoothing and the trivial count after each single flip."""
    n = d.n
    flipped = []
    for i in range(n):
        signs = [sign] * n
        signs[i] = -sign
        flipped.append(resolve(d, signs)[0])
    return resolve(d, [sign] * n), flipped


def literal_adequacy(d):
    """(plus, minus) adequacy by the 2n + 2 resolve scan."""
    out = []
    for sign in (1, -1):
        (trivial, _), flipped = one_flip_scan(d, sign)
        out.append(all(t < trivial for t in flipped))
    return tuple(out)


def random_map(n, rng):
    """Any pairing of 4n slots, planar or not, with random edge parities:
    a file need not pass validate() before props reads it."""
    slots = list(range(4 * n))
    rng.shuffle(slots)
    edge = [""] * (4 * n)
    for k in range(0, 4 * n, 2):
        edge[slots[k]] = edge[slots[k + 1]] = "e%d" % k
    crossings = {"x%d" % i: tuple(edge[4 * i:4 * i + 4]) for i in range(n)}
    return AnnularDiagram(crossings, {e: rng.randint(0, 1) for e in sorted(set(edge))})


def random_diagram(kind, seed):
    rng = random.Random(seed)
    if kind == "maps":
        return random_map(rng.randint(1, 6), rng)
    if kind == "loops":
        return from_free_loops([rng.randint(0, 1) for _ in range(rng.randint(0, 5))])
    strands = rng.randint(2, 5)  # short words leave some strands as free loops
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 12))]
    d = closure(word, strands, disk=kind == "disk")
    if kind == "kinks":
        d = r_move_perturbations(1, seed, base=d if d.n else None)[0]
    return d


class TestOneFlipCounts:
    """`flip_counts` against the from-scratch scan, state by state."""

    @staticmethod
    def agree(d):
        for sign in (1, -1):
            (trivial, essential), flipped = one_flip_scan(d, sign)
            assert flip_counts(d, sign) == (trivial, essential, flipped)
        assert is_adequate(d) == literal_adequacy(d)

    @given(
        st.sampled_from(("annulus", "disk", "kinks", "loops", "maps")),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_diagrams(self, kind, seed):
        self.agree(random_diagram(kind, seed))

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_corpus(self, name):
        self.agree(get(name).build())

    def test_sign_must_be_plus_or_minus_one(self):
        with pytest.raises(ValueError):
            flip_counts(closure([1], 2), 0)

    def test_each_kind_of_flip(self):
        # two essential circles merge into a trivial one (annulus only)
        assert flip_counts(closure([1], 2), 1) == (0, 2, [1])
        # a trivial circle splits into two trivial or two essential ones
        assert flip_counts(closure([1, -1], 2), 1) == (1, 0, [2, 0])
        # an essential circle splits into a trivial and an essential one
        assert flip_counts(closure([1, 2], 3), -1) == (0, 1, [1, 1])
        # opposite slots joined (not planar): the circle reconnects to itself
        virtual = AnnularDiagram({"x1": ("a", "b", "a", "b")}, {"a": 1, "b": 0})
        assert flip_counts(virtual, 1) == (0, 1, [0])

    def test_profile_traces_each_constant_state_once(self, monkeypatch):
        calls = []
        label = skein._label_circles

        def counted(*args, **kwargs):
            calls.append(args[1])
            return label(*args, **kwargs)

        monkeypatch.setattr(skein, "_label_circles", counted)
        d = closure([1, -2, 3] * 4, 4)
        assert d.n == 12
        p = profile(d)
        assert sorted(signs[0] for signs in calls) == [-1, 1]
        assert (p.plus_adequate, p.minus_adequate) == (True, True)


class TestAdequacy:
    def naive_distinct_strands(self, d):
        """Both all-positive replacement strands at each crossing land on
        distinct circles.  Weaker than plus-adequacy."""
        circles = state_circles(d, {c: 1 for c in d.crossings})

        def circle_of(dart):
            for i, (members, _) in enumerate(circles):
                if dart in members:
                    return i
            return None

        return all(
            circle_of((c, 0)) != circle_of((c, 1)) for c in d.crossings
        )

    def test_distinct_strands_does_not_give_adequacy(self):
        # the discriminating pair: both satisfy the strand condition,
        # only the second is plus-adequate
        left = closure([1], 2)
        right = closure([-1, -1], 2)
        assert self.naive_distinct_strands(left)
        assert self.naive_distinct_strands(right)
        assert is_adequate(left) == (False, True)
        assert is_adequate(right) == (True, False)

    def test_crossingless_is_adequate(self):
        assert is_adequate(from_free_loops([0, 1])) == (True, True)

    def test_zigzag_adequate(self):
        assert is_adequate(closure([1, -2, 3] * 2, 4)) == (True, True)


class TestProfile:
    def test_record_order_and_values(self):
        d = closure([1, -2, 3] * 2, 4)
        rec = profile(d).as_record()
        assert list(rec)[:5] == ["n", "connected", "alternating", "in_disk", "z2_class"]
        assert rec["n"] == 6
        assert rec["connected"] is True
        assert rec["alternating"] is True
        assert rec["z2_class"] == 0
        assert rec["simple"] is True
        assert rec["plus_adequate"] is True

    def test_disconnected_leaves_class_fields_unset(self):
        p = profile(closure([1], 3))
        assert p.connected is False
        assert p.simple is None
        assert p.quasi_simple is None
        assert p.k_fig3 is None
        assert p.k_fig2 is None

    def test_memoised_on_the_diagram(self):
        d = closure([1, -2, 3] * 2, 4)
        assert profile(d) is profile(d)

    def test_k_fig2_is_the_last_field(self):
        rec = profile(closure([1], 2, disk=True)).as_record()
        assert list(rec)[-1] == "k_fig2"
        assert rec["k_fig2"] == 1
        assert profile(from_free_loops([0])).k_fig2 is None  # no crossings
