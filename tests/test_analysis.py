"""Diagram predicates: class, alternation, crossing types, adequacy."""

import pytest

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
from annulink.diagram import from_braid_closure, from_free_loops
from annulink.skein import resolve, state_circles


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
