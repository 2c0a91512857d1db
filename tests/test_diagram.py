"""Combinatorial map layer: builders, faces, walks, validation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulink.analysis import is_in_disk, profile, z2_class
from annulink.corpus import ENTRIES, get
from annulink.diagram import (
    UNBOUNDED,
    AnnularDiagram,
    _excise,
    _removals,
    apply_full_twist,
    from_braid_closure,
    from_disk_pd,
    from_free_loops,
    insert_r1,
    insert_r2,
    mirror_diagram,
    remove_r1,
    remove_r2,
    simplify,
)
from annulink.generate import FAMILIES, generate_family, r_move_perturbations
from annulink.laurent import LaurentPoly
from annulink.skein import bracket_gray, writhe
from test_analysis import random_diagram
from test_perfbench_pins import load_inputs

words = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=0, max_size=8
)


# Crossingless diagrams whose loops `insert_r1` kinks; an essential loop
# separates the two boundary circles.
KINKED_LOOPS = ([1], [0], [1, 1], [1, 0], [0, 1], [1, 1, 1])


def closure(word, strands=4, disk=False):
    return from_braid_closure(word, strands, disk=disk)


def braid_words(strands, lengths):
    """Every braid word on ``strands`` strands whose length is in ``lengths``."""
    letters = [g for i in range(1, strands) for g in (i, -i)]
    return itertools.chain.from_iterable(itertools.product(letters, repeat=k) for k in lengths)


class TestBuilders:
    def test_free_loops(self):
        d = from_free_loops([1, 0, 1])
        assert d.n == 0
        assert d.free_loops == (1, 0, 1)
        assert d.validate() == []
        assert d.component_count() == 3

    def test_empty(self):
        d = from_free_loops([])
        assert d.validate() == []
        assert d.component_count() == 0

    def test_single_crossing(self):
        d = closure([1], 2)
        assert d.n == 1
        assert d.validate() == []
        assert d.component_count() == 1
        # one crossing on the annulus has three faces
        assert len(d.trace_faces()) == 3

    def test_disk_closure_has_unbounded_side(self):
        d = closure([1, 1, 1], 2, disk=True)
        assert d.validate() == []
        inner, outer = d.external
        assert UNBOUNDED not in (inner, outer) or inner == outer

    def test_disk_pd(self):
        d = from_disk_pd([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
        assert d.n == 3
        assert d.validate() == []

    def test_disk_pd_edge_cases(self):
        assert from_disk_pd([]) == from_free_loops([])
        with pytest.raises(ValueError, match="PD entry 2 has 3 labels"):
            from_disk_pd([(1, 2, 2, 1), (3, 4, 3)])

    @given(words, st.sampled_from([2, 3, 4]))
    @settings(max_examples=80)
    def test_closures_validate(self, word, strands):
        word = [g for g in word if abs(g) < strands]
        d = closure(word, strands)
        assert d.validate() == []
        assert d.n == len(word)
        assert 1 <= d.component_count() <= strands

    @given(words, st.sampled_from([2, 3, 4]))
    @settings(max_examples=40)
    def test_disk_closures_validate(self, word, strands):
        word = [g for g in word if abs(g) < strands]
        d = closure(word, strands, disk=True)
        assert d.validate() == []


class TestEuler:
    @pytest.mark.parametrize(
        "word,strands",
        [([1], 2), ([1, 1, 1], 2), ([1, -2], 3), ([1, 2, 3], 4), ([1, -2, 3] * 2, 4)],
    )
    def test_face_count(self, word, strands):
        # 4-valent map on the sphere: V - E + F = 2 with E = 2V
        d = closure(word, strands)
        assert len(d.trace_faces()) == d.n + 2

    def test_external_faces_annular(self):
        d = closure([1, -2], 3)
        i, o = d.external_face_indices()
        assert i != o

    def test_external_faces_disk(self):
        d = closure([1, 1], 2, disk=True)
        i, o = d.external_face_indices()
        assert i == o


class TestComponents:
    @pytest.mark.parametrize(
        "word,strands,count",
        [
            ([1], 2, 1),
            ([1, 1], 2, 2),
            ([1, -2], 3, 1),
            ([1, -2, 1, -2], 3, 1),
            ([1, -2] * 3, 3, 3),
            ([], 4, 4),
        ],
    )
    def test_component_count(self, word, strands, count):
        assert closure(word, strands).component_count() == count

    def test_strand_walk_slots(self):
        # a strand enters at slot s and leaves at s + 2
        d = closure([1, 1, 1], 2)
        for walk in d.strand_walks():
            assert len(walk) > 0
            for c, s in walk:
                assert c in d.crossings
                assert 0 <= s <= 3


class TestMoves:
    def test_r1_adds_one_crossing(self):
        d = closure([1], 2)
        edge = sorted(d.edge_parity)[0]
        d2 = insert_r1(d, edge, sign=1)
        assert d2.n == d.n + 1
        assert d2.validate() == []

    def test_r1_negative(self):
        d = closure([1], 2)
        edge = sorted(d.edge_parity)[0]
        d2 = insert_r1(d, edge, sign=-1)
        assert d2.n == d.n + 1
        assert d2.validate() == []

    def test_r1_free_loop_index_out_of_range_raises_value_error(self):
        d = from_free_loops([1, 0])
        for index in (5, 2, -1):
            with pytest.raises(ValueError, match="free loop index"):
                insert_r1(d, index)

    def test_r2_on_every_shared_face_pair_of_small_closures(self):
        # every braid word of 1-3 letters on 2 and 3 strands, closed in
        # the annulus and in a disk: 196 diagrams, 3,160 ordered pairs
        diagrams = pairs = 0
        for strands in (2, 3):
            for word in braid_words(strands, (1, 2, 3)):
                for disk in (False, True):
                    d = closure(word, strands, disk=disk)
                    diagrams += 1
                    shared = {
                        (e1, e2)
                        for face in d.trace_faces()
                        for e1, e2 in itertools.permutations({d.crossings[c][s] for c, s in face}, 2)
                    }
                    for e1, e2 in sorted(shared):
                        moved = insert_r2(d, e1, e2)
                        assert moved.validate() == []
                        assert bracket_gray(moved) == bracket_gray(d)
                        assert z2_class(moved) == z2_class(d)
                        assert is_in_disk(moved) == is_in_disk(d)
                    pairs += len(shared)
        assert (diagrams, pairs) == (196, 3160)

    def test_r2_adds_two_crossings(self):
        d = closure([1], 2)
        face = next(f for f in d.trace_faces() if len(f) >= 2)
        (c1, s1), (c2, s2) = list(face)[:2]
        e1 = d.crossings[c1][s1]
        e2 = d.crossings[c2][s2]
        d2 = insert_r2(d, e1, e2)
        assert d2.n == d.n + 2
        assert d2.validate() == []

    def test_bad_move_arguments_raise_value_error(self):
        d = closure([1, -2], 3)  # e1 and e3 each bound a monogon and share no face
        with pytest.raises(ValueError, match="sign must be"):
            insert_r1(d, "e0", sign=0)
        with pytest.raises(ValueError, match="unknown edge 'e9'"):
            insert_r1(d, "e9")
        with pytest.raises(ValueError, match="two distinct edges"):
            insert_r2(d, "e0", "e0")
        with pytest.raises(ValueError, match="unknown edge 'e9'"):
            insert_r2(d, "e0", "e9")
        with pytest.raises(ValueError, match="do not bound a common face"):
            insert_r2(d, "e1", "e3")

    def test_r2_to_an_invalid_map_raises_value_error(self):
        # no boundary markers, so the moved map fails validate()
        d = AnnularDiagram({"x0": ("e2", "e0", "e0", "e2")}, {"e2": 0, "e0": 1})
        with pytest.raises(ValueError, match="invalid map"):
            insert_r2(d, "e2", "e0")

    def test_builders_and_moves_never_build_dart_views(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a dart view was built")

        for name in ("trace_faces", "strand_walks", "corner_face", "edge_ends"):
            monkeypatch.setattr(AnnularDiagram, name, refuse)
        moved = 0
        for family, seed in itertools.product(FAMILIES, range(10)):
            for d in generate_family(family, 3, seed):
                for edge in sorted(d.edge_parity):
                    assert insert_r1(d, edge).n == d.n + 1
                t = d.half_edges()
                shared = [ids for ids in (sorted({t.eid[h] for h in f}) for f in t.faces) if len(ids) >= 2]
                if shared:
                    assert insert_r2(d, *shared[0][:2]).n == d.n + 2
                    moved += 1
                writhe(d)
        assert moved > 0

    def test_full_twist_is_word_level(self):
        w = apply_full_twist([1], 2)
        assert w[: 1] == [1]
        assert len(w) == 3
        assert closure(w, 2).validate() == []

    def test_full_twist_three_strands(self):
        w = apply_full_twist([], 3)
        assert len(w) == 6
        assert closure(w, 3).validate() == []

    def test_inverse_full_twist(self):
        assert apply_full_twist([1], 3, sign=-1) == [1, -2, -1, -2, -1, -2, -1]
        word = apply_full_twist(apply_full_twist([], 3), 3, sign=-1)
        assert simplify(closure(word, 3))[0].n == 0
        with pytest.raises(ValueError, match="strands must be"):
            apply_full_twist([], 0)
        with pytest.raises(ValueError, match="sign must be"):
            apply_full_twist([], 2, sign=2)

    def test_mirror_round_trip(self):
        d = closure([1, -2, 3], 4)
        m = mirror_diagram(d)
        assert m.validate() == []
        assert mirror_diagram(m) == d


class TestValidation:
    def test_dangling_edge(self):
        d = closure([1], 2)
        crossings = dict(d.crossings)
        cid = next(iter(crossings))
        slots = list(crossings[cid])
        slots[0] = "e_nowhere"
        crossings[cid] = tuple(slots)
        bad = AnnularDiagram(crossings, d.edge_parity, d.free_loops, d.external)
        assert any("e_nowhere" in v for v in bad.validate())

    def test_bad_external_designator(self):
        d = closure([1], 2)
        bad = AnnularDiagram(
            d.crossings, d.edge_parity, d.free_loops, (("ghost", 0), d.external[1])
        )
        assert bad.validate() != []

    @pytest.mark.parametrize(
        "n,inner,message",
        [
            (1, ("x1", 7), "inner designator corner 7 out of range"),
            (1, "nowhere", "inner designator 'nowhere' is malformed"),
            (0, ("x1", 0), "inner designator must be unbounded in a crossingless diagram"),
        ],
    )
    def test_designator_messages(self, n, inner, message):
        d = closure([1] * n, 2)
        bad = AnnularDiagram(d.crossings, d.edge_parity, d.free_loops, (inner, d.external[1]))
        assert bad.validate() == [message]

    def test_bad_loop_parity(self):
        bad = AnnularDiagram({}, {}, free_loops=(2,))
        assert bad.validate() != []

    def test_cut_parity_consistency(self):
        # flipping one edge parity breaks the one-arc realizability rule
        d = closure([1, 1, 1], 2)
        assert d.validate() == []
        for eid in sorted(d.edge_parity):
            parity = dict(d.edge_parity)
            parity[eid] ^= 1
            bad = AnnularDiagram(d.crossings, parity, d.free_loops, d.external)
            if bad.validate():
                break
        else:
            pytest.fail("no single parity flip was rejected")

    def test_no_generated_corpus_or_benchmark_input_is_rejected(self):
        # every component is held to the cut-parity rule; the 22 inputs
        # here with more than one crossing component pass it too
        inputs = load_inputs()
        diagrams = [
            d
            for family, seed, size in itertools.product(FAMILIES, range(5), (3, 6, 10))
            for d in generate_family(family, size, seed)
        ]
        diagrams += [get(name).build() for name in ENTRIES]
        diagrams += [
            inputs.build_diagram(*inputs.parse_key(key))
            for workload in ("verify-sweep", "props-large")
            for key in inputs.pool_keys(workload)
            if key != inputs.CORPUS_KEY
        ]
        assert len(diagrams) == 395 + 21 + 352 + 72
        assert [d for d in diagrams if d.validate()] == []
        assert sum(len(set(d.half_edges().comp)) > 1 for d in diagrams) == 22

    @given(words, st.sampled_from(KINKED_LOOPS), st.sampled_from((1, -1)))
    @settings(max_examples=40)
    def test_builders_always_pass(self, word, loops, sign):
        assert closure(word, 4).validate() == []
        for i in range(len(loops)):
            assert insert_r1(from_free_loops(loops), i, sign).validate() == []


def engine_cases():
    """(label, diagram) for the move engine: three seeds of every
    generated family at n <= 12, 30 seeds each of the random closures,
    kinked closures, free-loop diagrams and random maps (any pairing of
    slots, planar or not) of `test_analysis.random_diagram`, and the
    closures of every braid word of at most 3 letters on 2-4 strands, in
    the annulus and in a disk (718 diagrams, where every small strand
    pattern meets the removals: a walk left with one surviving passage,
    components that vanish into free loops)."""
    for family, seed in itertools.product(FAMILIES, range(3)):
        for k, d in enumerate(generate_family(family, 12, seed)):
            if d.n <= 12:
                yield "%s/%d/%d" % (family, seed, k), d
    for kind, seed in itertools.product(("annulus", "disk", "kinks", "loops", "maps"), range(30)):
        yield "%s/%d" % (kind, seed), random_diagram(kind, seed)
    for strands in (2, 3, 4):
        for word in braid_words(strands, range(4)):
            for disk in (False, True):
                yield "%s/%d/%s" % (word, strands, "disk" if disk else "annulus"), closure(word, strands, disk=disk)


def new_crossings(before, after):
    return sorted(set(after.crossings) - set(before.crossings))


def braid_word(recipe):
    head, body = recipe.split(":")
    return [int(tok.replace("s", "")) for tok in body.split()], int(head.split()[1])


class TestRemoval:
    def test_simplify_keeps_validity_class_disk_and_components(self):
        removed = 0
        for label, d in engine_cases():
            s, _ = simplify(d)
            removed += d.n - s.n
            assert z2_class(s) == z2_class(d), label
            assert s.component_count() == d.component_count(), label
            if d.validate() == []:
                assert s.validate() == [], label
                assert is_in_disk(s) == is_in_disk(d), label
        assert removed > 100

    def test_simplify_leaves_no_removable_face(self):
        # a face may stay listed only where `_excise` refuses it: removing
        # it would strand a boundary marker, as in some disconnected closures
        stuck = 0
        for label, d in engine_cases():
            s, _ = simplify(d)
            assert simplify(s) == (s, 0), label
            left = _removals(s)
            assert all(_excise(s, gone) is None for gone, _ in left), label
            stuck += bool(left)
        assert stuck > 0

    def test_a_reduced_diagram_comes_back_as_it_is(self):
        d = closure([1, -2, 3] * 6)
        assert _removals(d) == []
        assert simplify(d)[0] is d

    def test_zigzag_wrap_around_bigon_is_a_twist(self):
        # the 16-crossing zigzag's last s1 meets its first across the wrap,
        # past a far-commuting s3; both edges of that bigon join an under
        # slot to an over slot
        d = closure([1, -2, 3] * 5 + [1])
        t = d.half_edges()
        bigons = [f for f in t.faces if len(f) == 2 and f[0] >> 2 != f[1] >> 2]
        assert bigons and all((a ^ b) & 1 == 0 for a, b in bigons)
        assert simplify(d) == (d, 0)

    def test_r2_round_trip(self):
        # every shared face pair of the braid words of 1-2 letters on 2
        # and 3 strands, in the annulus and in a disk
        trips = 0
        for strands in (2, 3):
            for word in braid_words(strands, (1, 2)):
                for disk in (False, True):
                    d = closure(word, strands, disk=disk)
                    t = d.half_edges()
                    shared = {pair for f in t.faces for pair in itertools.permutations({t.eid[h] for h in f}, 2)}
                    for e1, e2 in sorted(shared):
                        moved = insert_r2(d, e1, e2)
                        back = remove_r2(moved, *new_crossings(d, moved))
                        assert back.validate() == []
                        assert back.n == d.n
                        assert bracket_gray(back) == bracket_gray(d)
                        assert profile(back) == profile(d)
                        trips += 1
        assert trips > 200

    @pytest.mark.parametrize("sign", (1, -1))
    def test_r1_round_trip(self, sign):
        factor = LaurentPoly.parse("-A^3" if sign > 0 else "-A^-3")
        for label, d in engine_cases():
            if d.validate() or d.n > 8:
                continue
            targets = sorted(d.edge_parity)[:2] + list(range(min(len(d.free_loops), 2)))
            for target in targets:
                kinked = insert_r1(d, target, sign=sign)
                (x,) = new_crossings(d, kinked)
                back = remove_r1(kinked, x)
                assert back.validate() == [], label
                assert back.n == d.n, label
                assert bracket_gray(kinked) == factor * bracket_gray(back), label
                assert profile(back) == profile(d), label

    def test_a_kinked_free_loop_goes_back_to_a_free_loop(self):
        for loops in KINKED_LOOPS:
            d = from_free_loops(loops)
            kinked = insert_r1(d, 0, sign=-1)
            back = remove_r1(kinked, "x1")
            assert back.external == (UNBOUNDED, UNBOUNDED)
            assert sorted(back.free_loops) == sorted(loops)

    def test_removers_refuse_what_is_not_a_removable_face(self):
        d = closure([1, -2, 1, -2], 3)
        with pytest.raises(ValueError, match="no removable bigon"):
            remove_r2(d, "x1", "x3")  # a twist bigon
        with pytest.raises(ValueError, match="no removable bigon"):
            remove_r2(d, "x1", "x1")
        with pytest.raises(ValueError, match="no removable kink"):
            remove_r1(d, "x1")
        with pytest.raises(ValueError, match="no removable kink"):
            remove_r1(d, "x9")
        # the one-crossing closure of s1 on two strands: its bigon-free
        # faces hold the boundary markers, so nothing comes off
        one = closure([1], 2)
        assert simplify(one) == (one, 0)

    def test_a_marked_face_stays(self):
        # kink the one-crossing disk closure's edge, then mark the kink's
        # monogon as the outer face: it can no longer be removed
        d = closure([1, 1, 1], 2, disk=True)
        kinked = insert_r1(d, sorted(d.edge_parity)[0], sign=1)
        (x,) = new_crossings(d, kinked)
        assert remove_r1(kinked, x).n == d.n
        marked = AnnularDiagram(kinked.crossings, kinked.edge_parity, (), ((x, 3), (x, 3)))
        with pytest.raises(ValueError, match="no removable kink"):
            remove_r1(marked, x)

    def test_unrealizable_parities_of_a_disconnected_diagram_are_reported(self):
        # two disjoint one-crossing curves: x1's odd edge bounds two faces
        # while both markers sit in one of them, so no cut arc gives these
        # parities, whatever x2 and the nesting of the two curves
        d = AnnularDiagram(
            {"x1": ("e0", "e1", "e1", "e0"), "x2": ("e2", "e3", "e3", "e2")},
            {"e0": 1, "e1": 0, "e2": 0, "e3": 0},
            (),
            (("x1", 3), ("x1", 3)),
        )
        assert d.validate() == ["cut parities are odd around faces [0, 2] but the boundary circles sit in faces [2]"]
        # x1 alone, as removing the kink at x2 leaves it, fails the same way
        assert _excise(d, {1}).validate() == d.validate()

    def test_r_move_perturbations_simplify_to_their_base(self):
        base = from_braid_closure([1, 1, 1], 2, disk=True)
        for seed in range(20):
            for d in r_move_perturbations(10, seed):
                s, _ = simplify(d)
                assert s.n == 3 and profile(s) == profile(base)

    def test_fig5_right_is_a_full_twist_of_fig5_left(self):
        left, strands = braid_word(get("fig5_left").recipe)
        right, right_strands = braid_word(get("fig5_right").recipe)
        assert right_strands == strands
        assert apply_full_twist(left, strands) == right
