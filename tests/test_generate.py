"""Random family generators: determinism and advertised structure."""

import random

import pytest

from annulink import generate
from annulink.analysis import (
    is_alternating,
    is_connected,
    is_in_disk,
    is_simple,
    z2_class,
)
from annulink.diagfile import serialize_diagram
from annulink.diagram import from_braid_closure, from_free_loops
from annulink.generate import (
    FAMILIES,
    alternating_braid_closures,
    alternating_word,
    disk_alternating,
    generate_family,
    parallel_cores,
    r_move_perturbations,
    random_braid_closures,
)
from annulink.skein import jones


def frozen(diagrams):
    return [serialize_diagram(d) for d in diagrams]


class TestDeterminism:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_same_seed_same_diagrams(self, family):
        a = generate_family(family, 4, 11)
        b = generate_family(family, 4, 11)
        assert frozen(a) == frozen(b)

    def test_different_seeds_differ(self):
        a = generate_family("random-braid-closures", 6, 1)
        b = generate_family("random-braid-closures", 6, 2)
        assert frozen(a) != frozen(b)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            generate_family("mystery", 3, 0)


class TestAlternatingFamilies:
    def test_sign_discipline(self):
        rng = random.Random(3)
        word = alternating_word(rng, 4, 30)
        assert all((g > 0) == (abs(g) % 2 == 1) for g in word)

    def test_closures_are_alternating_and_trivial_class(self):
        for d in alternating_braid_closures(15, seed=21):
            assert is_alternating(d)
            assert z2_class(d) == 0

    def test_disk_family_structure(self):
        for d in disk_alternating(8, seed=5):
            assert is_in_disk(d)
            assert is_connected(d)
            assert is_simple(d)
            assert is_alternating(d)

    def test_disk_family_gives_up_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(generate, "is_simple", lambda d: False)
        with pytest.raises(ValueError, match="2000 disk candidates gave 0 of 2"):
            disk_alternating(2, seed=5)


class TestOtherFamilies:
    def test_random_closures_are_valid(self):
        for d in random_braid_closures(20, seed=9):
            assert d.validate() == []

    def test_parallel_cores(self):
        d = parallel_cores(3)
        assert d.n == 0
        assert d.free_loops == (1, 1, 1)
        assert z2_class(d) == 1

    def test_perturbations_preserve_the_link(self):
        base = from_braid_closure([1, 1, 1], 2, disk=True)
        reference = jones(base)
        for d in r_move_perturbations(6, seed=13):
            assert d.n > base.n
            assert d.validate() == []
            assert jones(d) == reference

    def test_perturbations_of_free_loops(self):
        # no face has two corners, so the finger move gives way to a kink
        # on the first loop; with no loop there is nothing to move
        empty = from_free_loops([])
        assert r_move_perturbations(3, seed=1, base=empty) == [empty] * 3
        base = from_free_loops([1, 0])
        for d in r_move_perturbations(8, seed=4, base=base):
            assert d.n >= 1 and d.validate() == []
            assert jones(d) == jones(base)

    def test_perturbations_of_annular_base(self):
        base = from_braid_closure([1, -2], 3)
        reference = jones(base)
        for d in r_move_perturbations(5, seed=2, base=base):
            assert d.validate() == []
            assert jones(d) == reference
