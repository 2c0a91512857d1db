"""Ring arithmetic and text form of the one-variable Laurent polynomials."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulink.laurent import DELTA, ONE, ZERO, A, LaurentPoly, delta_power


def lp(pairs):
    return LaurentPoly.from_pairs(pairs)


polys = st.dictionaries(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(lambda d: lp(d.items()))


class TestText:
    @pytest.mark.parametrize(
        "poly,text",
        [
            (ZERO, "0"),
            (ONE, "1"),
            (A, "A^1"),
            (DELTA, "-A^2 - A^-2"),
            (lp([(3, 2)]), "2*A^3"),
            (lp([(0, -7)]), "-7"),
            (lp([(1, 1), (-3, -1), (-5, -1)]), "A^1 - A^-3 - A^-5"),
            (lp([(2, 1), (0, -2), (-2, 1)]), "A^2 - 2 + A^-2"),
        ],
    )
    def test_str_frozen(self, poly, text):
        assert str(poly) == text

    @pytest.mark.parametrize(
        "text",
        [
            "0",
            "1",
            "-A^-3",
            "A^1 - A^-3 - A^-5",
            "2*A^3",
            "A^7 + A^3 + A^-1 - A^-9",
            "-A^2 - A^-2",
            "  A + 1 ",
            "3",
        ],
    )
    def test_parse_round_trip(self, text):
        poly = LaurentPoly.parse(text)
        assert LaurentPoly.parse(str(poly)) == poly

    @pytest.mark.parametrize(
        "bad", ["", "A^1 + ", "A +* 3", "A^", "**", "2*", "B^2", "A^2 2"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            LaurentPoly.parse(bad)

    @given(polys)
    def test_parse_inverts_str(self, p):
        assert LaurentPoly.parse(str(p)) == p


class TestRing:
    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_distributive(self, a, b, c):
        assert (a + b) * c == a * c + b * c

    @given(polys, polys)
    @settings(max_examples=60)
    def test_commutative(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(polys)
    def test_units(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        assert a * ZERO == ZERO

    @given(polys, st.integers(min_value=-6, max_value=6))
    def test_shift_is_monomial_product(self, a, k):
        assert a.shift(k) == a * LaurentPoly.monomial(1, k)
        assert a.shift(k).shift(-k) == a

    @given(polys)
    def test_mirror_involution(self, a):
        assert a.mirror().mirror() == a

    @given(polys, polys)
    @settings(max_examples=60)
    def test_mirror_multiplicative(self, a, b):
        assert (a * b).mirror() == a.mirror() * b.mirror()


class TestBreadth:
    def test_zero_and_monomials(self):
        assert ZERO.breadth() == 0
        assert A.breadth() == 0
        assert lp([(7, -3)]).breadth() == 0

    def test_frozen(self):
        assert DELTA.breadth() == 4
        assert LaurentPoly.parse("A^1 - A^-3 - A^-5").breadth() == 6

    @given(polys, polys)
    @settings(max_examples=80)
    def test_multiplicative(self, a, b):
        # no zero divisors in a Laurent ring over the integers
        if a.is_zero() or b.is_zero():
            assert (a * b).is_zero()
        else:
            assert (a * b).breadth() == a.breadth() + b.breadth()

    def test_exponent_range(self):
        p = LaurentPoly.parse("A^7 + A^3 + A^-1 - A^-9")
        assert p.max_exp() == 7
        assert p.min_exp() == -9
        assert p.breadth() == 16
        assert p.coeff(3) == 1
        assert p.coeff(-9) == -1
        assert p.coeff(0) == 0


def test_delta_power():
    assert delta_power(0) == ONE
    assert delta_power(1) == DELTA
    assert delta_power(3) == DELTA * DELTA * DELTA
    with pytest.raises(ValueError, match="k must be >= 0"):
        delta_power(-1)


def test_times_int():
    p = LaurentPoly.parse("A^2 - 2")
    assert p.times_int(3) == LaurentPoly.parse("3*A^2 - 6")
    assert p.times_int(0) == ZERO
