"""Integer Laurent polynomials in the single variable A.

Every skein-theoretic quantity in this package (bracket values, loop
factors, framing units) is an element of Z[A, A^-1].  Polynomials are
kept sparse as an exponent -> coefficient mapping with exact Python
integers; zero coefficients are never stored, so structural equality is
value equality.

The canonical text form lists terms by descending exponent, renders a
unit coefficient as a bare power ("A^1 - A^-3 - A^-5"), a constant term
as a bare integer, and a non-unit coefficient as "c*A^e".  The zero
polynomial renders as "0".  ``parse`` inverts ``__str__``, which raises
`CoefficientSizeError` past `sys.get_int_max_str_digits`.
"""

from __future__ import annotations

import re
import sys
from typing import Dict, Iterable, List, Tuple

__all__ = ["LaurentPoly", "CoefficientSizeError", "ZERO", "ONE", "A", "DELTA", "delta_power"]

# One additive term: "A^5", "2*A^-3", a bare "A", or a bare integer.
_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*"
    r"(?:(?:(?P<coeff>\d+)\s*\*\s*)?A(?:\^(?P<exp>-?\d+))?|(?P<const>\d+))"
)


class CoefficientSizeError(ValueError):
    """A coefficient too long to convert to text."""


class LaurentPoly:
    """An immutable integer Laurent polynomial in A."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Dict[int, int] | None = None):
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff:
                    clean[int(exp)] = int(coeff)
        self._terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def monomial(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "LaurentPoly":
        """Build from (exponent, coefficient) pairs, summing repeats."""
        terms: Dict[int, int] = {}
        for exp, coeff in pairs:
            terms[exp] = terms.get(exp, 0) + coeff
        return cls(terms)

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the canonical text form produced by ``__str__``."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls()
        terms: Dict[int, int] = {}
        pos = 0
        first = True
        while pos < len(s):
            m = _TERM.match(s, pos)
            if m is None or (not first and not m.group("sign")):
                raise ValueError("cannot parse %r at offset %d" % (text, pos))
            sign = -1 if m.group("sign") == "-" else 1
            if m.group("const") is not None:
                coeff, exp = int(m.group("const")), 0
            else:
                coeff = int(m.group("coeff")) if m.group("coeff") else 1
                exp = int(m.group("exp")) if m.group("exp") is not None else 1
            terms[exp] = terms.get(exp, 0) + sign * coeff
            pos = m.end()
            first = False
        return cls(terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            terms[exp] = terms.get(exp, 0) + coeff
        return LaurentPoly(terms)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            terms[exp] = terms.get(exp, 0) - coeff
        return LaurentPoly(terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        terms: Dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        return LaurentPoly(terms)

    def times_int(self, k: int) -> "LaurentPoly":
        return LaurentPoly({e: k * c for e, c in self._terms.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by A^k."""
        return LaurentPoly({e + k: c for e, c in self._terms.items()})

    def mirror(self) -> "LaurentPoly":
        """Substitute A -> A^-1 (the value of the mirror diagram)."""
        return LaurentPoly({-e: c for e, c in self._terms.items()})

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def breadth(self) -> int:
        """max exponent - min exponent; the breadth of 0 is 0."""
        if not self._terms:
            return 0
        return max(self._terms) - min(self._terms)

    def items(self) -> Iterable[Tuple[int, int]]:
        """(exponent, coefficient) pairs, in no particular order."""
        return self._terms.items()

    def to_pairs(self) -> List[Tuple[int, int]]:
        """Structured form: (exponent, coefficient) sorted descending."""
        return sorted(self._terms.items(), key=lambda p: -p[0])

    # -- protocol ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: List[str] = []
        try:
            for exp, coeff in self.to_pairs():
                mag = abs(coeff)
                if exp == 0:
                    body = str(mag)
                elif mag == 1:
                    body = "A^%d" % exp
                else:
                    body = "%d*A^%d" % (mag, exp)
                if not chunks:
                    chunks.append(("-" if coeff < 0 else "") + body)
                else:
                    chunks.append(("- " if coeff < 0 else "+ ") + body)
        except ValueError as exc:  # only int-to-text conversion raises here
            raise CoefficientSizeError(
                "a coefficient has more than %d digits, the interpreter's limit for printing an integer"
                % sys.get_int_max_str_digits()
            ) from exc
        return " ".join(chunks)

    def __repr__(self) -> str:
        return "LaurentPoly(%r)" % (self._terms,)


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
A = LaurentPoly({1: 1})

# The loop factor: a nullhomotopic circle contributes -A^2 - A^-2.
DELTA = LaurentPoly({2: -1, -2: -1})

_DELTA_POWERS: List[LaurentPoly] = [ONE]


def delta_power(k: int) -> LaurentPoly:
    """(-A^2 - A^-2)^k, cached."""
    if k < 0:
        raise ValueError("k must be >= 0")
    while len(_DELTA_POWERS) <= k:
        _DELTA_POWERS.append(_DELTA_POWERS[-1] * DELTA)
    return _DELTA_POWERS[k]
