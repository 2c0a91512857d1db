"""Bundled reference diagrams with recorded expected values.

Each entry couples a one-line builder recipe with the values the
verification suite recomputes on every run: the bracket, its breadth,
and a handful of profile bits.  The ``source`` field says where an
expected value comes from:

    stated        written down by hand together with the diagram
    derived       computed once through an independent route, then frozen
    construction  immediate from how the diagram is built

Recipes are either the compact builder strings understood by
``diagfile.parse_recipe`` or ``family: <name> <size> <seed> <index>``,
which freezes one member of a generated family.

One entry, ``fig14``, keeps a stated bracket that recomputation
contradicts.  The recorded value A - A^-3 - A^-5 mixes exponents from
two residue classes mod 4, but switching a single state marker always
moves a state's exponent by a multiple of four (checked exhaustively
for small diagrams and forced by how circles merge and split), so
every diagram's bracket lives in one class and no diagram attains the
recorded value.  The entry stays as written so that every verification
run surfaces the discrepancy instead of hiding it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from .analysis import profile
from .diagfile import parse_recipe
from .diagram import AnnularDiagram
from .generate import generate_family
from .laurent import LaurentPoly
from .skein import bracket_gray
from .theorems import FAIL, PASS, CheckRecord, Hyp, LinkAssertions, VerificationReport, verify_all

__all__ = [
    "CorpusEntry",
    "ENTRIES",
    "PAIR_CHECKS",
    "get",
    "names",
    "build",
    "verify_entry",
    "verify_pairs",
]


class CorpusEntry(NamedTuple):
    """One named diagram plus the values rechecked against it."""

    name: str
    recipe: str
    source: str
    note: str
    expected_bracket: Optional[str] = None
    expected_breadth: Optional[int] = None
    expected_profile: Mapping[str, object] = MappingProxyType({})

    def build(self) -> AnnularDiagram:
        return build(self.recipe)


def build(recipe: str) -> AnnularDiagram:
    """Materialize a corpus recipe (builder string or family member)."""
    if recipe.startswith("family:"):
        parts = recipe[len("family:"):].split()
        if len(parts) != 4:
            raise ValueError(
                "family recipe is 'family: <name> <size> <seed> <index>', got %r"
                % recipe
            )
        name, size, seed, index = parts[0], int(parts[1]), int(parts[2]), int(parts[3])
        return generate_family(name, size, seed)[index]
    return parse_recipe(recipe)


_RAW: Tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="core",
        recipe="loops: 1",
        source="stated",
        note="single crossingless loop around the annulus; states with an "
        "odd essential count contribute nothing, so the bracket vanishes",
        expected_bracket="0",
        expected_breadth=0,
        expected_profile={"n": 0, "z2_class": 1},
    ),
    CorpusEntry(
        name="unknot",
        recipe="loops: 0",
        source="stated",
        note="crossingless loop bounding a disk",
        expected_bracket="-A^2 - A^-2",
        expected_breadth=4,
        expected_profile={"n": 0, "z2_class": 0, "in_disk": True},
    ),
    CorpusEntry(
        name="two_cores",
        recipe="loops: 1 1",
        source="derived",
        note="2k parallel loops evaluate to the k-th Catalan number; k = 1",
        expected_bracket="1",
        expected_breadth=0,
        expected_profile={"n": 0, "z2_class": 0},
    ),
    CorpusEntry(
        name="six_cores",
        recipe="loops: 1 1 1 1 1 1",
        source="derived",
        note="2k parallel loops evaluate to the k-th Catalan number; k = 3",
        expected_bracket="5",
        expected_breadth=0,
        expected_profile={"n": 0, "z2_class": 0},
    ),
    CorpusEntry(
        name="one_crossing",
        recipe="braid 2: s1",
        source="stated",
        note="smallest annular knot diagram; calibrates the twist factor sign",
        expected_bracket="-A^-3",
        expected_breadth=0,
        expected_profile={"n": 1, "z2_class": 0, "alternating": True, "k_fig3": 1},
    ),
    CorpusEntry(
        name="sigma1_squared",
        recipe="braid 2: s1 s1",
        source="derived",
        note="two-crossing clasp winding twice; every crossing is removable "
        "by a double twist, and the bracket is a monomial",
        expected_bracket="A^-6",
        expected_breadth=0,
        expected_profile={"n": 2, "z2_class": 0, "alternating": True, "k_fig3": 2},
    ),
    CorpusEntry(
        name="sigma1_fourth",
        recipe="braid 2: s1 s1 s1 s1",
        source="derived",
        note="four-crossing clasp, same family as sigma1_squared",
        expected_bracket="A^-12",
        expected_breadth=0,
        expected_profile={"n": 4, "z2_class": 0, "k_fig3": 4},
    ),
    CorpusEntry(
        name="disk_trefoil",
        recipe="braid 2 disk: s1 s1 s1",
        source="derived",
        note="three positive crossings in a disk; the loop factor times the "
        "familiar three-crossing polynomial",
        expected_bracket="A^7 + A^3 + A^-1 - A^-9",
        expected_breadth=16,
        expected_profile={"n": 3, "in_disk": True, "alternating": True, "simple": True},
    ),
    CorpusEntry(
        name="kinked_disk_unknot",
        recipe="braid 2 disk: s1",
        source="derived",
        note="one kink in a disk; a single twist factor times the unknot value",
        expected_bracket="A^5 + A^1",
        expected_breadth=4,
        expected_profile={"n": 1, "in_disk": True, "simple": False},
    ),
    CorpusEntry(
        name="fig4_left",
        recipe="braid 3: s1 -s2",
        source="stated",
        note="two-crossing alternating diagram winding three times; the "
        "nontrivial mod-2 class forces a zero bracket",
        expected_bracket="0",
        expected_breadth=0,
        expected_profile={"n": 2, "z2_class": 1, "alternating": True},
    ),
    CorpusEntry(
        name="fig4_right",
        recipe="braid 3: s1 -s2 s1 -s2",
        source="stated",
        note="four-crossing alternating diagram of the same knot as "
        "fig4_left; equal (zero) brackets despite different crossing counts",
        expected_bracket="0",
        expected_breadth=0,
        expected_profile={"n": 4, "z2_class": 1, "alternating": True, "simple": True},
    ),
    CorpusEntry(
        name="fig5_left",
        recipe="braid 2: s1",
        source="stated",
        note="alternating one-crossing diagram of a knot winding twice; a "
        "full twist on two strands carries it to fig5_right",
        expected_breadth=0,
        expected_profile={
            "n": 1,
            "z2_class": 0,
            "alternating": True,
            "quasi_simple": True,
        },
    ),
    CorpusEntry(
        name="fig5_right",
        recipe="braid 2: s1 s1 s1",
        source="stated",
        note="three-crossing alternating diagram of the same knot as "
        "fig5_left; breadths agree while crossing counts differ",
        expected_breadth=0,
        expected_profile={
            "n": 3,
            "z2_class": 0,
            "alternating": True,
            "quasi_simple": False,
            "k_fig3": 3,
        },
    ),
    CorpusEntry(
        name="fig11_left",
        recipe="braid 2: s1",
        source="stated",
        note="at its crossing the two all-positive replacement strands land "
        "on distinct circles, yet the all-positive state has a circle "
        "touching itself, so plus-adequacy still fails",
        expected_profile={"n": 1, "plus_adequate": False, "minus_adequate": True},
    ),
    CorpusEntry(
        name="fig11_right",
        recipe="braid 2: -s1 -s1",
        source="stated",
        note="negative clasp winding twice; plus-adequate but not minus-adequate",
        expected_bracket="A^6",
        expected_profile={"n": 2, "plus_adequate": True, "minus_adequate": False},
    ),
    CorpusEntry(
        name="fig13",
        recipe="braid 4: s1 s2 s3",
        source="stated",
        note="three ascending crossings on four strands close to a knot "
        "winding four times; the bracket vanishes even though the mod-2 "
        "class is trivial",
        expected_bracket="0",
        expected_breadth=0,
        expected_profile={"n": 3, "z2_class": 0, "connected": True},
    ),
    CorpusEntry(
        name="fig14",
        recipe="braid 2: s1 s1 s1",
        source="stated",
        note="stand-in for a drawn three-crossing knot whose recorded "
        "bracket is A - A^-3 - A^-5; that value mixes exponent classes "
        "mod 4 and is unattainable (see module docstring), so this entry "
        "fails verification by design and the recomputed value is -A^-9",
        expected_bracket="A^1 - A^-3 - A^-5",
        expected_breadth=6,
        expected_profile={"n": 3, "z2_class": 0, "connected": True},
    ),
    CorpusEntry(
        name="zigzag_m2",
        recipe="braid 4: s1 -s2 s3 s1 -s2 s3",
        source="derived",
        note="sign-alternating pattern on four strands, two repeats; simple "
        "alternating annular diagram, so the breadth is forced to 4n",
        expected_bracket="A^10 - 2*A^6 + 3*A^2 - 2*A^-2 + 3*A^-6 - 2*A^-10 + A^-14",
        expected_breadth=24,
        expected_profile={
            "n": 6,
            "z2_class": 0,
            "alternating": True,
            "simple": True,
        },
    ),
    CorpusEntry(
        name="zigzag_m3",
        recipe="braid 4: s1 -s2 s3 s1 -s2 s3 s1 -s2 s3",
        source="derived",
        note="three repeats of the zigzag pattern; breadth again 4n",
        expected_breadth=36,
        expected_profile={
            "n": 9,
            "z2_class": 0,
            "alternating": True,
            "simple": True,
        },
    ),
    CorpusEntry(
        name="alt_gen_a",
        recipe="family: alternating-braid-closures 1 9 0",
        source="construction",
        note="frozen member of the alternating closure family, seed 9",
        expected_bracket="A^18 - 3*A^14 + 5*A^10 - 8*A^6 + 10*A^2 - 11*A^-2 "
        "+ 10*A^-6 - 8*A^-10 + 5*A^-14 - 3*A^-18 + A^-22",
        expected_breadth=40,
        expected_profile={"n": 10, "z2_class": 0, "alternating": True, "simple": True},
    ),
    CorpusEntry(
        name="rmove_a",
        recipe="family: r-move-perturbations 3 7 0",
        source="construction",
        note="kink and finger moves applied to the three-crossing disk "
        "diagram; the bracket differs from the base value by twist factors",
        expected_bracket="-A^10 - A^6 - A^2 + A^-6",
        expected_breadth=16,
        expected_profile={"in_disk": True},
    ),
)

ENTRIES: Dict[str, CorpusEntry] = {e.name: e for e in _RAW}

# Relationships between entries, checked after the per-entry runs.
PAIR_CHECKS: Tuple[Tuple[str, str, str], ...] = (
    ("equal_breadth", "fig5_left", "fig5_right"),
    ("equal_bracket", "fig4_left", "fig4_right"),
    ("crossing_counts_differ", "fig4_left", "fig4_right"),
    ("crossing_counts_differ", "fig5_left", "fig5_right"),
)


def names() -> List[str]:
    return sorted(ENTRIES)


def get(name: str) -> CorpusEntry:
    try:
        return ENTRIES[name]
    except KeyError:
        raise KeyError(
            "no corpus entry %r (have: %s)" % (name, ", ".join(names()))
        )


def _compare(check: str, hyp: Hyp, got: object, want: object, equal: bool = True) -> CheckRecord:
    """A record that passes when ``got == want`` is ``equal``."""
    return CheckRecord(check, hyp, got, want, PASS if (got == want) == equal else FAIL)


def _expected_checks(entry: CorpusEntry, d: AnnularDiagram) -> List[CheckRecord]:
    rows: List[Tuple[str, object, object]] = []
    if entry.expected_bracket is not None:
        want = LaurentPoly.parse(entry.expected_bracket)
        rows.append(("expected_bracket", str(bracket_gray(d)), str(want)))
    if entry.expected_breadth is not None:
        rows.append(("expected_breadth", bracket_gray(d).breadth(), entry.expected_breadth))
    record = profile(d).as_record()
    rows += [
        ("expected_%s" % key, record[key], entry.expected_profile[key])
        for key in sorted(entry.expected_profile)
    ]
    hyp = (("source", entry.source),)
    return [_compare(check, hyp, got, want) for check, got, want in rows]


def verify_entry(
    entry: CorpusEntry,
    d: Optional[AnnularDiagram] = None,
    flags: Optional[LinkAssertions] = None,
) -> VerificationReport:
    """Recheck one entry: recorded values first, then the general checks.

    ``d`` is the entry's diagram, when the caller has built it already;
    ``flags`` are the asserted link facts the report carries.
    """
    d = entry.build() if d is None else d
    base = verify_all(d, flags, name=entry.name)
    records = tuple(_expected_checks(entry, d)) + base.records
    return VerificationReport(entry.name, base.assumptions, records)


# Pair check kind -> (the value read off each diagram, whether the two
# values should be equal).
_PAIR_KINDS: Dict[str, Tuple[Callable[[AnnularDiagram], object], bool]] = {
    "equal_breadth": (lambda d: bracket_gray(d).breadth(), True),
    "equal_bracket": (lambda d: str(bracket_gray(d)), True),
    "crossing_counts_differ": (lambda d: d.n, False),
}


def verify_pairs(built: Optional[Mapping[str, AnnularDiagram]] = None) -> List[CheckRecord]:
    """Recheck the recorded relationships between entries.

    ``built`` maps entry names to diagrams the caller has built already,
    so their memoised brackets are reused; other entries are built here.
    """
    built = {} if built is None else built

    def diagram(name: str) -> AnnularDiagram:
        return built[name] if name in built else get(name).build()

    out: List[CheckRecord] = []
    for kind, a, b in PAIR_CHECKS:
        value, equal = _PAIR_KINDS[kind]
        hyp = (("pair", "%s/%s" % (a, b)),)
        out.append(_compare(kind, hyp, value(diagram(a)), value(diagram(b)), equal))
    return out
