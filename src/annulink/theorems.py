"""Breadth checks: the quantitative statements the package exists to test.

Each check_* function evaluates one inequality or equality relating the
bracket's breadth B to crossing and circle counts, on one diagram:

* breadth_upper:         B <= 2(n + s_plus + s_minus), equality if adequate
* state_count_bound:     s_plus + s_minus <= n+2 (in disk) or n
* alternating_equality:  the bound above is an equality for alternating
* breadth_theorem:       B <= 4n+4 / 4n always; for alternating diagrams
                         with no fig2_type crossing, B = 4n+4 in a disk
                         and B = 4n-4k outside one (k fig3_type crossings)

Every check reads its hypotheses (class, connectivity, alternation,
in-disk, state counts, adequacy, crossing types) from the diagram's
memoised `profile`, so verify_all derives each of them once.

A check returns a CheckRecord and never raises on out-of-scope input:
when a diagram misses a hypothesis the verdict is "hypotheses-not-met",
which is deliberately distinct from "fail".  A fail on met hypotheses
means a bug here or a wrong statement, and callers are expected to stop
and dump the diagram rather than continue.

`classify_nonalternating` is the diagram-free consumer: given only a
bracket polynomial, a claimed crossing count, and user-asserted
positional facts about the link (LinkAssertions; none of them is
computable from a diagram), it reports which non-alternation clause
fires.  Every conclusion is a disjunction, quoted verbatim in the
result; the classifier never resolves the disjunct.

`verify_all` bundles the four checks plus cross-route consistency
checks (plain vs Gray-code state histogram and bracket, circle-parity
invariants, vanishing on nontrivial class) into a VerificationReport.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .analysis import DiagramProfile, profile
from .diagram import AnnularDiagram
from .laurent import LaurentPoly
from .skein import _gray_histogram, _plain_histogram, bracket, bracket_gray

__all__ = [
    "CheckRecord",
    "LinkAssertions",
    "NonAlternatingCall",
    "VerificationReport",
    "check_breadth_upper",
    "check_state_count_bound",
    "check_alternating_equality",
    "check_breadth_theorem",
    "classify_nonalternating",
    "verify_all",
]

PASS = "pass"
FAIL = "fail"
SKIP = "hypotheses-not-met"

Hyp = Tuple[Tuple[str, object], ...]


class CheckRecord(NamedTuple):
    """Outcome of one check on one diagram."""

    check: str
    hypotheses: Hyp
    left: object
    right: object
    verdict: str
    note: str = ""

    def line(self) -> str:
        hyp = " ".join("%s=%s" % (k, v) for k, v in self.hypotheses)
        body = "%s: %s" % (self.check, self.verdict)
        if self.verdict != SKIP:
            body += "  left=%s right=%s" % (self.left, self.right)
        if hyp:
            body += "  [%s]" % hyp
        if self.note:
            body += "  (%s)" % self.note
        return body


class LinkAssertions(NamedTuple):
    """Facts about the represented link that no diagram computation can
    settle; callers assert them and reports carry them verbatim."""

    non_h_split: bool = False
    not_in_3ball: bool = False
    no_double_sphere_intersection: bool = False

    def items(self) -> Hyp:
        return tuple([(f, getattr(self, f)) for f in self._fields])


def _hyp(p: DiagramProfile, *fields: str) -> Hyp:
    """The named profile fields as hypotheses, in the order given."""
    return tuple([(f, getattr(p, f)) for f in fields])


def _skip(check: str, note: str, p: DiagramProfile, *fields: str) -> CheckRecord:
    """A hypotheses-not-met record showing the named profile fields."""
    return CheckRecord(check, _hyp(p, *fields), None, None, SKIP, note)


def check_breadth_upper(d: AnnularDiagram) -> CheckRecord:
    """B <= 2(n + s_plus + s_minus) for trivial mod-2 class, with
    equality whenever the diagram is adequate on both sides."""
    p = profile(d)
    if p.z2_class != 0:
        return _skip("breadth_upper", "needs mod-2 class 0", p, "z2_class")
    adequate = p.plus_adequate and p.minus_adequate
    B = bracket_gray(d).breadth()
    bound = 2 * (p.n + p.s_plus + p.s_minus)
    hyp: Hyp = (("z2_class", 0), ("adequate", adequate))
    if B > bound:
        return CheckRecord("breadth_upper", hyp, B, bound, FAIL, "bound exceeded")
    if adequate and B != bound:
        return CheckRecord(
            "breadth_upper", hyp, B, bound, FAIL, "adequate diagram missed equality"
        )
    note = "equality (adequate)" if adequate else "upper bound"
    return CheckRecord("breadth_upper", hyp, B, bound, PASS, note)


def check_state_count_bound(d: AnnularDiagram) -> CheckRecord:
    """s_plus + s_minus <= n+2 in a disk, n otherwise (connected,
    trivial mod-2 class)."""
    p = profile(d)
    if not p.connected or p.z2_class != 0:
        return _skip(
            "state_count_bound",
            "needs a connected diagram of mod-2 class 0",
            p, "connected", "z2_class",
        )
    states = p.s_plus + p.s_minus
    bound = p.n + 2 if p.in_disk else p.n
    hyp = _hyp(p, "connected", "z2_class", "in_disk")
    verdict = PASS if states <= bound else FAIL
    return CheckRecord("state_count_bound", hyp, states, bound, verdict)


def check_alternating_equality(d: AnnularDiagram) -> CheckRecord:
    """s_plus + s_minus = n+2 in a disk, n otherwise, for connected
    alternating diagrams of trivial mod-2 class."""
    p = profile(d)
    if not p.connected or not p.alternating or p.z2_class != 0:
        return _skip(
            "alternating_equality",
            "needs a connected alternating diagram of mod-2 class 0",
            p, "connected", "alternating", "z2_class",
        )
    states = p.s_plus + p.s_minus
    target = p.n + 2 if p.in_disk else p.n
    hyp = _hyp(p, "connected", "alternating", "z2_class", "in_disk")
    verdict = PASS if states == target else FAIL
    return CheckRecord("alternating_equality", hyp, states, target, verdict)


def check_breadth_theorem(d: AnnularDiagram) -> CheckRecord:
    """B <= 4n+4 (disk) / 4n for connected diagrams of trivial mod-2
    class; exact value 4n+4 / 4n-4k when also alternating with no
    fig2_type crossing (k counts fig3_type crossings, so k=0 gives the
    simple-diagram equality)."""
    p = profile(d)
    if not p.connected or p.z2_class != 0:
        return _skip(
            "breadth_theorem",
            "needs a connected diagram of mod-2 class 0",
            p, "connected", "z2_class",
        )
    fig2_free = not p.k_fig2  # None here means no crossings at all
    B = bracket_gray(d).breadth()
    cap = 4 * p.n + 4 if p.in_disk else 4 * p.n
    hyp = _hyp(p, "connected", "z2_class", "in_disk", "alternating") + (("fig2_free", fig2_free),)
    if B > cap:
        return CheckRecord("breadth_theorem", hyp, B, cap, FAIL, "upper bound exceeded")
    if p.alternating and fig2_free:
        target = cap if p.in_disk else cap - 4 * p.k_fig3
        verdict = PASS if B == target else FAIL
        note = "exact, k=%d" % p.k_fig3
        return CheckRecord("breadth_theorem", hyp, B, target, verdict, note)
    return CheckRecord("breadth_theorem", hyp, B, cap, PASS, "upper bound only")


class NonAlternatingCall(NamedTuple):
    """Which non-alternation clause fires for a bracket polynomial.

    ``case`` is the lowest-numbered firing clause (0 when none fires);
    ``cases`` lists all of them; ``conclusion`` quotes the disjunctive
    conclusion of the firing clause, or explains why nothing fires.
    """

    case: int
    cases: Tuple[int, ...]
    conclusion: str
    breadth: int
    assumptions: Hyp


def classify_nonalternating(
    poly: LaurentPoly,
    n_claim: int,
    flags: LinkAssertions,
    in_3ball: bool,
) -> NonAlternatingCall:
    """Apply the three breadth obstructions to a link known only through
    its bracket, a claimed crossing count, and asserted position facts.

    All clauses presuppose a non-H-split link of trivial mod-2 class;
    the first is unavailable to computation, so nothing fires unless
    ``flags.non_h_split`` is set.  Clause 1 needs B not a positive
    multiple of 4; clause 2 needs the link in a 3-ball and B < 4n+4;
    clause 3 needs the link not in a 3-ball, meeting no non-separating
    sphere twice, and B < 4n.
    """
    B = poly.breadth()
    assumptions: Hyp = flags.items() + (
        ("in_3ball", bool(in_3ball)),
        ("n_claim", int(n_claim)),
    )
    if not flags.non_h_split:
        return NonAlternatingCall(
            0, (), "no clause applies: link not asserted non-H-split", B, assumptions
        )
    fired: List[int] = []
    conclusions: List[str] = []
    if B == 0 or B % 4 != 0:
        fired.append(1)
        conclusions.append(
            "the knot with crossing number 1, or not alternating"
        )
    if in_3ball and B < 4 * n_claim + 4:
        fired.append(2)
        conclusions.append(
            "not alternating, or crossing number lower than %d" % n_claim
        )
    if (
        flags.not_in_3ball
        and flags.no_double_sphere_intersection
        and B < 4 * n_claim
    ):
        fired.append(3)
        conclusions.append(
            "not alternating, or crossing number lower than %d" % n_claim
        )
    if not fired:
        return NonAlternatingCall(0, (), "no clause applies", B, assumptions)
    return NonAlternatingCall(
        fired[0], tuple(fired), conclusions[0], B, assumptions
    )


# -- aggregate verification ----------------------------------------------


MAX_DUAL_ROUTE = 14  # both evaluators run, so cap the enumeration size


def _check_vanishing(d: AnnularDiagram) -> CheckRecord:
    p = profile(d)
    if p.z2_class != 1:
        return _skip("vanishing_bracket", "needs mod-2 class 1", p, "z2_class")
    poly = bracket_gray(d)
    verdict = PASS if poly.is_zero() else FAIL
    return CheckRecord("vanishing_bracket", _hyp(p, "z2_class"), str(poly), "0", verdict)


def _check_state_parity(d: AnnularDiagram) -> CheckRecord:
    p = profile(d)
    pp, pm, z2 = p.p_plus % 2, p.p_minus % 2, p.z2_class
    return CheckRecord(
        "state_parity",
        (),
        "p(s+)%%2=%d p(s-)%%2=%d" % (pp, pm),
        "z2=%d" % z2,
        PASS if pp == z2 and pm == z2 else FAIL,
    )


def _check_dual_route(d: AnnularDiagram) -> CheckRecord:
    p = profile(d)
    if p.n > MAX_DUAL_ROUTE:
        return _skip(
            "bracket_routes",
            "plain enumeration capped at %d crossings here" % MAX_DUAL_ROUTE,
            p, "n",
        )
    plain = bracket(d)
    gray = bracket_gray(d)
    # On a class-1 diagram both polynomials are 0, so compare the state
    # histograms too: a wrong odd-p state shows only there, and the note
    # names the first key at which they differ.
    note = ""
    if plain == gray:
        hp, hg = _plain_histogram(d), _gray_histogram(d)
        if hp != hg:
            key = min(k for k in hp.keys() | hg.keys() if hp.get(k) != hg.get(k))
            note = "histograms differ at %s: plain=%d gray=%d" % (key, hp.get(key, 0), hg.get(key, 0))
    verdict = PASS if plain == gray and not note else FAIL
    return CheckRecord("bracket_routes", _hyp(p, "n"), str(plain), str(gray), verdict, note)


class VerificationReport(NamedTuple):
    """All check outcomes for one diagram."""

    name: str
    assumptions: Hyp
    records: Tuple[CheckRecord, ...]

    def ok(self) -> bool:
        return all(r.verdict != FAIL for r in self.records)

    def failures(self) -> Tuple[CheckRecord, ...]:
        return tuple(r for r in self.records if r.verdict == FAIL)

    def lines(self) -> List[str]:
        out = ["diagram %s" % self.name]
        if self.assumptions:
            out.append(
                "  assume " + " ".join("%s=%s" % (k, v) for k, v in self.assumptions)
            )
        for r in self.records:
            out.append("  " + r.line())
        return out


def verify_all(
    d: AnnularDiagram,
    flags: Optional[LinkAssertions] = None,
    name: str = "diagram",
) -> VerificationReport:
    """Run every check that can apply to one diagram."""
    flags = flags or LinkAssertions()
    records = (
        check_breadth_upper(d),
        check_state_count_bound(d),
        check_alternating_equality(d),
        check_breadth_theorem(d),
        _check_vanishing(d),
        _check_state_parity(d),
        _check_dual_route(d),
    )
    return VerificationReport(name, flags.items(), records)
