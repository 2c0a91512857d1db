"""Breadth checks, the bracket-only classifier, and report plumbing."""

import random

import pytest

from annulink import analysis
from annulink.analysis import is_adequate, z2_class
from annulink.diagram import from_braid_closure, from_free_loops
from annulink.laurent import DELTA, ZERO, LaurentPoly
from annulink.theorems import (
    FAIL,
    PASS,
    SKIP,
    CheckRecord,
    LinkAssertions,
    check_alternating_equality,
    check_breadth_theorem,
    check_breadth_upper,
    check_state_count_bound,
    classify_nonalternating,
    verify_all,
)

ALL_FLAGS = LinkAssertions(
    non_h_split=True,
    not_in_3ball=True,
    no_double_sphere_intersection=True,
)


def closure(word, strands, disk=False):
    return from_braid_closure(word, strands, disk=disk)


class TestStateCountBound:
    def test_single_crossing_meets_bound(self):
        rec = check_state_count_bound(closure([1], 2))
        assert (rec.verdict, rec.left, rec.right) == (PASS, 1, 1)

    def test_trefoil_closure(self):
        rec = check_state_count_bound(closure([1, 1, 1], 2))
        assert (rec.verdict, rec.left, rec.right) == (PASS, 3, 3)

    def test_skips_off_class(self):
        rec = check_state_count_bound(closure([1], 3))
        assert rec.verdict == SKIP
        assert rec.left is None


class TestAlternatingEquality:
    def test_annular_trefoil(self):
        rec = check_alternating_equality(closure([1, 1, 1], 2))
        assert (rec.verdict, rec.left, rec.right) == (PASS, 3, 3)

    def test_disk_trefoil_gets_two_extra(self):
        rec = check_alternating_equality(closure([1, 1, 1], 2, disk=True))
        assert (rec.verdict, rec.left, rec.right) == (PASS, 5, 5)

    def test_skips_nonalternating(self):
        rec = check_alternating_equality(closure([1, 2], 3))
        assert rec.verdict == SKIP
        assert ("alternating", False) in rec.hypotheses


class TestBreadthUpper:
    def test_adequate_equality(self):
        rec = check_breadth_upper(closure([1, -2, 3] * 2, 4))
        assert (rec.verdict, rec.left, rec.right) == (PASS, 24, 24)
        assert rec.note == "equality (adequate)"

    def test_inadequate_still_bounded(self):
        rec = check_breadth_upper(closure([-1, -1], 2))
        assert rec.verdict == PASS
        assert rec.note == "upper bound"
        assert ("adequate", False) in rec.hypotheses

    def test_skips_off_class(self):
        assert check_breadth_upper(from_free_loops([1])).verdict == SKIP


class TestBreadthTheorem:
    def test_simple_alternating_exact(self):
        rec = check_breadth_theorem(closure([1, -2, 3] * 2, 4))
        assert (rec.verdict, rec.left, rec.right) == (PASS, 24, 24)
        assert rec.note == "exact, k=0"

    def test_disk_trefoil_exact(self):
        rec = check_breadth_theorem(closure([1, 1, 1], 2, disk=True))
        assert (rec.verdict, rec.left, rec.right) == (PASS, 16, 16)

    def test_removable_crossings_lower_the_value(self):
        # three crossings all bridging the boundary faces: k=3, so the
        # predicted breadth drops to 4n-4k = 0
        rec = check_breadth_theorem(closure([1, 1, 1], 2))
        assert (rec.verdict, rec.left, rec.right) == (PASS, 0, 0)
        assert rec.note == "exact, k=3"

    def test_nonalternating_only_bounded(self):
        rec = check_breadth_theorem(closure([1, 2, -3, 1], 4))
        assert rec.verdict == PASS
        assert rec.note == "upper bound only"
        assert rec.right == 16

    def test_skips_disconnected(self):
        rec = check_breadth_theorem(closure([1], 4))
        assert rec.verdict == SKIP


class TestClassifier:
    def test_zero_bracket_fires_first_clause(self):
        call = classify_nonalternating(ZERO, 3, ALL_FLAGS, in_3ball=False)
        assert call.case == 1
        assert call.breadth == 0
        assert "crossing number 1" in call.conclusion

    def test_breadth_off_lattice_fires_first_clause(self):
        poly = LaurentPoly.parse("A^1 - A^-3 - A^-5")
        call = classify_nonalternating(poly, 2, ALL_FLAGS, in_3ball=False)
        assert call.breadth == 6
        assert call.case == 1
        # breadth 6 < 4*2 also trips the outside-a-ball clause
        assert call.cases == (1, 3)

    def test_small_breadth_inside_ball(self):
        call = classify_nonalternating(
            DELTA, 1, LinkAssertions(non_h_split=True), in_3ball=True
        )
        assert call.case == 2
        assert "lower than 1" in call.conclusion

    def test_nothing_fires_on_consistent_data(self):
        call = classify_nonalternating(
            DELTA, 0, LinkAssertions(non_h_split=True), in_3ball=True
        )
        assert call.case == 0
        assert call.cases == ()
        assert call.conclusion == "no clause applies"

    def test_silent_without_splitness_assertion(self):
        call = classify_nonalternating(ZERO, 3, LinkAssertions(), in_3ball=False)
        assert call.case == 0
        assert "not asserted non-H-split" in call.conclusion

    def test_assumptions_carried_verbatim(self):
        call = classify_nonalternating(ZERO, 7, ALL_FLAGS, in_3ball=False)
        assert ("n_claim", 7) in call.assumptions
        assert ("non_h_split", True) in call.assumptions


class TestVerifyAll:
    def test_good_diagram_all_pass(self):
        report = verify_all(closure([1, -2, 3] * 2, 4), name="zigzag")
        assert report.ok()
        assert report.failures() == ()
        verdicts = {r.check: r.verdict for r in report.records}
        assert verdicts["breadth_theorem"] == PASS
        assert verdicts["bracket_routes"] == PASS
        # annular diagram of trivial class: the vanishing check is idle
        assert verdicts["vanishing_bracket"] == SKIP

    def test_off_class_diagram_skips_breadth_side(self):
        report = verify_all(from_free_loops([1]), name="core")
        assert report.ok()
        verdicts = {r.check: r.verdict for r in report.records}
        assert verdicts["breadth_upper"] == SKIP
        assert verdicts["vanishing_bracket"] == PASS

    def test_large_diagram_skips_plain_route(self):
        report = verify_all(closure([1, -2] * 8, 3))
        verdicts = {r.check: r.verdict for r in report.records}
        assert verdicts["bracket_routes"] == SKIP
        assert report.ok()

    def test_report_lines(self):
        report = verify_all(closure([1], 2), flags=ALL_FLAGS, name="hopf")
        lines = report.lines()
        assert lines[0] == "diagram hopf"
        assert lines[1].lstrip().startswith("assume ")
        assert any("state_parity: pass" in l for l in lines)

    def test_random_sweep_stays_green(self):
        rng = random.Random(40)
        for _ in range(25):
            strands = rng.choice((2, 4))
            word = [
                rng.choice((1, -1)) * rng.randrange(1, strands)
                for _ in range(rng.randrange(0, 8))
            ]
            d = closure(word, strands, disk=rng.random() < 0.3)
            report = verify_all(d)
            assert report.ok(), "\n".join(report.lines())


class TestRecordFormat:
    def test_line_shows_sides_and_note(self):
        rec = CheckRecord(
            "demo", (("z2_class", 0),), 8, 12, PASS, "upper bound"
        )
        assert rec.line() == "demo: pass  left=8 right=12  [z2_class=0]  (upper bound)"

    def test_skip_line_hides_sides(self):
        rec = CheckRecord("demo", (), None, None, SKIP, "needs more")
        assert "left" not in rec.line()

    def test_fail_is_not_skip(self):
        assert FAIL != SKIP


class TestFactsDerivedOnce:
    """verify_all reads every hypothesis from the diagram's one profile."""

    def test_verify_all_resolves_no_more_than_profile(self, monkeypatch):
        zigzag = [1, -2, 3] * 2
        d = closure(zigzag, 4)
        assert z2_class(d) == 0 and is_adequate(d) == (True, True)
        calls = []
        resolve = analysis.resolve

        def counted(*args, **kwargs):
            calls.append(1)
            return resolve(*args, **kwargs)

        monkeypatch.setattr(analysis, "resolve", counted)
        analysis.profile(closure(zigzag, 4))
        by_profile = len(calls)
        del calls[:]
        assert verify_all(closure(zigzag, 4)).ok()
        assert 0 < len(calls) <= by_profile
