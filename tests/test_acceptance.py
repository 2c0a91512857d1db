"""Acceptance sweep: twelve headline behaviors, one test per criterion.

Each test prints exactly one line, "criterion NN: PASS" or
"criterion NN: FAIL (...)", and then asserts it.  Comparisons are exact
(integer polynomial arithmetic throughout); the only tolerance anywhere
is the wall-clock budget in criterion 12.

Criterion 07 is red on purpose.  The corpus records a bracket of
breadth 6 for the three-crossing closure it pins, but every bracket
this package computes keeps all exponents in a single residue class
mod 4 (flipping one smoothing moves a state's exponent by a multiple
of 4 when the diagram's mod-2 class is trivial), so breadth 6 is
unreachable and the recorded value cannot be reproduced.  The test
asserts the recorded value anyway and fails, rather than asserting the
computed value and hiding the discrepancy.
"""

import math
import random
import time

from annulink.analysis import (
    is_adequate,
    is_alternating,
    is_connected,
    is_simple,
    z2_class,
)
from annulink.corpus import ENTRIES, build
from annulink.diagram import (
    apply_full_twist,
    from_braid_closure,
    from_free_loops,
    insert_r1,
    insert_r2,
)
from annulink.generate import (
    alternating_braid_closures,
    disk_alternating,
    random_braid_closures,
)
from annulink.laurent import DELTA, ONE, ZERO, LaurentPoly
from annulink.skein import alpha, alpha_walk_oracle, bracket, bracket_gray
from annulink.theorems import (
    PASS,
    LinkAssertions,
    check_alternating_equality,
    check_breadth_theorem,
    check_breadth_upper,
    check_state_count_bound,
    classify_nonalternating,
)

ALL_FLAGS = LinkAssertions(
    non_h_split=True,
    not_in_3ball=True,
    no_double_sphere_intersection=True,
)


def closure(word, strands, disk=False):
    return from_braid_closure(word, strands, disk=disk)


def conclude(num, problems, detail=""):
    ok = not problems
    line = "criterion %02d: %s" % (num, "PASS" if ok else "FAIL")
    notes = list(problems) + ([detail] if detail else [])
    if notes:
        line += "  (%s)" % "; ".join(notes)
    print(line)
    assert ok, line


def test_criterion_01_circle_count_oracles():
    problems = []
    for p in range(21):
        if alpha(p) != alpha_walk_oracle(p):
            problems.append("routes disagree at p=%d" % p)
    for k in range(6):
        expect = math.comb(2 * k, k) // (k + 1)
        if alpha(2 * k) != expect:
            problems.append("alpha(%d) != catalan" % (2 * k))
        if alpha(2 * k + 1) != 0:
            problems.append("alpha(%d) != 0" % (2 * k + 1))
    conclude(1, problems, "alpha agrees with the walk oracle through p=20")


def test_criterion_02_calibration():
    cases = [
        ("empty", from_free_loops([]), ONE),
        ("trivial loop", from_free_loops([0]), DELTA),
        ("essential loop", from_free_loops([1]), ZERO),
        ("positive crossing", closure([1], 2), LaurentPoly.parse("-A^-3")),
        ("negative crossing", closure([-1], 2), LaurentPoly.parse("-A^3")),
    ]
    problems = [
        "%s gave %s" % (label, bracket(d))
        for label, d, expect in cases
        if bracket(d) != expect
    ]
    conclude(2, problems, "five pinned calibration values")


def test_criterion_03_nontrivial_class_vanishes():
    diagrams = random_braid_closures(100, seed=301, strands_options=(3, 5))
    problems = []
    for i, d in enumerate(diagrams):
        assert z2_class(d) == 1
        if not bracket_gray(d).is_zero():
            problems.append("sample %d has nonzero bracket" % i)
    conclude(3, problems, "100 closures of mod-2 class 1 all vanish")


def test_criterion_04_breadth_upper_bound():
    diagrams = random_braid_closures(
        200, seed=401, strands_options=(2, 4), max_length=12
    )
    problems = []
    equalities = 0
    for i, d in enumerate(diagrams):
        rec = check_breadth_upper(d)
        if rec.verdict != PASS:
            problems.append("sample %d: %s" % (i, rec.line()))
        elif rec.note == "equality (adequate)":
            equalities += 1
    if equalities == 0:
        problems.append("no adequate sample exercised the equality clause")
    conclude(
        4,
        problems,
        "200 trivial-class samples, equality on %d adequate ones" % equalities,
    )


def test_criterion_05_state_count_bounds():
    population = random_braid_closures(
        200, seed=501, strands_options=(2, 4)
    ) + alternating_braid_closures(100, seed=502)
    connected = [d for d in population if is_connected(d)]
    alternating = [d for d in connected if is_alternating(d)]
    problems = []
    for i, d in enumerate(connected):
        rec = check_state_count_bound(d)
        if rec.verdict != PASS:
            problems.append("bound on sample %d: %s" % (i, rec.line()))
    for i, d in enumerate(alternating):
        rec = check_alternating_equality(d)
        if rec.verdict != PASS:
            problems.append("equality on sample %d: %s" % (i, rec.line()))
    if len(connected) < 100 or len(alternating) < 40:
        problems.append(
            "population too thin (%d connected, %d alternating)"
            % (len(connected), len(alternating))
        )
    conclude(
        5,
        problems,
        "%d connected samples, equality on %d alternating"
        % (len(connected), len(alternating)),
    )


def test_criterion_06_breadth_families():
    problems = []
    for i, d in enumerate(disk_alternating(6, seed=601)):
        rec = check_breadth_theorem(d)
        if rec.verdict != PASS or rec.left != 4 * d.n + 4:
            problems.append("disk sample %d: %s" % (i, rec.line()))
    for m in range(1, 7):
        d = closure([1, -2, 3] * m, 4)
        rec = check_breadth_theorem(d)
        if rec.verdict != PASS:
            problems.append("zigzag m=%d: %s" % (m, rec.line()))
        elif m == 1:
            # the three crossings of the m=1 word are all removable by a
            # finger move, so only the upper bound is claimed there
            if rec.note != "upper bound only":
                problems.append("zigzag m=1 took branch %r" % rec.note)
        elif rec.left != 12 * m or rec.note != "exact, k=0":
            problems.append("zigzag m=%d missed 4n: %s" % (m, rec.line()))
    for m in range(1, 5):
        d = closure([1] * (2 * m), 2)
        rec = check_breadth_theorem(d)
        if rec.verdict != PASS or rec.left != 0 or rec.note != "exact, k=%d" % (2 * m):
            problems.append("twist 2m=%d: %s" % (2 * m, rec.line()))
    conclude(6, problems, "disk 4n+4, zigzag 4n, torus powers 4n-4k=0")


def test_criterion_07_nonalternating_certificates():
    problems = []
    thirteen = bracket_gray(build(ENTRIES["fig13"].recipe))
    if not thirteen.is_zero():
        problems.append("4-strand example gave %s" % thirteen)
    recorded = LaurentPoly.parse(ENTRIES["fig14"].expected_bracket)
    computed = bracket_gray(build(ENTRIES["fig14"].recipe))
    for label, poly in (("recorded", recorded), ("computed", computed)):
        call = classify_nonalternating(poly, 3, ALL_FLAGS, in_3ball=False)
        if call.case != 1:
            problems.append("%s value fired clause %d" % (label, call.case))
    call0 = classify_nonalternating(thirteen, 3, ALL_FLAGS, in_3ball=False)
    if call0.case != 1:
        problems.append("zero bracket fired clause %d" % call0.case)
    if computed != recorded:
        problems.append(
            "recorded bracket %s is unreachable (breadth 6 mixes mod-4 "
            "residue classes); computed %s" % (recorded, computed)
        )
    conclude(7, problems, "known red: the recorded three-crossing bracket")


def test_criterion_08_distinct_diagrams_same_invariants():
    problems = []
    fig4 = build(ENTRIES["fig4_left"].recipe), build(ENTRIES["fig4_right"].recipe)
    if not (bracket(fig4[0]).is_zero() and bracket(fig4[1]).is_zero()):
        problems.append("vanishing pair has a nonzero member")
    if fig4[0].n == fig4[1].n:
        problems.append("vanishing pair sizes coincide")
    fig5 = build(ENTRIES["fig5_left"].recipe), build(ENTRIES["fig5_right"].recipe)
    b0, b1 = bracket(fig5[0]).breadth(), bracket(fig5[1]).breadth()
    if b0 != b1:
        problems.append("breadth pair differs: %d vs %d" % (b0, b1))
    if fig5[0].n == fig5[1].n:
        problems.append("breadth pair sizes coincide")
    conclude(8, problems, "two pairs, equal invariants at different sizes")


def test_criterion_09_move_behavior():
    rng = random.Random(901)
    problems = []
    checked = 0
    while checked < 100:
        strands = rng.choice((2, 3, 4))
        word = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 8))
        ]
        d = closure(word, strands, disk=rng.random() < 0.3)
        faces = [f for f in d.trace_faces() if len(f) >= 2]
        if not faces:
            continue
        face = rng.choice(faces)
        (c1, s1), (c2, s2) = rng.sample(list(face), 2)
        e1, e2 = d.crossings[c1][s1], d.crossings[c2][s2]
        if e1 == e2:
            continue
        if bracket_gray(insert_r2(d, e1, e2)) != bracket_gray(d):
            problems.append("finger move %d changed the bracket" % checked)
        checked += 1
    kink_up = LaurentPoly.parse("-A^3")
    kink_down = LaurentPoly.parse("-A^-3")
    for k in range(40):
        strands = rng.choice((2, 3))
        word = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(1, 6))
        ]
        d = closure(word, strands)
        edge = rng.choice(sorted(d.edge_parity))
        sign = 1 if k % 2 == 0 else -1
        scale = kink_up if sign > 0 else kink_down
        if bracket_gray(insert_r1(d, edge, sign=sign)) != scale * bracket_gray(d):
            problems.append("kink %d missed its factor" % k)
    for k in range(20):
        strands = rng.choice((2, 3))
        word = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(1, 5))
        ]
        before = bracket_gray(closure(word, strands)).breadth()
        after = bracket_gray(
            closure(apply_full_twist(word, strands), strands)
        ).breadth()
        if before != after:
            problems.append("full twist %d moved breadth %d->%d" % (k, before, after))
    conclude(9, problems, "100 finger moves, 40 kinks, 20 full twists")


def test_criterion_10_alternating_adequacy():
    population = [
        d
        for d in alternating_braid_closures(600, seed=33)
        if is_connected(d) and is_simple(d)
    ]
    problems = []
    if len(population) < 50:
        problems.append("only %d qualifying samples" % len(population))
    for i, d in enumerate(population):
        assert z2_class(d) == 0
        plus, minus = is_adequate(d)
        if not (plus and minus):
            problems.append("sample %d not adequate (%s, %s)" % (i, plus, minus))
    conclude(10, problems, "%d simple alternating samples" % len(population))


def test_criterion_11_route_agreement():
    rng = random.Random(1101)
    problems = []
    for i in range(60):
        strands = rng.choice((2, 3, 4))
        word = [
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 8))
        ]
        d = closure(word, strands, disk=rng.random() < 0.3)
        plain = bracket(d)
        if plain != bracket_gray(d):
            problems.append("sample %d: routes disagree" % i)
    conclude(11, problems, "plain and incremental routes agree x60")


def test_criterion_12_large_diagram_budget():
    d = closure([1, -2, 3] * 6 + [1, -2], 4)
    assert d.n == 20
    start = time.perf_counter()
    poly = bracket_gray(d)
    elapsed = time.perf_counter() - start
    problems = []
    if elapsed >= 120.0:
        problems.append("run took %.1fs" % elapsed)
    if poly.is_zero():
        problems.append("20-crossing bracket vanished unexpectedly")
    conclude(12, problems, "20 crossings in %.1fs, budget 120s" % elapsed)
