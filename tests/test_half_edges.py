"""The half-edge table against the dart tracing it replaced.

The reference functions below are the diagram layer as it was before it
kept one int table: faces, strand walks and crossing components are
traced through ``(crossing, slot)`` darts with `edge_ends`, sets and
dicts.  Everything now read off `AnnularDiagram.half_edges`
(faces, corners, walks, components, crossing classes, the profile and
the `validate` messages) must equal them, order included.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annulink import diagram
from annulink.analysis import classify_crossings, profile
from annulink.cli import main
from annulink.corpus import ENTRIES, get
from annulink.diagfile import save_diagram
from annulink.diagram import UNBOUNDED, AnnularDiagram, from_braid_closure
from annulink.generate import alternating_word

from test_analysis import random_diagram

KINDS = ("annulus", "disk", "kinks", "loops", "maps")


# -- the reference: dart tracing -----------------------------------------------


def other_end(d, edge, end):
    a, b = d.edge_ends()[edge]
    return b if end == a else a


def ref_trace_faces(d):
    faces, visited = [], set()
    for start_c in d.crossings:
        for start_s in range(4):
            if (start_c, start_s) in visited:
                continue
            face = []
            c, s = start_c, start_s
            while (c, s) not in visited:
                visited.add((c, s))
                face.append((c, s))
                out = (s + 1) % 4
                c, s = other_end(d, d.crossings[c][out], (c, out))
            faces.append(tuple(face))
    return tuple(faces)


def ref_corner_face(d):
    return {corner: i for i, face in enumerate(ref_trace_faces(d)) for corner in face}


def ref_strand_walks(d):
    walks, visited = [], set()
    for start_c in d.crossings:
        for start_s in range(4):
            if (start_c, start_s) in visited:
                continue
            walk = []
            c, s = start_c, start_s
            while (c, s) not in visited:
                visited.add((c, s))
                visited.add((c, (s + 2) % 4))
                walk.append((c, s))
                out = (s + 2) % 4
                c, s = other_end(d, d.crossings[c][out], (c, out))
            walks.append(tuple(walk))
    return tuple(walks)


def ref_components(d):
    """crossing id -> the lowest crossing index of its component, by
    union-find over the edges in `edge_ends` order."""
    ids = list(d.crossings)
    index = {cid: i for i, cid in enumerate(ids)}
    parent = list(range(len(ids)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for ends in d.edge_ends().values():
        a, b = find(index[ends[0][0]]), find(index[ends[1][0]])
        if a != b:
            parent[a] = b
    lowest = {}
    for i in range(len(ids)):
        lowest.setdefault(find(i), i)
    return {cid: lowest[find(index[cid])] for cid in ids}


def ref_external_faces(d):
    if UNBOUNDED in d.external:
        return None
    table = ref_corner_face(d)
    return (table[d.external[0]], table[d.external[1]])


def ref_connected(d):
    if d.n == 0:
        return len(d.free_loops) == 1
    return not d.free_loops and len(set(ref_components(d).values())) == 1


def ref_alternating(d):
    for walk in ref_strand_walks(d):
        kinds = [s % 2 for _, s in walk]
        if any(kinds[i] == kinds[(i + 1) % len(kinds)] for i in range(len(kinds))):
            return False
    return True


def ref_in_disk(d):
    if any(d.edge_parity.values()) or any(d.free_loops):
        return False
    ext = ref_external_faces(d)
    return ext is None or ext[0] == ext[1]


def ref_classify(d):
    table = ref_corner_face(d)
    ext = ref_external_faces(d)
    external = set(ext) if ext is not None else set()
    tags = {}
    for cid in d.crossings:
        corner_faces = [table[(cid, k)] for k in range(4)]
        ext_hits = [f for f in corner_faces if f in external]
        fig3 = len(set(ext_hits)) == 2 or len(ext_hits) >= 2
        internal = {}
        for f in corner_faces:
            if f not in external:
                internal[f] = internal.get(f, 0) + 1
        fig2 = any(c >= 2 for c in internal.values())
        tags[cid] = "fig3_type" if fig3 else "fig2_type" if fig2 else "regular"
    return tags


def ref_reference_violations(d):
    crossings, parity = d.crossings, d.edge_parity
    bad = ["crossing %s has %d slots, expected 4" % (c, len(s)) for c, s in crossings.items() if len(s) != 4]
    bad += ["edge %s has parity %r, expected 0 or 1" % (e, p) for e, p in parity.items() if p not in (0, 1)]
    bad += [
        "free loop %d has parity %r, expected 0 or 1" % (i, p)
        for i, p in enumerate(d.free_loops)
        if p not in (0, 1)
    ]
    ends = d.edge_ends()
    if ends.keys() != parity.keys() or set(map(len, ends.values())) != {2}:
        bad += [
            "crossing %s references undeclared edge %s" % (cid, eid)
            for cid, slots in crossings.items()
            for eid in slots
            if eid not in parity
        ]
        bad += [
            "edge %s has %d incidences, expected 2" % (eid, len(ends.get(eid, ())))
            for eid in parity
            if len(ends.get(eid, ())) != 2
        ]
    for label, ref in zip(("inner", "outer"), d.external):
        if ref == UNBOUNDED:
            if crossings:
                bad.append("%s designator is unbounded but the diagram has crossings" % label)
            continue
        if crossings and isinstance(ref, tuple) and len(ref) == 2:
            cid, corner = ref
            if cid not in crossings:
                bad.append("%s designator names unknown crossing %r" % (label, cid))
            elif corner not in (0, 1, 2, 3):
                bad.append("%s designator corner %r out of range" % (label, corner))
        elif not crossings:
            bad.append("%s designator must be unbounded in a crossingless diagram" % label)
        else:
            bad.append("%s designator %r is malformed" % (label, ref))
    return bad


def ref_validate(d):
    """Each component in crossing order: V - E + F = 2, and then its odd
    faces are {a} ^ {b} for some face a that can hold the inner boundary
    circle and b the outer (a marker's face, or any face of a component
    without that marker)."""
    bad = ref_reference_violations(d)
    if bad:
        return bad
    comp = ref_components(d)
    faces = ref_trace_faces(d)
    ext = ref_external_faces(d) or ()
    ids = list(d.crossings)
    for root in sorted(set(comp.values())):
        mine = [i for i, face in enumerate(faces) if comp[face[0][0]] == root]
        v = list(comp.values()).count(root)
        e = sum(comp[ends[0][0]] == root for ends in d.edge_ends().values())
        if v - e + len(mine) != 2:
            bad.append(
                "component at crossing %s has V-E+F = %d, expected 2 (non-planar gluing)"
                % (ids[root], v - e + len(mine))
            )
            continue
        odd = [i for i in mine if sum(d.edge_parity[d.crossings[c][(s + 1) % 4]] for c, s in faces[i]) % 2]
        inner = [ext[0]] if ext and ext[0] in mine else mine
        outer = [ext[1]] if ext and ext[1] in mine else mine
        if not any(set(odd) == {a} ^ {b} for a in inner for b in outer):
            marks = sorted({f for f in ext if f in mine})
            bad.append(
                "cut parities are odd around faces %r but the boundary circles "
                "sit in faces %r" % (odd, marks)
            )
    return bad


# -- inputs ------------------------------------------------------------------


def marked(d, rng):
    """``d`` with both boundary markers on random corners, so that
    `validate` reaches its map-level checks even on a random map."""
    if not d.n:
        return d
    ids = list(d.crossings)
    ext = tuple((rng.choice(ids), rng.randrange(4)) for _ in range(2))
    return AnnularDiagram(d.crossings, d.edge_parity, d.free_loops, ext)


def broken(d, rng):
    """``d`` with one slot pointing at another declared edge or at an
    undeclared one: its references fail, and no table can be built."""
    if not d.n:
        return AnnularDiagram({}, {"stray": 0}, d.free_loops)
    crossings = {cid: list(slots) for cid, slots in d.crossings.items()}
    slots = crossings[rng.choice(list(crossings))]
    slots[rng.randrange(4)] = rng.choice(sorted(d.edge_parity) + ["zz"])
    return AnnularDiagram(crossings, d.edge_parity, d.free_loops, d.external)


def as_darts(t, cycles):
    """Int cycles of the table ``t`` as tuples of (crossing id, slot) darts."""
    return tuple(tuple((t.order[h >> 2], h & 3) for h in cycle) for cycle in cycles)


def ref_sound(d):
    """Four slots per crossing, and every declared edge met exactly twice."""
    ends = d.edge_ends()
    return (
        all(len(slots) == 4 for slots in d.crossings.values())
        and ends.keys() == d.edge_parity.keys()
        and all(len(e) == 2 for e in ends.values())
    )


def agree(d):
    assert d.validate() == ref_validate(d)
    if not ref_sound(d):
        with pytest.raises(ValueError):
            d.half_edges()
        return
    assert d.trace_faces() == ref_trace_faces(d)
    assert list(d.corner_face().items()) == list(ref_corner_face(d).items())
    assert d.strand_walks() == ref_strand_walks(d)
    t = d.half_edges()
    assert t.eid == [d.crossings[t.order[h >> 2]][h & 3] for h in range(4 * d.n)]
    assert as_darts(t, t.faces) == ref_trace_faces(d)
    assert as_darts(t, t.walks) == ref_strand_walks(d)
    assert dict(zip(t.order, t.comp)) == ref_components(d)
    assert d.external_face_indices() == ref_external_faces(d)
    p = profile(d)
    assert (p.connected, p.alternating, p.in_disk) == (ref_connected(d), ref_alternating(d), ref_in_disk(d))
    assert d.component_count() == len(ref_strand_walks(d)) + len(d.free_loops)
    if p.connected:
        tags = ref_classify(d)
        assert classify_crossings(d) == tags
        assert p.k_fig3 == list(tags.values()).count("fig3_type")
        assert p.k_fig2 == (list(tags.values()).count("fig2_type") if tags else None)
    else:
        with pytest.raises(ValueError):
            classify_crossings(d)
        assert p.k_fig3 is None and p.k_fig2 is None


class TestAgainstDartTracing:
    @given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_random_diagrams(self, kind, seed):
        agree(random_diagram(kind, seed))

    @given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_random_markers(self, kind, seed):
        agree(marked(random_diagram(kind, seed), random.Random(seed)))

    @given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_broken_references(self, kind, seed):
        agree(broken(random_diagram(kind, seed), random.Random(seed)))

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_corpus(self, name):
        agree(get(name).build())

    def test_non_planar_components_in_crossing_order(self):
        # messages come by the lowest crossing of each component: {x0, x2}
        # is named by x0, {x1} by x1
        d = AnnularDiagram(
            {"x0": ("a", "b", "c", "b"), "x1": ("d", "e", "d", "e"), "x2": ("c", "f", "a", "f")},
            {e: 0 for e in "abcdef"},
            (),
            (("x0", 0), ("x0", 0)),
        )
        messages = d.validate()
        assert messages == ref_validate(d)
        assert [m.split()[3] for m in messages] == ["x0", "x1"]

    def test_every_component_is_held_to_the_cut_parity_rule(self):
        # one-crossing curves x1 and x2 side by side, every parity and
        # marker choice: both verdicts occur with the markers on one
        # curve and with one on each
        verdicts = set()
        for par in itertools.product((0, 1), repeat=4):
            for ext in itertools.product(itertools.product(("x1", "x2"), range(4)), repeat=2):
                d = AnnularDiagram(
                    {"x1": ("e0", "e1", "e1", "e0"), "x2": ("e2", "e3", "e3", "e2")},
                    dict(zip(("e0", "e1", "e2", "e3"), par)),
                    (),
                    ext,
                )
                assert d.validate() == ref_validate(d)
                verdicts.add((ext[0][0] == ext[1][0], not d.validate()))
        assert len(verdicts) == 4


class TestDerivedOnce:
    def test_props_builds_the_table_once(self, monkeypatch, tmp_path, capsys):
        calls = []
        build = diagram._build_half_edges
        monkeypatch.setattr(diagram, "_build_half_edges", lambda *args: calls.append(1) or build(*args))
        path = tmp_path / "alt4.diag"
        save_diagram(str(path), from_braid_closure(alternating_word(random.Random(1), 4, 400), 4))
        assert main(["props", str(path)]) == 0
        out = capsys.readouterr().out
        assert "n = 400" in out and "connected = 1" in out
        assert calls == [1]
