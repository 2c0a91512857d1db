"""`parse_diagram` against the line-at-a-time parser it replaced.

`reference_parse` below is that earlier parser, kept verbatim as the
oracle: it strips every line and splits it twice.  For every mutated
`serialize_diagram` text the production parser must return an equal
``(diagram, meta)`` or raise `DiagramFormatError` with the same line
number and message.  The mutations replace, insert, delete and copy
whole lines, or swap one token of a line, using section headers,
comments, bracket fragments such as ``[x`` and ``a]``, designators and
bad bits, joined by assorted whitespace.
"""

import re
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from annulink.diagfile import DiagramFormatError, parse_diagram, serialize_diagram
from annulink.diagram import UNBOUNDED, AnnularDiagram, from_braid_closure, from_free_loops

SECTIONS = ("crossings", "edges", "free_loops", "external", "meta")


def _reference_designator(token: str, lineno: int):
    if token == UNBOUNDED:
        return UNBOUNDED
    m = re.fullmatch(r"([^\s:]+):([0-3])", token)
    if not m:
        raise DiagramFormatError(
            lineno, "bad corner designator %r (want crossing:corner or 'unbounded')" % token
        )
    return (m.group(1), int(m.group(2)))


def reference_parse(text: str) -> Tuple[AnnularDiagram, Dict[str, str]]:
    crossings: Dict[str, Tuple[str, str, str, str]] = {}
    edges: Dict[str, int] = {}
    loops: List[int] = []
    external: Dict[str, object] = {}
    meta: Dict[str, str] = {}
    section: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise DiagramFormatError(
                    lineno, "unknown section %r (want one of %s)" % (name, ", ".join(SECTIONS))
                )
            section = name
            continue
        if section is None:
            raise DiagramFormatError(lineno, "content before any [section] header")
        parts = line.split()
        if section == "crossings":
            if len(parts) != 5:
                raise DiagramFormatError(
                    lineno, "crossing line needs an id and 4 edge ids, got %d tokens" % len(parts)
                )
            cid = parts[0]
            if cid in crossings:
                raise DiagramFormatError(lineno, "duplicate crossing id %r" % cid)
            crossings[cid] = (parts[1], parts[2], parts[3], parts[4])
        elif section == "edges":
            if len(parts) != 2:
                raise DiagramFormatError(lineno, "edge line needs an id and a parity bit")
            eid = parts[0]
            if eid in edges:
                raise DiagramFormatError(lineno, "duplicate edge id %r" % eid)
            if parts[1] not in ("0", "1"):
                raise DiagramFormatError(lineno, "edge parity must be 0 or 1, got %r" % parts[1])
            edges[eid] = int(parts[1])
        elif section == "free_loops":
            for tok in parts:
                if tok not in ("0", "1"):
                    raise DiagramFormatError(lineno, "free loop parity must be 0 or 1, got %r" % tok)
                loops.append(int(tok))
        elif section == "external":
            if len(parts) != 2 or parts[0] not in ("inner", "outer"):
                raise DiagramFormatError(lineno, "external line is 'inner <corner>' or 'outer <corner>'")
            if parts[0] in external:
                raise DiagramFormatError(lineno, "duplicate %r designator" % parts[0])
            external[parts[0]] = _reference_designator(parts[1], lineno)
        else:  # meta
            key = parts[0]
            meta[key] = line[len(key):].strip()
    inner = external.get("inner", UNBOUNDED)
    outer = external.get("outer", UNBOUNDED)
    d = AnnularDiagram(crossings, edges, loops, (inner, outer))
    return d, meta


def outcome(parse, text):
    try:
        d, meta = parse(text)
    except DiagramFormatError as exc:
        return ("error", exc.line, exc.message)
    return ("ok", d.crossings, d.edge_parity, d.free_loops, d.external, meta)


TOKENS = (
    ["[crossings]", "[edges]", "[free_loops]", "[external]", "[meta]", "[ edges ]", "[nope]"]
    + ["[]", "[", "]", "[x", "a]", "[edges", "meta]", "#", "# note", "x#y", "[e#]"]
    + ["x1", "x2", "e0", "e1", "e2", "e9", "0", "1", "2", "01", "-1"]
    + ["inner", "outer", "unbounded", "x1:0", "x1:3", "x1:4", "x2:1", "x1:", ":1"]
    + ["name", "key", "é", " ", "\x1c"]
)
SPACES = st.sampled_from([" ", "  ", "\t", " \t ", "　", "\x0b", "\x1f"])


@st.composite
def junk_lines(draw):
    tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=6))
    out = draw(st.sampled_from(["", " ", "\t"]))
    for tok in tokens:
        out += tok + draw(SPACES)
    if draw(st.booleans()):
        out = out.rstrip()
    return out


@st.composite
def mutated_texts(draw):
    """A serialized diagram with some lines replaced, inserted, deleted or
    copied, or one token of a line replaced."""
    strands = draw(st.integers(2, 4))
    word = draw(st.lists(st.integers(1, strands - 1).flatmap(lambda g: st.sampled_from((g, -g))), max_size=6))
    if draw(st.booleans()):
        d = from_braid_closure(word, strands, disk=draw(st.booleans()))
    else:
        d = from_free_loops(draw(st.lists(st.integers(0, 1), max_size=3)))
    meta = draw(st.sampled_from([None, {"name": "a  b"}, {"k": "", "family": "alt # x"}]))
    lines = serialize_diagram(d, meta).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("replace", "insert", "delete", "copy", "retoken")))
        at = draw(st.integers(0, len(lines)))
        if op == "insert":
            lines.insert(at, draw(junk_lines()))
        elif at < len(lines):
            if op == "delete":
                del lines[at]
            elif op == "replace":
                lines[at] = draw(junk_lines())
            elif op == "copy":
                lines.insert(draw(st.integers(0, len(lines))), lines[at])
            elif lines[at].split():
                parts = lines[at].split()
                parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(TOKENS))
                lines[at] = draw(st.sampled_from(["", " ", "\t"])) + draw(SPACES).join(parts)
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=600, deadline=None)
@given(mutated_texts())
def test_parse_matches_the_reference(text):
    assert outcome(parse_diagram, text) == outcome(reference_parse, text)


def test_fixed_texts_match_the_reference():
    """Outcomes the mutants reach rarely: spaced headers, comments after
    content, bracketed meta values, bad designators, duplicates."""
    texts = [
        serialize_diagram(from_braid_closure([1, -2, 3], 4), {"name": "z  z"}),
        "[ crossings ]\nx1 e0 e1 e1 e0 # c\n[edges]\ne0\t1\ne1 1\n[external]\ninner x1:3\nouter x1:1\n",
        "[x a]\n",
        "x1 e0\n",
        "[edges]\ne0 1 # x\ne0 1\n",
        "[meta]\nname [x a]\n  key  a b \t# c\n",
        "[free_loops]\n0 1 2\n",
        "[external]\ninner x1:4\n",
    ]
    for text in texts:
        assert outcome(parse_diagram, text) == outcome(reference_parse, text)


def test_each_edge_id_is_one_string_object():
    d = from_braid_closure([1, -2, 3, 1, 2], 4)
    back, _ = parse_diagram(serialize_diagram(d))
    key = {eid: eid for eid in back.edge_parity}
    assert all(eid is key[eid] for slots in back.crossings.values() for eid in slots)
