"""Reading and writing diagrams as structured text.

The format is line-oriented with bracketed section headers:

    [crossings]
    x1 e0 e1 e1 e0        # crossing id, then the edges at slots 0..3
    [edges]
    e0 1                  # edge id, cut parity bit
    e1 1
    [free_loops]
    1 0                   # parities, any number per line
    [external]
    inner x1:3            # corner designator crossing:corner, or "unbounded"
    outer x1:1
    [meta]
    name one-crossing     # free-form key-value lines

Blank lines and '#' comments are ignored anywhere.  `parse_diagram`
reads the text in one pass, splitting each line once, and stops at the
first bad line in file order (a duplicate crossing or edge id, a repeated
designator, a malformed line), naming its line number.  All mentions of
one edge id share one string object.  It does not run semantic
validation; callers decide whether to `validate()`.

`parse_recipe` accepts the compact builder strings used on the command
line and in the test corpus instead of files:

    braid 4: s1 -s2 s3        closure of a braid word on 4 strands
    braid 3 disk: s1 s2       same, flattened into a disk
    loops: 1 0                crossingless free loops by parity
    pd: 1 4 2 5 / 3 6 4 1 / 5 2 6 3    disk diagram from edge quads in slot order
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .diagram import UNBOUNDED, AnnularDiagram, from_braid_closure, from_disk_pd, from_free_loops

__all__ = [
    "DiagramFormatError",
    "parse_diagram",
    "serialize_diagram",
    "load_diagram",
    "save_diagram",
    "parse_recipe",
    "is_recipe",
]

SECTIONS = ("crossings", "edges", "free_loops", "external", "meta")
BITS = {"0": 0, "1": 1}


class DiagramFormatError(ValueError):
    """Malformed diagram text; `line` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.line = line
        self.message = message


def _designator(token: str, lineno: int):
    if token == UNBOUNDED:
        return UNBOUNDED
    m = re.fullmatch(r"([^\s:]+):([0-3])", token)
    if not m:
        raise DiagramFormatError(
            lineno, "bad corner designator %r (want crossing:corner or 'unbounded')" % token
        )
    return (m.group(1), int(m.group(2)))


def parse_diagram(text: str) -> Tuple[AnnularDiagram, Dict[str, str]]:
    """Parse the section format; returns (diagram, meta)."""
    crossings: Dict[str, Tuple[str, str, str, str]] = {}
    edges: Dict[str, int] = {}
    loops: List[int] = []
    external: Dict[str, object] = {}
    meta: Dict[str, str] = {}
    share = {}.setdefault  # one string object per edge id
    section: Optional[str] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        if parts[0][0] == "[" and parts[-1][-1] == "]":
            name = line.strip()[1:-1].strip()
            if name not in SECTIONS:
                raise DiagramFormatError(
                    lineno, "unknown section %r (want one of %s)" % (name, ", ".join(SECTIONS))
                )
            section = name
        elif section == "crossings":
            if len(parts) != 5:
                raise DiagramFormatError(
                    lineno, "crossing line needs an id and 4 edge ids, got %d tokens" % len(parts)
                )
            cid, a, b, c, e = parts
            if cid in crossings:
                raise DiagramFormatError(lineno, "duplicate crossing id %r" % cid)
            crossings[cid] = (share(a, a), share(b, b), share(c, c), share(e, e))
        elif section == "edges":
            if len(parts) != 2:
                raise DiagramFormatError(lineno, "edge line needs an id and a parity bit")
            eid, bit = parts
            if eid in edges:
                raise DiagramFormatError(lineno, "duplicate edge id %r" % eid)
            if bit not in BITS:
                raise DiagramFormatError(lineno, "edge parity must be 0 or 1, got %r" % bit)
            edges[share(eid, eid)] = BITS[bit]
        elif section is None:
            raise DiagramFormatError(lineno, "content before any [section] header")
        elif section == "free_loops":
            for tok in parts:
                if tok not in BITS:
                    raise DiagramFormatError(lineno, "free loop parity must be 0 or 1, got %r" % tok)
                loops.append(BITS[tok])
        elif section == "external":
            if len(parts) != 2 or parts[0] not in ("inner", "outer"):
                raise DiagramFormatError(lineno, "external line is 'inner <corner>' or 'outer <corner>'")
            if parts[0] in external:
                raise DiagramFormatError(lineno, "duplicate %r designator" % parts[0])
            external[parts[0]] = _designator(parts[1], lineno)
        else:  # meta
            key = parts[0]
            meta[key] = line.strip()[len(key):].strip()
    inner = external.get("inner", UNBOUNDED)
    outer = external.get("outer", UNBOUNDED)
    d = AnnularDiagram(crossings, edges, loops, (inner, outer))
    return d, meta


def serialize_diagram(d: AnnularDiagram, meta: Optional[Dict[str, str]] = None) -> str:
    """Canonical text for a diagram; `parse_diagram` inverts it."""
    out: List[str] = ["[crossings]"]
    for cid, slots in d.crossings.items():
        out.append("%s %s %s %s %s" % (cid, *slots))
    out.append("[edges]")
    for eid, p in d.edge_parity.items():
        out.append("%s %d" % (eid, p))
    if d.free_loops:
        out.append("[free_loops]")
        out.append(" ".join(str(p) for p in d.free_loops))
    out.append("[external]")
    for label, desig in zip(("inner", "outer"), d.external):
        if desig == UNBOUNDED:
            out.append("%s %s" % (label, UNBOUNDED))
        else:
            out.append("%s %s:%d" % (label, desig[0], desig[1]))
    if meta:
        out.append("[meta]")
        for key, value in meta.items():
            out.append("%s %s" % (key, value))
    return "\n".join(out) + "\n"


def load_diagram(path: str) -> Tuple[AnnularDiagram, Dict[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_diagram(fh.read())


def save_diagram(path: str, d: AnnularDiagram, meta: Optional[Dict[str, str]] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_diagram(d, meta))


# -- inline builder recipes ------------------------------------------------


RECIPE_HEADS = ("braid", "loops", "pd")


def is_recipe(text: str) -> bool:
    head = text.split(":", 1)[0].split()
    return ":" in text and bool(head) and head[0] in RECIPE_HEADS


def parse_recipe(text: str) -> AnnularDiagram:
    """Build a diagram from a one-line recipe; see the module docstring."""
    if ":" not in text:
        raise DiagramFormatError(1, "recipe needs a ':' after its head")
    head, _, body = text.partition(":")
    head_parts = head.split()
    body = body.strip()
    if not head_parts:
        raise DiagramFormatError(1, "empty recipe head")
    kind = head_parts[0]
    if kind == "braid":
        disk = False
        rest = head_parts[1:]
        if rest and rest[-1] == "disk":
            disk = True
            rest = rest[:-1]
        if len(rest) != 1 or not rest[0].isdigit():
            raise DiagramFormatError(1, "braid recipe head is 'braid <strands>[ disk]'")
        strands = int(rest[0])
        word: List[int] = []
        for tok in body.split():
            m = re.fullmatch(r"(-?)s?(\d+)", tok)
            if not m or int(m.group(2)) == 0:
                raise DiagramFormatError(1, "bad braid letter %r (want s1, -s2, ...)" % tok)
            word.append(int(m.group(2)) * (-1 if m.group(1) else 1))
        return from_braid_closure(word, strands, disk=disk)
    if kind == "loops":
        if head_parts[1:]:
            raise DiagramFormatError(1, "loops recipe head takes no arguments")
        parities = []
        for tok in body.split():
            if tok not in ("0", "1"):
                raise DiagramFormatError(1, "loop parity must be 0 or 1, got %r" % tok)
            parities.append(int(tok))
        return from_free_loops(parities)
    if kind == "pd":
        if head_parts[1:]:
            raise DiagramFormatError(1, "pd recipe head takes no arguments")
        quads = []
        for chunk in body.split("/"):
            parts = chunk.split()
            if len(parts) != 4 or not all(p.isdigit() for p in parts):
                raise DiagramFormatError(
                    1, "each pd quad needs 4 integer edge labels, got %r" % chunk.strip()
                )
            quads.append(tuple(int(p) for p in parts))
        return from_disk_pd(quads)
    raise DiagramFormatError(1, "unknown recipe head %r" % kind)
