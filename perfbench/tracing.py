"""Spans and counts around annulink's public functions, for the traced pass.

`instrument` wraps every public function of the annulink modules at
each binding site (a module that did ``from .skein import bracket``
holds its own reference, so that name is rebound too) and a few methods
of the two public classes.  Wrapping happens only inside the ``with``
block and is undone on exit; no file under ``src/`` is touched.

Each span is ``[name, start, end, parent index, op id]``.  A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans of an op add up to the op's root span.
"""

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

MODULES = ("diagfile", "diagram", "skein", "laurent", "analysis", "theorems", "corpus", "generate")

# Derived tables cached on the diagram: method name -> cache key.  A span
# is recorded only on the call that derives the table.
DERIVE = {"edge_ends": "ends", "trace_faces": "faces", "corner_face": "corner_face", "strand_walks": "walks"}

BUILD = {
    "diagram.AnnularDiagram",
    "diagram.from_braid_closure",
    "diagram.from_disk_pd",
    "diagram.from_free_loops",
    "diagram.insert_r1",
    "diagram.insert_r2",
    "diagram.mirror_diagram",
}


class Tracer:
    """In-memory span log plus exact counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.evals: set = set()
        self.op: Optional[str] = None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()


def _diagram_key(d) -> tuple:
    return (tuple(d.crossings.items()), tuple(d.edge_parity.items()), d.free_loops, d.external)


def _spanned(tracer: Tracer, name: str, fn: Callable, before: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _hooks(tracer: Tracer) -> Dict[str, Callable]:
    counts = tracer.counts

    def evaluation(route: str) -> Callable:
        def hook(d, *args, **kwargs):
            counts["skein.eval_calls"] += 1
            counts["skein.states.%s" % route] += 1 << d.n
            tracer.evals.add((tracer.op, route, _diagram_key(d)))

        return hook

    def parsed(text, *args, **kwargs):
        counts["diagfile.bytes_in"] += len(text.encode("utf-8"))

    def resolved(*args, **kwargs):
        counts["skein.resolve_calls"] += 1

    return {
        "skein.bracket": evaluation("plain"),
        "skein.bracket_gray": evaluation("gray"),
        "skein.resolve": resolved,
        "diagfile.parse_diagram": parsed,
        "diagfile.parse_recipe": parsed,
    }


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public API of every annulink module for the ``with`` body."""
    mods = {name: importlib.import_module("annulink." + name) for name in MODULES}
    mods["cli"] = importlib.import_module("annulink.cli")
    bindings = [m for name, m in sys.modules.items() if name == "annulink" or name.startswith("annulink.")]
    hooks = _hooks(tracer)
    undo: List[tuple] = []

    def setattr_undo(owner, attr, value) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for short, mod in mods.items():
            names = ["main"] if short == "cli" else mod.__all__
            for attr in names:
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type) or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (short, attr)
                wrapped = _spanned(tracer, name, fn, hooks.get(name))
                for site in bindings:
                    for bound, value in list(vars(site).items()):
                        if value is fn:
                            setattr_undo(site, bound, wrapped)

        analysis = mods["analysis"]

        def counted_resolve(*args, _inner=analysis.resolve, **kwargs):
            tracer.counts["analysis.resolve_calls"] += 1
            return _inner(*args, **kwargs)

        setattr_undo(analysis, "resolve", counted_resolve)

        diagram_cls = mods["diagram"].AnnularDiagram
        setattr_undo(diagram_cls, "__init__", _spanned(tracer, "diagram.AnnularDiagram", diagram_cls.__init__))
        for method, key in DERIVE.items():
            setattr_undo(diagram_cls, method, _derive(tracer, "diagram." + method, getattr(diagram_cls, method), key))

        poly_cls = mods["laurent"].LaurentPoly
        parse = poly_cls.__dict__["parse"].__func__
        setattr_undo(poly_cls, "parse", classmethod(_spanned(tracer, "laurent.parse", parse)))
        setattr_undo(poly_cls, "__str__", _spanned(tracer, "laurent.__str__", poly_cls.__str__))
        setattr_undo(poly_cls, "breadth", _spanned(tracer, "laurent.breadth", poly_cls.breadth))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def _derive(tracer: Tracer, name: str, method: Callable, key: str) -> Callable:
    traced = _spanned(tracer, name, method)

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        if key in self._cache:
            return method(self, *args, **kwargs)
        return traced(self, *args, **kwargs)

    return wrapper


# -- per-layer metrics --------------------------------------------------------


class SpanTable:
    """Durations, self times and ancestry of a finished span log."""

    def __init__(self, spans: List[list]) -> None:
        self.spans = spans
        self.dur = [end - start for _, start, end, _, _ in spans]
        self.self_time = list(self.dur)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                self.self_time[span[3]] -= self.dur[i]

    def inclusive(self, names) -> float:
        """Total duration of spans named in ``names``, not counting a span
        nested inside another span of the same set twice."""
        names = set(names)
        total = 0.0
        for i, span in enumerate(self.spans):
            if span[0] not in names:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in names:
                parent = self.spans[parent][3]
            if parent < 0:
                total += self.dur[i]
        return total

    def self_by_module(self) -> Counter:
        out: Counter = Counter()
        for i, span in enumerate(self.spans):
            out[span[0].split(".", 1)[0]] += self.self_time[i]
        return out


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md)."""
    table = SpanTable(tracer.spans)
    counts = tracer.counts
    selfs = table.self_by_module()
    plain_s = table.inclusive({"skein.bracket"})
    gray_s = table.inclusive({"skein.bracket_gray"})
    plain_states = counts["skein.states.plain"]
    gray_states = counts["skein.states.gray"]
    eval_calls = counts["skein.eval_calls"]
    derive = {"diagram." + m for m in DERIVE}
    return {
        "diagfile.parse_s": table.inclusive({"diagfile.parse_diagram", "diagfile.parse_recipe"}),
        "diagfile.bytes_in": counts["diagfile.bytes_in"],
        "diagfile.self_s": selfs["diagfile"],
        "diagram.build_s": table.inclusive(BUILD),
        "diagram.derive_s": table.inclusive(derive),
        "diagram.self_s": selfs["diagram"],
        "skein.bracket_s": plain_s,
        "skein.bracket_gray_s": gray_s,
        "skein.jones_s": table.inclusive({"skein.jones"}),
        "skein.self_s": selfs["skein"],
        "skein.resolve_calls": counts["skein.resolve_calls"],
        "skein.states": plain_states + gray_states,
        "skein.us_per_state.plain": 1e6 * plain_s / plain_states if plain_states else 0.0,
        "skein.us_per_state.gray": 1e6 * gray_s / gray_states if gray_states else 0.0,
        "skein.eval_calls": eval_calls,
        "skein.eval_unique": len(tracer.evals),
        "skein.eval_useful_ratio": len(tracer.evals) / eval_calls if eval_calls else 0.0,
        "laurent.s": table.inclusive({"laurent.parse", "laurent.__str__", "laurent.breadth"}),
        "laurent.self_s": selfs["laurent"],
        "analysis.profile_s": table.inclusive({"analysis.profile"}),
        "analysis.is_adequate_s": table.inclusive({"analysis.is_adequate"}),
        "analysis.resolve_calls": counts["analysis.resolve_calls"],
        "analysis.self_s": selfs["analysis"],
        "theorems.verify_all_s": table.inclusive({"theorems.verify_all"}),
        "theorems.self_s": selfs["theorems"],
        "corpus.verify_entry_s": table.inclusive({"corpus.verify_entry"}),
        "corpus.verify_pairs_s": table.inclusive({"corpus.verify_pairs"}),
        "corpus.self_s": selfs["corpus"],
        "cli.main_s": table.inclusive({"cli.main"}),
        "cli.self_s": selfs["cli"],
        "cli.stdout_bytes": counts["cli.stdout_bytes"],
        "bench.self_s": selfs["bench"],
        "trace.spans": len(tracer.spans),
    }


def exact_counts(tracer: Tracer) -> Dict[str, int]:
    """Everything in a traced pass that must repeat exactly between passes."""
    out = dict(tracer.counts)
    out["skein.eval_unique"] = len(tracer.evals)
    out.update(("spans:" + k, v) for k, v in Counter(s[0] for s in tracer.spans).items())
    return out
