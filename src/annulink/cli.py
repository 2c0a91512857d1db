"""Command line front end.

Five subcommands over one shared input convention: a diagram argument
is a file path, a corpus entry name, or an inline builder recipe such
as "braid 2: s1".  The verify subcommand also accepts the literal word
"corpus" to recheck every bundled entry.

Exit codes are frozen for scripting:

    0  success, all checks passed
    1  a check with met hypotheses failed
    2  unreadable or unparsable input
    3  resource cap exceeded (crossing limit)

Output is deterministic: identical inputs, seeds and flags produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import List, Optional, Sequence, Tuple

from . import corpus as corpus_mod
from .analysis import profile
from .diagfile import (
    DiagramFormatError,
    is_recipe,
    load_diagram,
    parse_recipe,
    save_diagram,
    serialize_diagram,
)
from .diagram import AnnularDiagram
from .generate import FAMILIES, generate_family
from .skein import (
    MAX_CROSSINGS,
    BracketSizeError,
    bracket_gray,
    jones,
    resolve,
    writhe,
)
from .theorems import (
    FAIL,
    SKIP,
    CheckRecord,
    LinkAssertions,
    VerificationReport,
    verify_all,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2
EXIT_CAP = 3

ASSUMPTION_NAMES = (
    "non_h_split",
    "not_in_3ball",
    "no_double_sphere_intersection",
)


def _emit(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def _format_error(exc: "DiagramFormatError") -> str:
    return str(exc) if exc.line else exc.message


def _fail_input(message: str) -> int:
    sys.stderr.write(message + "\n")
    return EXIT_INPUT


def _load_target(arg: str) -> Tuple[str, AnnularDiagram]:
    """Resolve a diagram argument to (display name, diagram).

    Every argument that gives no diagram raises DiagramFormatError: a
    path that cannot be read or is not UTF-8 text, and a recipe or file
    that a diagram builder rejects, as well as malformed text."""
    try:
        if os.path.exists(arg):
            d, _meta = load_diagram(arg)
            return os.path.basename(arg), d
        if arg in corpus_mod.ENTRIES:
            return arg, corpus_mod.get(arg).build()
        if is_recipe(arg):
            return "recipe", parse_recipe(arg)
    except DiagramFormatError:
        raise
    except OSError as exc:
        message = "cannot read %r: %s" % (arg, exc.strerror or exc)
        raise DiagramFormatError(0, message) from exc
    except UnicodeDecodeError as exc:
        message = "%r is not UTF-8 text: %s" % (arg, exc.reason)
        raise DiagramFormatError(0, message) from exc
    except ValueError as exc:  # a builder rejected the diagram
        raise DiagramFormatError(0, str(exc)) from exc
    raise DiagramFormatError(
        0,
        "%r is not a file, corpus entry or recipe (corpus entries: %s)"
        % (arg, ", ".join(corpus_mod.names())),
    )


def _parse_orientation(text: Optional[str]) -> Optional[List[int]]:
    if text is None:
        return None
    try:
        dirs = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DiagramFormatError(0, "orientation wants comma-separated 1/-1 entries")
    return dirs


# -- subcommands -------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        name, d = _load_target(args.diagram)
    except DiagramFormatError as exc:
        return _fail_input(_format_error(exc))
    violations = d.validate()
    if not violations:
        if args.format == "structured":
            _emit("target=%s valid=1" % name)
        else:
            _emit("OK")
        return EXIT_OK
    if args.format == "structured":
        _emit("target=%s valid=0 violations=%d" % (name, len(violations)))
        for v in violations:
            _emit("violation=%s" % v)
    else:
        for v in violations:
            _emit("violation: %s" % v)
    return EXIT_CHECK


def cmd_bracket(args: argparse.Namespace) -> int:
    try:
        name, d = _load_target(args.diagram)
        orientation = _parse_orientation(args.orientation)
    except DiagramFormatError as exc:
        return _fail_input(_format_error(exc))
    try:
        poly = bracket_gray(d)
        rows: List[Tuple[str, str]] = []
        if args.mirror:
            poly = poly.mirror()
        rows.append(("bracket", str(poly)))
        rows.append(("breadth", str(poly.breadth())))
        if args.jones:
            j = jones(d, orientation)
            w = writhe(d, orientation)
            if args.mirror:
                j = j.mirror()
                w = -w
            rows.append(("writhe", str(w)))
            rows.append(("jones", str(j)))
    except BracketSizeError as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_CAP
    except ValueError as exc:
        return _fail_input(str(exc))
    if args.format == "structured":
        _emit("target=%s " % name + " ".join("%s=%s" % kv for kv in rows))
    else:
        for key, value in rows:
            _emit("%s = %s" % (key, value))
    return EXIT_OK


def cmd_props(args: argparse.Namespace) -> int:
    try:
        name, d = _load_target(args.diagram)
    except DiagramFormatError as exc:
        return _fail_input(_format_error(exc))
    record = profile(d).as_record()
    record["components"] = d.component_count()
    items = list(record.items())
    if args.format == "structured":
        _emit(
            "target=%s " % name
            + " ".join("%s=%s" % (k, _fmt_value(v)) for k, v in items)
        )
    else:
        for k, v in items:
            _emit("%s = %s" % (k, _fmt_value(v)))
    return EXIT_OK


def _fmt_value(v: object) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v)


def _assumptions(args: argparse.Namespace) -> LinkAssertions:
    chosen = set()
    for tok in (args.assume or "").split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok not in ASSUMPTION_NAMES:
            raise DiagramFormatError(
                0, "unknown assumption %r (want %s)" % (tok, ", ".join(ASSUMPTION_NAMES))
            )
        chosen.add(tok)
    return LinkAssertions(**{name: name in chosen for name in ASSUMPTION_NAMES})


def _dump_diagnostic(name: str, d: AnnularDiagram, failures: Sequence[CheckRecord]) -> None:
    _emit("diagnostic: %s" % name)
    for line in serialize_diagram(d).rstrip().splitlines():
        _emit("  | " + line)
    if 0 < d.n <= 8:
        _emit("  state table (signs in crossing order, exponent, trivial, essential):")
        for signs in itertools.product((1, -1), repeat=d.n):
            trivial, essential = resolve(d, signs)
            _emit(
                "    %s  exp=%+d  trivial=%d essential=%d"
                % ("".join("+" if s > 0 else "-" for s in signs),
                   sum(signs), trivial, essential)
            )
    for rec in failures:
        _emit("  failed %s: left=%s right=%s" % (rec.check, rec.left, rec.right))


def _print_report(report, fmt: str) -> None:
    if fmt == "structured":
        for rec in report.records:
            line = "entry=%s check=%s verdict=%s" % (report.name, rec.check, rec.verdict)
            if rec.verdict != SKIP:
                line += " left=%s right=%s" % (_fmt_value(rec.left), _fmt_value(rec.right))
            _emit(line)
    else:
        for line in report.lines():
            _emit(line)


def _verify_target(
    target: str, flags: LinkAssertions
) -> Tuple[VerificationReport, AnnularDiagram]:
    """Check one corpus entry (recorded values first) or one loaded
    diagram; return the report together with the diagram it checked."""
    if target in corpus_mod.ENTRIES:
        entry = corpus_mod.get(target)
        d = entry.build()
        return corpus_mod.verify_entry(entry, d), d
    name, d = _load_target(target)
    return verify_all(d, flags, name=name), d


def cmd_verify(args: argparse.Namespace) -> int:
    whole_corpus = args.target == "corpus"
    try:
        flags = _assumptions(args)
        checked = [
            _verify_target(t, flags)
            for t in (corpus_mod.names() if whole_corpus else [args.target])
        ]
    except DiagramFormatError as exc:
        return _fail_input(_format_error(exc))
    pair_records = corpus_mod.verify_pairs() if whole_corpus else []

    for report, _ in checked:
        _print_report(report, args.format)
    for rec in pair_records:
        if args.format == "structured":
            _emit(
                "entry=pairs check=%s verdict=%s left=%s right=%s"
                % (rec.check, rec.verdict, rec.left, rec.right)
            )
        else:
            _emit(rec.line())
    failed = [(report, d) for report, d in checked if not report.ok()]
    for report, d in failed:
        _dump_diagnostic(report.name, d, report.failures())
    bad = bool(failed) or any(rec.verdict == FAIL for rec in pair_records)
    if whole_corpus:
        _emit(
            "entries=%d pairs=%d status=%s"
            % (len(checked), len(pair_records), "failed" if bad else "ok")
        )
    return EXIT_CHECK if bad else EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        diagrams = generate_family(args.family, args.size, args.seed)
    except ValueError as exc:
        return _fail_input(str(exc))
    os.makedirs(args.out, exist_ok=True)
    for k, d in enumerate(diagrams):
        meta = {
            "family": args.family,
            "seed": str(args.seed),
            "index": str(k),
        }
        path = os.path.join(
            args.out, "%s-seed%d-%02d.diag" % (args.family, args.seed, k)
        )
        save_diagram(path, d, meta)
        if args.format == "structured":
            _emit("written=%s crossings=%d" % (path, d.n))
        else:
            _emit("wrote %s (%d crossings)" % (path, d.n))
    return EXIT_OK


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="annulink",
        description="Brackets, predicates and breadth checks for annular link diagrams.",
    )
    top.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report style (default text)",
    )
    top.add_argument("--seed", type=int, default=0, help="seed for generated families")
    top.add_argument(
        "--mirror",
        action="store_true",
        help="report values for the mirror diagram (swaps A and A^-1)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check diagram well-formedness")
    p.add_argument("diagram", help="file, corpus entry or recipe")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bracket", help="compute the bracket (cap %d crossings)" % MAX_CROSSINGS)
    p.add_argument("diagram", help="file, corpus entry or recipe")
    p.add_argument("--jones", action="store_true", help="also print the rescaled invariant")
    p.add_argument(
        "--orientation",
        default=None,
        help="comma-separated 1/-1 per component, walks first then loops",
    )
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("props", help="print the full diagram profile")
    p.add_argument("diagram", help="file, corpus entry or recipe")
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("verify", help="run every applicable check")
    p.add_argument("target", help="'corpus', a corpus entry, a file or a recipe")
    p.add_argument(
        "--assume",
        default="",
        help="comma-separated link-level assumptions: %s" % ", ".join(ASSUMPTION_NAMES),
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write diagram files for one family")
    p.add_argument("family", help="one of: %s" % ", ".join(FAMILIES))
    p.add_argument("size", type=int, help="family size parameter")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.set_defaults(func=cmd_generate)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
