"""Command line front end.

Five subcommands over one shared input convention: a diagram argument
is an existing file, else a corpus entry name, else an inline builder
recipe such as "braid 2: s1".  The verify subcommand also accepts the
literal word "corpus" to recheck every bundled entry.

Exit codes are frozen for scripting:

    0  success, all checks passed
    1  a check with met hypotheses failed
    2  unreadable or unparsable input, an unwritable output path,
       --mirror outside bracket, --seed outside generate, or
       --orientation without --jones
    3  resource cap exceeded (crossing limit, or a coefficient too long to print)

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
from .laurent import CoefficientSizeError
from .skein import (
    MAX_CROSSINGS,
    BracketSizeError,
    bracket_simplified,
    jones,
    resolve,
    writhe,
)
from .theorems import (
    FAIL,
    SKIP,
    CheckRecord,
    LinkAssertions,
    verify_all,
)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2
EXIT_CAP = 3

ASSUMPTION_NAMES = LinkAssertions._fields


def _emit(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def _fail(code: int, message: str) -> int:
    sys.stderr.write(message + "\n")
    return code


def _fmt_value(v: object) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v)


def _emit_rows(name: str, rows: Sequence[Tuple[str, str]], fmt: str) -> None:
    """Print key/value rows: one ``k = v`` line each, or a single
    ``target=<name> k=v ...`` line when structured."""
    if fmt == "structured":
        _emit(" ".join(["target=%s" % name] + ["%s=%s" % kv for kv in rows]))
    else:
        for kv in rows:
            _emit("%s = %s" % kv)


def _emit_records(
    entry: str, records: Sequence[CheckRecord], text: Sequence[str], fmt: str
) -> None:
    """Print check records: their ``text`` lines, or one
    ``entry=<entry> check=... verdict=...`` line each when structured."""
    if fmt != "structured":
        for line in text:
            _emit(line)
        return
    for rec in records:
        line = "entry=%s check=%s verdict=%s" % (entry, rec.check, rec.verdict)
        if rec.verdict != SKIP:
            line += " left=%s right=%s" % (_fmt_value(rec.left), _fmt_value(rec.right))
        _emit(line)


def _load_target(
    arg: str, checked: bool = True
) -> Tuple[str, AnnularDiagram, Optional[corpus_mod.CorpusEntry]]:
    """Resolve a diagram argument to (display name, diagram, corpus
    entry or None): an existing file first, then a corpus entry name,
    then a recipe.

    Every argument that gives no diagram raises DiagramFormatError: a
    path that cannot be read or is not UTF-8 text, and a recipe or file
    that a diagram builder rejects, as well as malformed text.  Unless
    ``checked`` is false, so does a diagram from any source that fails
    `validate` (broken edge or marker references, a non-planar gluing,
    or odd cut parities around a face; O(n) from the diagram's
    half-edge table): a pd recipe can name any gluing."""
    try:
        entry = None
        if os.path.exists(arg):
            d, _meta = load_diagram(arg)
            name = os.path.basename(arg)
        elif arg in corpus_mod.ENTRIES:
            entry = corpus_mod.get(arg)
            name, d = arg, entry.build()
        elif is_recipe(arg):
            name, d = "recipe", parse_recipe(arg)
        else:
            raise DiagramFormatError(
                0,
                "%r is not a file, corpus entry or recipe (corpus entries: %s)"
                % (arg, ", ".join(corpus_mod.names())),
            )
    except DiagramFormatError:
        raise
    except OSError as exc:
        message = "cannot read %r: %s" % (arg, exc.strerror or exc)
        raise DiagramFormatError(0, message) from exc
    except UnicodeDecodeError as exc:
        message = "%r is not UTF-8 text: %s" % (arg, exc.reason)
        raise DiagramFormatError(0, message) from exc
    except (ValueError, OverflowError) as exc:  # a builder rejected the diagram
        raise DiagramFormatError(0, str(exc)) from exc
    bad = d.validate() if checked else []
    if bad:
        more = " (%d violations; validate lists them)" % len(bad) if len(bad) > 1 else ""
        raise DiagramFormatError(0, "%s: %s%s" % (name, bad[0], more))
    return name, d, entry


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
    name, d, _ = _load_target(args.diagram, checked=False)
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
    if args.orientation is not None and not args.jones:  # only the jones row reads it
        raise DiagramFormatError(0, "--orientation applies to bracket --jones only")
    name, d, _ = _load_target(args.diagram)
    orientation = _parse_orientation(args.orientation)
    if args.jones:  # an orientation that does not fit exits 2 before any state sum
        try:
            w = writhe(d, orientation)
        except ValueError as exc:
            raise DiagramFormatError(0, str(exc)) from exc
    try:
        poly = bracket_simplified(d)
    except BracketSizeError as exc:  # exit 3 here only: verify lets it raise
        return _fail(EXIT_CAP, str(exc))
    if args.mirror:
        poly = poly.mirror()
    rows = [("bracket", str(poly)), ("breadth", str(poly.breadth()))]
    if args.jones:
        j = jones(d, orientation)
        if args.mirror:
            j, w = j.mirror(), -w
        rows += [("writhe", str(w)), ("jones", str(j))]
    _emit_rows(name, rows, args.format)
    return EXIT_OK


def cmd_props(args: argparse.Namespace) -> int:
    name, d, _ = _load_target(args.diagram)
    record = profile(d).as_record()
    record["components"] = d.component_count()
    _emit_rows(name, [(k, _fmt_value(v)) for k, v in record.items()], args.format)
    return EXIT_OK


def _assumptions(args: argparse.Namespace) -> LinkAssertions:
    chosen = [tok.strip() for tok in args.assume.split(",") if tok.strip()]
    for tok in chosen:
        if tok not in ASSUMPTION_NAMES:
            raise DiagramFormatError(
                0, "unknown assumption %r (want %s)" % (tok, ", ".join(ASSUMPTION_NAMES))
            )
    return LinkAssertions(**dict.fromkeys(chosen, True))


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


def cmd_verify(args: argparse.Namespace) -> int:
    whole_corpus = args.target == "corpus"
    flags = _assumptions(args)
    if whole_corpus:  # the bundled entries, whatever files share their names
        entries = [corpus_mod.get(name) for name in corpus_mod.names()]
        targets = [(entry.name, entry.build(), entry) for entry in entries]
    else:
        targets = [_load_target(args.target)]
    checked = [
        (corpus_mod.verify_entry(entry, d, flags) if entry else verify_all(d, flags, name=name), d)
        for name, d, entry in targets
    ]
    pair_records = (
        corpus_mod.verify_pairs({report.name: d for report, d in checked}) if whole_corpus else []
    )
    for report, _ in checked:
        _emit_records(report.name, report.records, report.lines(), args.format)
    _emit_records("pairs", pair_records, [rec.line() for rec in pair_records], args.format)
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
    seed = 0 if args.seed is None else args.seed
    try:
        diagrams = generate_family(args.family, args.size, seed)
    except (ValueError, OverflowError) as exc:
        raise DiagramFormatError(0, str(exc)) from exc
    written = []  # reported once every file is written
    try:
        os.makedirs(args.out, exist_ok=True)
        for k, d in enumerate(diagrams):
            meta = {"family": args.family, "seed": str(seed), "index": str(k)}
            path = os.path.join(args.out, "%s-seed%d-%02d.diag" % (args.family, seed, k))
            save_diagram(path, d, meta)
            written.append((path, d.n))
    except OSError as exc:
        message = "cannot write %s: %s" % (exc.filename or args.out, exc.strerror or exc)
        raise DiagramFormatError(0, message) from exc
    for path, n in written:
        if args.format == "structured":
            _emit("written=%s crossings=%d" % (path, n))
        else:
            _emit("wrote %s (%d crossings)" % (path, n))
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
    top.add_argument("--seed", type=int, help="generate only: seed for the family (default 0)")
    top.add_argument(
        "--mirror",
        action="store_true",
        default=None,
        help="bracket only: report values for the mirror diagram (swaps A and A^-1)",
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
        help="with --jones: comma-separated 1/-1 per component, walks first then loops",
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


_parser: Optional[argparse.ArgumentParser] = None


def _run(args: argparse.Namespace) -> int:
    """Run one parsed command.  Every input error exits 2 here and a
    coefficient too long to print exits 3, each with one line on stderr;
    only `bracket` also turns the crossing cap into exit 3.  A top-level
    option that belongs to one subcommand is an input error on any other."""
    try:
        for flag, command in (("mirror", "bracket"), ("seed", "generate")):
            if getattr(args, flag) is not None and args.command != command:
                message = "--%s applies to %s only, not %s" % (flag, command, args.command)
                raise DiagramFormatError(0, message)
        return args.func(args)
    except DiagramFormatError as exc:
        return _fail(EXIT_INPUT, str(exc) if exc.line else exc.message)
    except CoefficientSizeError as exc:
        return _fail(EXIT_CAP, str(exc))
    except BrokenPipeError:
        return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:  # built once per process: it costs about 0.6 ms
        _parser = _build_parser()
    return _run(_parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
