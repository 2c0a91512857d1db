"""One digest over the command line's whole report surface.

Every corpus entry goes through `validate`, `props`, `bracket --jones`,
`--mirror bracket --jones` and `verify` in both output formats, then
`verify corpus`, `generate` for every family, and the inputs that exit
1, 2 or 3.  The sha256 covers argv, exit code, stdout and stderr of
every call, so any byte of any report that changes shows here; to find
the call that changed, diff `run_all()` against a checkout where the
digest still holds.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from annulink import corpus
from annulink.cli import main
from annulink.generate import FAMILIES

FORMATS = ("text", "structured")
# (arguments before the diagram, arguments after it)
FORMS = (
    (["validate"], []),
    (["props"], []),
    (["bracket"], ["--jones"]),
    (["--mirror", "bracket"], ["--jones"]),
    (["verify"], []),
)
CAPPED = "braid 2: " + " ".join(["s1"] * 27)
ERRORS = (
    ["validate", "broken.diag"],
    ["bracket", "broken.diag"],
    ["validate", "no-such-thing"],
    ["props", "no-such-thing"],
    ["verify", "no-such-thing"],
    ["bracket", "braid 2: s1 s3"],
    ["props", "pd: 1 2 3 4"],
    ["verify", "pd: 1 2 1 2"],
    ["validate", "pd: 1 2 1 2"],
    ["validate", "pd: 1 2 3 4"],
    ["bracket", "--jones", "--orientation", "1,x", "one_crossing"],
    ["bracket", "--jones", "--orientation", "1,1,1", "one_crossing"],
    ["verify", "unknot", "--assume", "non_h_split,flat"],
    ["verify", "one_crossing", "--assume", "non_h_split, not_in_3ball"],
    ["generate", "mystery", "2"],
    ["bracket", CAPPED],
    ["bracket", "--jones", "braid 2500: s1"],
    ["verify", "braid 2500: s1"],
)
DIGEST = "f2bb0c09c643c97e9d7db0a8987c2f90f2a891c348b9a31dedb86c3c589d91d8"


def argv_list():
    out = []
    for name in corpus.names():
        for head, tail in FORMS:
            for fmt in FORMATS:
                out.append(["--format", fmt] + head + [name] + tail)
    for fmt in FORMATS:
        out.append(["--format", fmt, "verify", "corpus"])
        for family in FAMILIES:
            out.append(["--format", fmt, "--seed", "3", "generate", family, "2", "--out", "fam"])
        out.extend(["--format", fmt] + argv for argv in ERRORS)
    return out


def run_all():
    """(argv, exit code, stdout, stderr) of every call."""
    rows = []
    for argv in argv_list():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        rows.append([argv, code, out.getvalue(), err.getvalue()])
    return rows


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="the coefficient cap needs the interpreter's int-to-text limit",
)
def test_every_report_matches_the_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # generate writes under ./fam
    (tmp_path / "broken.diag").write_text("[nope]\n")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit CPython allows
    try:
        rows = run_all()
    finally:
        sys.set_int_max_str_digits(saved)
    assert len(rows) == len(corpus.names()) * len(FORMS) * 2 + 2 * (1 + len(FAMILIES) + len(ERRORS))
    assert {row[1] for row in rows} == {0, 1, 2, 3}
    sha = hashlib.sha256()
    for row in rows:
        sha.update(json.dumps(row).encode("utf-8") + b"\n")
    assert sha.hexdigest() == DIGEST
