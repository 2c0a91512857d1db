"""Fuzzed diagram arguments: the exit codes hold for every input.

`validate`, `bracket`, `props` and `verify` must each return 0-3 and
never raise, whatever the argument, and the three that read a diagram
must exit 2, with one line on stderr and nothing on stdout, exactly
when `validate` rejects the same argument.  Three kinds of input:
mutated `serialize_diagram` text, random bytes in a file, and random
recipes of at most 10 crossings (more would reach `verify`'s
enumeration cap, which raises by design).
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from annulink.cli import EXIT_INPUT, EXIT_OK, main
from annulink.diagfile import serialize_diagram
from annulink.diagram import from_braid_closure

READERS = ("bracket", "props", "verify")


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def check(arg):
    verdict, _, _ = call(["validate", arg])
    assert verdict in (0, 1, 2)
    for sub in READERS:
        rc, out, err = call([sub, arg])
        assert rc in (0, 1, 2, 3), (sub, arg)
        if verdict != EXIT_OK:
            assert (rc, out) == (EXIT_INPUT, ""), (sub, arg, out)
            assert len(err.splitlines()) == 1, (sub, arg, err)
        else:
            assert rc != EXIT_INPUT, (sub, arg, err)


def braid_words(max_strands):
    return st.integers(2, max_strands).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(1, k - 1).flatmap(lambda g: st.sampled_from((g, -g))), max_size=8),
        )
    )


@st.composite
def mutated_texts(draw):
    """A braid closure's file text with one line or token dropped,
    duplicated or swapped, or one parity bit flipped."""
    strands, word = draw(braid_words(4))
    d = from_braid_closure(word, strands, disk=draw(st.booleans()))
    lines = [line.split() for line in serialize_diagram(d).splitlines()]

    def pick(seq):
        return draw(st.integers(0, max(len(seq) - 1, 0)))

    i, j = pick(lines), pick(lines)
    line = lines[i]
    k, m = pick(line), pick(line)
    op = draw(st.sampled_from(("drop", "dup", "swap", "drop_token", "dup_token", "swap_tokens", "flip")))
    if op == "drop":
        del lines[i]
    elif op == "dup":
        lines.insert(j, list(line))
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif line and op == "drop_token":
        del line[k]
    elif line and op == "dup_token":
        line.insert(m, line[k])
    elif line and op == "swap_tokens":
        line[k], line[m] = line[m], line[k]
    elif op == "flip":
        bits = [(a, b) for a, row in enumerate(lines) for b, tok in enumerate(row) if tok in ("0", "1")]
        if bits:
            a, b = draw(st.sampled_from(bits))
            lines[a][b] = "1" if lines[a][b] == "0" else "0"
    return "\n".join(" ".join(row) for row in lines) + "\n"


@st.composite
def recipes(draw):
    kind = draw(st.sampled_from(("braid", "loops", "pd", "pd_random", "unknown")))
    if kind == "braid":
        strands = draw(st.integers(0, 5))
        head = "braid %d%s" % (strands, draw(st.sampled_from(("", " disk", " disc", " 2"))))
        letters = st.tuples(st.sampled_from(("", "-")), st.sampled_from(("s", "")), st.integers(0, 6))
        body = " ".join("%s%s%d" % t for t in draw(st.lists(letters, max_size=10)))
        return "%s: %s" % (head, body)
    if kind == "loops":
        return "loops: " + " ".join(draw(st.lists(st.sampled_from(("0", "1", "2", "x")), max_size=5)))
    if kind == "pd":
        # every label used twice: a random gluing, planar or not
        n = draw(st.integers(1, 5))
        labels = draw(st.permutations([1 + k // 2 for k in range(4 * n)]))
        quads = [labels[q:q + 4] for q in range(0, 4 * n, 4)]
        return "pd: " + " / ".join(" ".join(map(str, quad)) for quad in quads)
    if kind == "pd_random":
        quads = draw(st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=5), max_size=4))
        return "pd: " + " / ".join(" ".join(map(str, quad)) for quad in quads)
    return "%s: %s" % (draw(st.sampled_from(("knot", "braid", "Braid 2", "pd 3", "loops 1"))), draw(st.text(max_size=8)))


@given(mutated_texts())
@settings(max_examples=60, deadline=None)
def test_mutated_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mutated") / "d.diag"
    path.write_text(text)
    check(str(path))


@given(st.binary(max_size=120))
@settings(max_examples=30, deadline=None)
def test_random_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("bytes") / "d.diag"
    path.write_bytes(data)
    check(str(path))


@given(recipes())
@settings(max_examples=80, deadline=None)
def test_random_recipes(recipe):
    check(recipe)
