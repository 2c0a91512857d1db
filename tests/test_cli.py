"""Command line behavior: output shapes and the frozen exit codes."""

import os
import pathlib
import subprocess
import sys

import pytest

from annulink import cli, generate, skein
from annulink.cli import EXIT_CAP, EXIT_CHECK, EXIT_INPUT, EXIT_OK, main
from annulink.diagfile import load_diagram, save_diagram
from annulink.diagram import from_braid_closure
from annulink.generate import FAMILIES
from annulink.theorems import FAIL, CheckRecord, VerificationReport


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestValidate:
    def test_corpus_entry(self, capsys):
        rc, out, _ = run(capsys, "validate", "unknot")
        assert rc == EXIT_OK
        assert out.strip() == "OK"

    def test_recipe(self, capsys):
        rc, _, _ = run(capsys, "validate", "braid 3: s1 -s2")
        assert rc == EXIT_OK

    def test_unknown_target(self, capsys):
        rc, _, err = run(capsys, "validate", "no-such-thing")
        assert rc == EXIT_INPUT
        assert "not a file, corpus entry or recipe" in err

    def test_bad_file(self, capsys, tmp_path):
        path = tmp_path / "broken.diag"
        path.write_text("[nope]\n")
        rc, _, err = run(capsys, "validate", str(path))
        assert rc == EXIT_INPUT
        assert err.startswith("line 1:")


@pytest.mark.parametrize("sub", ["validate", "bracket", "props", "verify"])
class TestUnreadableInput:
    """An argument that gives no diagram exits 2 with a one-line message
    in every subcommand, never with a traceback."""

    @staticmethod
    def rejected(capsys, sub, arg):
        rc, out, err = run(capsys, sub, arg)
        assert rc == EXIT_INPUT
        assert out == ""
        assert len(err.splitlines()) == 1, err
        return err

    def test_directory(self, capsys, tmp_path, sub):
        assert "Is a directory" in self.rejected(capsys, sub, str(tmp_path))

    def test_non_utf8_file(self, capsys, tmp_path, sub):
        path = tmp_path / "latin1.diag"
        path.write_bytes(b"[meta]\nname caf\xe9\n")
        assert "not UTF-8" in self.rejected(capsys, sub, str(path))

    def test_recipe_rejected_by_the_builder(self, capsys, sub):
        assert "out of range" in self.rejected(capsys, sub, "braid 2: s1 s3")
        # past the size bound, so no strand list is ever allocated
        for strands in ("100001", "99999999999999999999"):
            err = self.rejected(capsys, sub, "braid %s: s1" % strands)
            assert err == "strands must be <= 100000, not %s\n" % strands


def one_crossing_file(tmp_path, old, new):
    """The one-crossing corpus diagram saved with one token replaced."""
    path = tmp_path / "broken.diag"
    save_diagram(str(path), from_braid_closure([1], 2))
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return str(path)


BROKEN_REFERENCES = {
    # both ends of e0 renamed to an edge the [edges] section never declares
    "undeclared_edge": ("x1 e0 e1 e1 e0", "x1 zz e1 e1 zz", "references undeclared edge zz"),
    "marker_unknown_crossing": ("inner x1:", "inner q9:", "names unknown crossing 'q9'"),
}


@pytest.mark.parametrize("row", sorted(BROKEN_REFERENCES))
class TestBrokenReferences:
    """A file whose edge or marker references are broken exits 2 with one
    line on stderr; `validate` still lists every violation and exits 1."""

    @pytest.mark.parametrize("sub", ["bracket", "props", "verify"])
    def test_rejected(self, capsys, tmp_path, row, sub):
        old, new, message = BROKEN_REFERENCES[row]
        rc, out, err = run(capsys, sub, one_crossing_file(tmp_path, old, new))
        assert (rc, out) == (EXIT_INPUT, "")
        assert len(err.splitlines()) == 1, err
        assert message in err

    def test_validate_lists_the_violations(self, capsys, tmp_path, row):
        old, new, message = BROKEN_REFERENCES[row]
        rc, out, err = run(capsys, "validate", one_crossing_file(tmp_path, old, new))
        assert (rc, err) == (EXIT_CHECK, "")
        assert message in out.splitlines()[0]


MAP_VIOLATIONS = {
    # opposite slots joined: V - E + F = 1 - 2 + 1 on the one component
    "non_planar": ("x1 e0 e1 e1 e0", "x1 e0 e1 e0 e1", "non-planar gluing"),
    # one wrap edge no longer crosses the cut arc: the arc cannot end in
    # the two boundary faces
    "odd_cut_parity": ("e0 1", "e0 0", "cut parities are odd around faces"),
}


@pytest.mark.parametrize("row", sorted(MAP_VIOLATIONS))
class TestMapViolations:
    """A file whose references are sound but whose map fails `validate`
    (a gluing that is not planar, or cut parities that no arc between the
    boundary circles gives) exits 2 with one line on stderr; `validate`
    still lists the violation and exits 1."""

    @pytest.mark.parametrize("sub", ["bracket", "props", "verify"])
    def test_rejected(self, capsys, tmp_path, row, sub):
        old, new, message = MAP_VIOLATIONS[row]
        rc, out, err = run(capsys, sub, one_crossing_file(tmp_path, old, new))
        assert (rc, out) == (EXIT_INPUT, "")
        assert len(err.splitlines()) == 1, err
        assert message in err

    def test_validate_lists_the_violation(self, capsys, tmp_path, row):
        old, new, message = MAP_VIOLATIONS[row]
        rc, out, err = run(capsys, "validate", one_crossing_file(tmp_path, old, new))
        assert (rc, err) == (EXIT_CHECK, "")
        assert [line for line in out.splitlines() if message in line] == out.splitlines()


# Two disjoint one-crossing curves: x1's odd edge bounds two faces while
# both markers sit in one of them.  `validate` holds every component to
# the cut-parity rule, so a disconnected file is refused like a connected one.
TWO_CURVES = """[crossings]
x1 e0 e1 e1 e0
x2 e2 e3 e3 e2
[edges]
e0 1
e1 0
e2 0
e3 0
[external]
inner x1:3
outer x1:3
"""
TWO_CURVES_VIOLATION = "cut parities are odd around faces [0, 2] but the boundary circles sit in faces [2]"


class TestDisconnectedParities:
    @pytest.mark.parametrize("sub", ["bracket", "props", "verify"])
    def test_rejected(self, capsys, tmp_path, sub):
        path = tmp_path / "two.diag"
        path.write_text(TWO_CURVES)
        assert run(capsys, sub, str(path)) == (EXIT_INPUT, "", "two.diag: %s\n" % TWO_CURVES_VIOLATION)

    def test_validate_lists_the_violation(self, capsys, tmp_path):
        path = tmp_path / "two.diag"
        path.write_text(TWO_CURVES)
        assert run(capsys, "validate", str(path)) == (EXIT_CHECK, "violation: %s\n" % TWO_CURVES_VIOLATION, "")


INVALID_RECIPES = {
    # each label names one end of an edge only
    "pd_unpaired_edges": ("pd: 1 2 3 4", "edge e1 has 1 incidences, expected 2"),
    # opposite slots joined, as in the non-planar file row
    "pd_non_planar": ("pd: 1 2 1 2", "non-planar gluing"),
}


@pytest.mark.parametrize("row", sorted(INVALID_RECIPES))
class TestInvalidRecipes:
    """A recipe the builder accepts but `validate` rejects (a pd code can
    name any gluing) exits 2 with one line on stderr, as a file does;
    `validate` lists the violations and exits 1."""

    @pytest.mark.parametrize("sub", ["bracket", "props", "verify"])
    def test_rejected(self, capsys, row, sub):
        recipe, message = INVALID_RECIPES[row]
        rc, out, err = run(capsys, sub, recipe)
        assert (rc, out) == (EXIT_INPUT, "")
        assert len(err.splitlines()) == 1, err
        assert message in err

    def test_validate_lists_the_violations(self, capsys, row):
        recipe, message = INVALID_RECIPES[row]
        rc, out, err = run(capsys, "validate", recipe)
        assert (rc, err) == (EXIT_CHECK, "")
        assert message in out.splitlines()[0]


class TestParserBuiltOnce:
    ARGV = [
        ["bracket", "braid 2: s1 s1 s1", "--jones"],
        ["--threads=2", "bracket", "unknot"],
        ["props", "no-such-thing"],
        ["--format", "structured", "props", "one_crossing"],
        ["bracket", "--help"],
        ["verify", "braid 3: s1 s3"],
        ["validate", "unknot"],
    ]

    @staticmethod
    def outcome(capsys, call, argv):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def fresh(argv):
        return cli._run(cli._build_parser().parse_args(argv))

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        built = []
        build = cli._build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_build_parser", counted)
        for _ in range(3):
            for argv in self.ARGV:
                assert self.outcome(capsys, main, argv) == self.outcome(capsys, self.fresh, argv)
        assert len(built) == 1 + 3 * len(self.ARGV)  # one for main, one per fresh call
        assert {self.outcome(capsys, main, argv)[0] for argv in self.ARGV} == {
            EXIT_OK, EXIT_INPUT, ("exit", 0), ("exit", 2)
        }


class TestBracket:
    def test_single_crossing(self, capsys):
        rc, out, _ = run(capsys, "bracket", "one_crossing")
        assert rc == EXIT_OK
        assert "bracket = -A^-3" in out
        assert "breadth = 0" in out

    def test_mirror(self, capsys):
        rc, out, _ = run(capsys, "--mirror", "bracket", "one_crossing")
        assert rc == EXIT_OK
        assert "bracket = -A^3" in out

    def test_jones_and_writhe(self, capsys):
        rc, out, _ = run(capsys, "bracket", "--jones", "braid 2: s1")
        assert rc == EXIT_OK
        assert "writhe = 1" in out
        assert "jones = A^-6" in out

    def test_jones_row_reads_the_orientation(self, capsys):
        rc, out, _ = run(capsys, "bracket", "--jones", "--orientation", "1,-1", "braid 2: s1 s1 s1 s1")
        assert rc == EXIT_OK
        assert out.splitlines()[2:] == ["writhe = -4", "jones = 1"]

    def test_moves_leave_jones_alone(self, capsys):
        # rmove_a is disk_trefoil after random kink and finger moves, so
        # bracket and writhe differ but the rescaled invariant agrees
        _, base, _ = run(capsys, "bracket", "--jones", "disk_trefoil")
        _, moved, _ = run(capsys, "bracket", "--jones", "rmove_a")
        assert base.splitlines()[-1] == moved.splitlines()[-1]
        assert base.splitlines()[0] != moved.splitlines()[0]

    def test_structured_format(self, capsys):
        rc, out, _ = run(capsys, "--format", "structured", "bracket", "braid 2: s1")
        assert rc == EXIT_OK
        assert out.strip() == "target=recipe bracket=-A^-3 breadth=0"

    def test_threads_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--threads=2", "bracket", "unknot"])
        assert exc.value.code == 2  # argparse usage error
        assert "--threads" in capsys.readouterr().err

    def test_crossing_cap(self, capsys):
        recipe = "braid 2: " + " ".join(["s1"] * 27)
        rc, _, err = run(capsys, "bracket", recipe)
        assert rc == EXIT_CAP
        assert "27" in err

    @pytest.mark.parametrize("orientation", ("1", "1,1", "1,x"))
    def test_orientation_needs_jones(self, capsys, orientation):
        # the orientation only orients the jones row; without it a
        # one-entry orientation of a two-component diagram went unread
        rc, out, err = run(capsys, "bracket", "braid 2: s1 s1", "--orientation", orientation)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err.splitlines() == ["--orientation applies to bracket --jones only"]

    def test_bad_orientation(self, capsys):
        rc, _, err = run(
            capsys, "bracket", "--jones", "--orientation", "1,x", "one_crossing"
        )
        assert rc == EXIT_INPUT
        assert "orientation" in err

    def test_orientation_is_checked_before_the_state_sum(self, capsys, monkeypatch):
        # an orientation that does not fit exits 2 without walking a state,
        # on the 18-crossing zigzag and past the crossing cap alike
        calls = []
        walk = skein._gray_states
        monkeypatch.setattr(skein, "_gray_states", lambda d: calls.append(d) or walk(d))
        zigzag = "braid 4: " + " ".join(["s1 -s2 s3"] * 6)
        capped = "braid 2: " + " ".join(["s1"] * 27)
        for recipe, ncomp in ((zigzag, 2), (capped, 1)):
            rc, out, err = run(capsys, "bracket", recipe, "--jones", "--orientation", "1,1,1,1,1,1,1,1")
            assert (rc, out) == (EXIT_INPUT, "")
            assert err.splitlines() == ["orientation must give +1 or -1 for each of the %d components" % ncomp]
        assert calls == []
        rc, _, _ = run(capsys, "bracket", "braid 2: s1 s1", "--jones", "--orientation", "1,-1")
        assert rc == EXIT_OK and len(calls) == 1  # the spy does see the walk


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "one_crossing"],
        ["props", "braid 2: -s1 -s1"],
        ["verify", "braid 2: -s1 -s1"],
        ["generate", "parallel-cores", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_mirror_is_for_bracket_only(capsys, monkeypatch, tmp_path, argv):
    """`--mirror` mirrors the bracket rows only; every other subcommand
    rejects it rather than print values of the unmirrored diagram."""
    monkeypatch.chdir(tmp_path)  # generate would write here
    rc, out, err = run(capsys, "--mirror", *argv)
    assert (rc, out) == (EXIT_INPUT, "")
    assert err.splitlines() == ["--mirror applies to bracket only, not %s" % argv[0]]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "one_crossing"],
        ["bracket", "braid 2: s1"],
        ["props", "braid 2: s1"],
        ["verify", "braid 2: -s1 -s1"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_for_generate_only(capsys, argv):
    """`--seed` seeds the generated families only; every other subcommand
    rejects it, seed 0 included, rather than ignore it."""
    for seed in ("3", "0"):
        rc, out, err = run(capsys, "--seed", seed, *argv)
        assert (rc, out) == (EXIT_INPUT, "")
        assert err.splitlines() == ["--seed applies to generate only, not %s" % argv[0]]


class TestProps:
    def test_profile_lines(self, capsys):
        rc, out, _ = run(capsys, "props", "one_crossing")
        assert rc == EXIT_OK
        lines = out.splitlines()
        assert "n = 1" in lines
        assert "alternating = 1" in lines
        assert "z2_class = 0" in lines
        assert "k_fig3 = 1" in lines
        assert "quasi_simple = 1" in lines
        assert "simple = 0" in lines
        assert "components = 1" in lines

    def test_disconnected_blanks_class_fields(self, capsys):
        rc, out, _ = run(capsys, "props", "braid 3: s1")
        assert rc == EXIT_OK
        assert "simple = -" in out
        assert "connected = 0" in out

    @pytest.mark.parametrize(
        "target,k_fig2",
        [("fig4_left", "2"), ("braid 3: s1", "-"), ("unknot", "-")],
    )
    def test_record_ends_with_k_fig2_then_components(self, capsys, target, k_fig2):
        rc, out, _ = run(capsys, "props", target)
        assert rc == EXIT_OK
        lines = out.splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys[-3:] == ["minus_adequate", "k_fig2", "components"]
        assert lines[-2] == "k_fig2 = %s" % k_fig2

    def test_structured_is_one_line(self, capsys):
        rc, out, _ = run(capsys, "--format", "structured", "props", "unknot")
        assert rc == EXIT_OK
        assert len(out.splitlines()) == 1
        assert out.startswith("target=unknot ")


class TestVerify:
    def test_single_entry_ok(self, capsys):
        rc, out, _ = run(capsys, "verify", "zigzag_m2")
        assert rc == EXIT_OK
        assert "fail" not in out

    def test_vanishing_entry_ok(self, capsys):
        rc, out, _ = run(capsys, "verify", "core")
        assert rc == EXIT_OK
        assert "vanishing_bracket: pass" in out

    def test_zero_bracket_entry_ok(self, capsys):
        rc, out, _ = run(capsys, "verify", "fig13")
        assert rc == EXIT_OK
        assert "expected_bracket: pass" in out

    def test_inconsistent_entry_dumps_state(self, capsys):
        rc, out, _ = run(capsys, "verify", "fig14")
        assert rc == EXIT_CHECK
        assert "diagnostic: fig14" in out
        assert "state table" in out
        assert "failed expected_bracket" in out

    def test_corpus_fails_on_the_known_entry(self, capsys):
        rc, out, _ = run(capsys, "verify", "corpus")
        assert rc == EXIT_CHECK
        assert "diagnostic: fig14" in out
        assert out.rstrip().splitlines()[-1] == "entries=21 pairs=4 status=failed"

    def test_failing_file_is_read_once_and_dumped(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "trefoil.diag"
        save_diagram(str(path), from_braid_closure([1, 1, 1], 2, disk=True))
        loads, checked, dumped = [], [], []
        load, verify, serialize = cli.load_diagram, cli.verify_all, cli.serialize_diagram

        def counted_load(*args, **kwargs):
            loads.append(args)
            return load(*args, **kwargs)

        def failing_verify(d, *args, **kwargs):
            checked.append(d)
            report = verify(d, *args, **kwargs)
            forced = CheckRecord("forced", (), 1, 2, FAIL)
            return VerificationReport(
                report.name, report.assumptions, report.records + (forced,)
            )

        def spied_serialize(d, *args, **kwargs):
            dumped.append(d)
            return serialize(d, *args, **kwargs)

        monkeypatch.setattr(cli, "load_diagram", counted_load)
        monkeypatch.setattr(cli, "verify_all", failing_verify)
        monkeypatch.setattr(cli, "serialize_diagram", spied_serialize)
        rc, out, _ = run(capsys, "verify", str(path))
        assert rc == EXIT_CHECK
        assert "diagnostic: trefoil.diag" in out
        assert "failed forced: left=1 right=2" in out
        assert len(loads) == 1
        assert len(checked) == 1 and len(dumped) == 1
        assert dumped[0] is checked[0]

    def test_file_named_like_an_entry_is_read_as_props_reads_it(
        self, capsys, monkeypatch, tmp_path
    ):
        # a file comes before a corpus entry of the same name, for verify
        # as for every subcommand; `verify corpus` checks the bundled entries
        monkeypatch.chdir(tmp_path)
        trefoil = from_braid_closure([1, 1, 1], 2, disk=True)
        save_diagram("unknot", trefoil)
        _, props, _ = run(capsys, "props", "unknot")
        assert "n = 3" in props.splitlines()
        rc, out, _ = run(capsys, "--format", "structured", "verify", "unknot")
        assert rc == EXIT_OK
        assert "expected_" not in out
        poly = skein.bracket_gray(trefoil)
        routes = "entry=unknot check=bracket_routes verdict=pass left=%s right=%s" % (poly, poly)
        assert routes in out.splitlines()
        rc, out, _ = run(capsys, "--format", "structured", "verify", "corpus")
        lines = out.splitlines()
        assert rc == EXIT_CHECK
        assert lines[-1] == "entries=21 pairs=4 status=failed"
        assert "entry=unknot check=expected_n verdict=pass left=0 right=0" in lines
        unknot = "left=-A^2 - A^-2 right=-A^2 - A^-2"
        assert "entry=unknot check=expected_bracket verdict=pass " + unknot in lines

    def test_recipe_with_assumptions(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "braid 2: s1", "--assume", "non_h_split"
        )
        assert rc == EXIT_OK
        assert "non_h_split=True" in out

    def test_corpus_entry_with_assumptions(self, capsys):
        rc, out, _ = run(capsys, "verify", "one_crossing", "--assume", "non_h_split")
        assert rc == EXIT_OK
        assert out.splitlines()[1] == (
            "  assume non_h_split=True not_in_3ball=False no_double_sphere_intersection=False"
        )

    def test_unknown_assumption(self, capsys):
        rc, _, err = run(capsys, "verify", "unknot", "--assume", "flat")
        assert rc == EXIT_INPUT
        assert "unknown assumption" in err


class TestResourceCaps:
    """A diagram past a resource cap exits 3 with one line on stderr."""

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="this interpreter has no int-to-text limit",
    )
    @pytest.mark.parametrize("sub", ["bracket", "verify"])
    def test_coefficient_too_long_to_print(self, capsys, sub):
        # pin CPython's default limit, whatever PYTHONINTMAXSTRDIGITS says
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            # 19,999 free loops: a bracket coefficient of about 6,000 digits
            rc, out, err = run(capsys, sub, "braid 20000: s1")
        finally:
            sys.set_int_max_str_digits(saved)
        assert (rc, out) == (EXIT_CAP, "")
        assert err.splitlines() == [
            "a coefficient has more than 4300 digits, the interpreter's limit for printing an integer"
        ]


class TestGenerate:
    def test_writes_loadable_files(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "--seed", "6", "generate", "alternating-braid-closures",
            "2", "--out", str(tmp_path),
        )
        assert rc == EXIT_OK
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "alternating-braid-closures-seed6-00.diag",
            "alternating-braid-closures-seed6-01.diag",
        ]
        d, meta = load_diagram(str(tmp_path / names[0]))
        assert d.validate() == []
        assert meta["family"] == "alternating-braid-closures"
        assert meta["seed"] == "6"
        assert meta["index"] == "0"

    def test_unset_seed_is_seed_zero(self, capsys, tmp_path):
        trees = []
        for seed in ([], ["--seed", "0"]):
            out_dir = tmp_path / str(len(trees))
            rc, _, _ = run(capsys, *seed, "generate", "parallel-cores", "2", "--out", str(out_dir))
            assert rc == EXIT_OK
            trees.append({p.name: p.read_text() for p in out_dir.iterdir()})
        assert trees[0] == trees[1]
        assert sorted(trees[0]) == ["parallel-cores-seed0-00.diag"]

    @pytest.mark.parametrize(
        "family, size", [("parallel-cores", "-3"), ("r-move-perturbations", "-1")]
    )
    def test_negative_size(self, capsys, tmp_path, family, size):
        out_dir = tmp_path / "out"
        rc, out, err = run(capsys, "generate", family, size, "--out", str(out_dir))
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == "size must be >= 0, not %s\n" % size
        assert not out_dir.exists()

    def test_size_past_the_bound(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        rc, out, err = run(capsys, "generate", "parallel-cores", "100001", "--out", str(out_dir))
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == "size must be <= 100000, not 100001\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_size_past_the_bound_builds_nothing(self, capsys, tmp_path, monkeypatch, family):
        def builder(size, seed):
            raise AssertionError("built %d diagrams" % size)

        monkeypatch.setitem(generate._BUILDERS, family, builder)
        rc, out, err = run(capsys, "generate", family, "100001", "--out", str(tmp_path / "out"))
        assert (rc, out, err) == (EXIT_INPUT, "", "size must be <= 100000, not 100001\n")
        assert not (tmp_path / "out").exists()

    def test_size_past_the_index_range(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        rc, out, err = run(capsys, "generate", "parallel-cores", "99999999999999999999", "--out", str(out_dir))
        assert (rc, out) == (EXIT_INPUT, "")
        assert len(err.splitlines()) == 1, err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "below, strerror", [("", "File exists"), ("sub", "Not a directory")], ids=["file", "below-a-file"]
    )
    def test_unwritable_out(self, capsys, tmp_path, below, strerror):
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / below
        rc, out, err = run(capsys, "generate", "parallel-cores", "1", "--out", str(target))
        assert (rc, out) == (EXIT_INPUT, "")
        assert err == "cannot write %s: %s\n" % (target, strerror)
        assert blocker.read_text() == ""

    def test_unknown_family(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "generate", "mystery", "2", "--out", str(tmp_path)
        )
        assert rc == EXIT_INPUT
        assert "unknown family" in err


def test_import_stays_light():
    # dataclasses pulls in inspect, ast and dis, which every CLI call
    # would pay for at start-up
    root = pathlib.Path(__file__).resolve().parent.parent
    code = (
        "import sys, annulink.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
