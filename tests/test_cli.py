"""Command line behavior: output shapes and the frozen exit codes."""

import os
import pathlib
import subprocess
import sys

import pytest

from annulink import cli
from annulink.cli import EXIT_CAP, EXIT_CHECK, EXIT_INPUT, EXIT_OK, main
from annulink.diagfile import load_diagram, save_diagram
from annulink.diagram import from_braid_closure
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

    def test_bad_orientation(self, capsys):
        rc, _, err = run(
            capsys, "bracket", "--jones", "--orientation", "1,x", "one_crossing"
        )
        assert rc == EXIT_INPUT
        assert "orientation" in err


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

    def test_recipe_with_assumptions(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "braid 2: s1", "--assume", "non_h_split"
        )
        assert rc == EXIT_OK
        assert "non_h_split=True" in out

    def test_unknown_assumption(self, capsys):
        rc, _, err = run(capsys, "verify", "unknot", "--assume", "flat")
        assert rc == EXIT_INPUT
        assert "unknown assumption" in err


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
