"""The pinned example corpus: every entry builds, and verification
flags exactly the one entry whose recorded values are inconsistent."""

import pytest

from annulink import cli, skein
from annulink.corpus import (
    ENTRIES,
    PAIR_CHECKS,
    CorpusEntry,
    _expected_checks,
    build,
    verify_entry,
    verify_pairs,
)
from annulink.diagfile import serialize_diagram
from annulink.theorems import FAIL

# the recorded bracket and breadth for this entry cannot both be right:
# its exponents straddle two classes mod 4, which the congruence checks
# rule out, so its expectation checks stay red on purpose
INCONSISTENT = "fig14"


def entry(name):
    return ENTRIES[name]


class TestBuild:
    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_builds_and_validates(self, name):
        d = build(entry(name).recipe)
        assert d.validate() == []

    def test_family_recipes_are_stable(self):
        recipe = entry("alt_gen_a").recipe
        assert serialize_diagram(build(recipe)) == serialize_diagram(build(recipe))

    def test_sources_use_known_vocabulary(self):
        assert {e.source for e in ENTRIES.values()} <= {
            "stated",
            "derived",
            "construction",
        }


class TestVerification:
    @pytest.mark.parametrize(
        "name", sorted(n for n in ENTRIES if n != INCONSISTENT)
    )
    def test_consistent_entries_pass(self, name):
        report = verify_entry(entry(name))
        assert report.ok(), "\n".join(report.lines())

    def test_inconsistent_entry_fails_its_expectations(self):
        report = verify_entry(entry(INCONSISTENT))
        failed = sorted(r.check for r in report.failures())
        assert failed == ["expected_bracket", "expected_breadth"]
        # the structural checks on the same diagram still pass
        structural = [
            r for r in report.records if not r.check.startswith("expected_")
        ]
        assert all(r.verdict != FAIL for r in structural)

    def test_pair_checks_pass(self):
        records = verify_pairs()
        assert len(records) == len(PAIR_CHECKS)
        assert all(r.verdict != FAIL for r in records), [
            r.line() for r in records
        ]

    def test_pairs_reuse_diagrams_built_by_the_caller(self, monkeypatch):
        names = sorted({name for _, a, b in PAIR_CHECKS for name in (a, b)})
        built = {name: entry(name).build() for name in names}
        before = [r.line() for r in verify_pairs(built)]
        gray = []
        traced = skein._gray_states
        monkeypatch.setattr(skein, "_gray_states", lambda d: gray.append(d) or traced(d))
        monkeypatch.setattr(CorpusEntry, "build", lambda self: pytest.fail("rebuilt " + self.name))
        assert [r.line() for r in verify_pairs(built)] == before
        assert gray == []

    def test_verify_corpus_builds_each_entry_once(self, monkeypatch, capsys):
        builds = []
        original = CorpusEntry.build
        monkeypatch.setattr(CorpusEntry, "build", lambda self: builds.append(self.name) or original(self))
        cli.main(["verify", "corpus"])
        capsys.readouterr()
        assert sorted(builds) == sorted(ENTRIES)

    def test_recorded_values_read_the_production_route(self, monkeypatch):
        # the plain enumeration is the Gray route's oracle; outside the
        # dual-route check the corpus reads the production bracket
        plain = []
        traced = skein._plain_states
        monkeypatch.setattr(skein, "_plain_states", lambda d: plain.append(d) or traced(d))
        verify_pairs()
        _expected_checks(entry("sigma1_fourth"), entry("sigma1_fourth").build())
        assert plain == []

    def test_corrupted_expectation_is_caught(self):
        # self-test of the harness: plant wrong values and watch each of
        # the three expectation kinds go red
        bad = CorpusEntry(
            name="planted",
            recipe="braid 2: s1",
            source="derived",
            note="deliberately wrong",
            expected_bracket="A^2",
            expected_breadth=8,
            expected_profile={"alternating": False},
        )
        failed = sorted(r.check for r in verify_entry(bad).failures())
        assert failed == [
            "expected_alternating",
            "expected_bracket",
            "expected_breadth",
        ]

    def test_profile_expectations_cover_flags(self):
        # spot checks that the recorded profiles really constrain things
        assert entry("fig4_right").expected_profile.get("simple") is True
        assert entry("fig5_right").expected_profile.get("quasi_simple") is False
        assert entry("fig11_left").expected_profile.get("plus_adequate") is False
        assert entry("fig11_right").expected_profile.get("plus_adequate") is True
