"""The measuring scripts under tools/ run against the source tree."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from annulink import skein
from annulink.diagram import from_braid_closure

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_states_prints_us_per_state_of_both_enumerators():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "states.py"), "--sizes", "6", "12", "--repeats", "1"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert list(result) == ["zigzag n=6", "zigzag n=12"]
    for n in (6, 12):
        size = result["zigzag n=%d" % n]
        assert sorted(size) == ["gray", "plain"]
        held, sign, _, shared, probes = skein._gray_plan(from_braid_closure([(1, -2, 3)[i % 3] for i in range(n)], 4))
        assert probes == {6: 0, 12: 8}[n]  # no probe up to n = 8
        plan = {"held": held, "sign": "+" if sign > 0 else "-", "shared": shared, "probes": probes}
        assert size["gray"].pop("plan") == plan
        for route in size.values():
            assert sorted(route) == ["us_per_call", "us_per_state"]
            assert route["us_per_call"] == pytest.approx(2**n * route["us_per_state"], rel=0.01, abs=0.01)
            assert route["us_per_state"] > 0


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(ops, tail, correct=True, failed=0):
    metrics = {"ops_per_s": {"value": ops}, "op_tail_ms": {"value": tail}}
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}


MANIFEST = {
    "end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.25},
        {"name": "op_tail_ms", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [],
}


def rows(runs):
    lines = load_pairs().summary(runs, MANIFEST)
    return {line.split()[0]: line for line in lines[1:]}


def test_pairs_summary_marks_each_bound_and_counts_wins():
    # at the bound on both metrics: 75 ops/s against 100, 5 ms against 4
    at = rows([{"parent": run(100, 4), "change": run(75, 5)}] * 2)
    assert at["ops_per_s"].split()[-2:] == ["ok", "(25%)"]
    assert at["op_tail_ms"].split()[-2:] == ["ok", "(25%)"]
    past = rows([{"parent": run(100, 4), "change": run(74.9, 5.01)}] * 2)
    assert past["ops_per_s"].split()[-2] == "OVER"
    assert past["op_tail_ms"].split()[-2] == "OVER"
    # the change wins where it is faster, and where its tail is shorter
    mixed = rows([
        {"parent": run(100, 4), "change": run(120, 5)},
        {"parent": run(100, 4), "change": run(90, 3)},
        {"parent": run(100, 4), "change": run(110, 3)},
    ])
    assert "2/3" in mixed["ops_per_s"].split()
    assert "2/3" in mixed["op_tail_ms"].split()


def test_pairs_summary_marks_a_metric_unresolved_past_the_parents_spread():
    # parent ops/s 60, 80, 120, 140: an IQR of 50 against 25% of 100
    parents = (60, 80, 120, 140)
    wide = rows([{"parent": run(ops, 4), "change": run(100, 4)} for ops in parents])
    assert wide["ops_per_s"].split()[-2:] == ["unresolved", "(25%)"]
    assert wide["op_tail_ms"].split()[-2] == "ok"
    slower = rows([{"parent": run(ops, 4), "change": run(50, 4)} for ops in parents])
    assert slower["ops_per_s"].split()[-2] == "unresolved"
    # every run of the change beats every run of the parent
    clear = rows([{"parent": run(ops, 4), "change": run(141, 4)} for ops in parents])
    assert clear["ops_per_s"].split()[-2] == "ok"


def test_pairs_summary_counts_correct_runs_and_failed_ops():
    lines = rows([
        {"parent": run(100, 4), "change": run(120, 3, correct=False, failed=3)},
        {"parent": run(100, 4), "change": run(120, 3)},
    ])
    assert lines["parent"] == "parent correct 2/2 runs, failed 0/200 ops"
    assert lines["change"] == "change correct 1/2 runs, failed 3/200 ops"


def test_pairs_prints_each_end_to_end_ratio_of_a_pair():
    names = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
    parent = {"metrics": {name: {"value": 2.0} for name in names}}
    change = {"metrics": {name: {"value": 2.0 + k} for k, name in enumerate(names)}}
    line = load_pairs().pair_ratios({"parent": parent, "change": change})
    assert line == "setup_s 1.000 ops_per_s 1.500 op_p50_ms 2.000 op_tail_ms 2.500 peak_rss_mb 3.000"


def test_pairs_setup_summary_gives_medians_ratio_wins_and_identical_trees():
    setups = [
        {"parent": 0.10, "change": 0.12, "same": True},
        {"parent": 0.08, "change": 0.09, "same": True},
        {"parent": 0.12, "change": 0.11, "same": False},
    ]
    header, line = load_pairs().setup_summary(setups)
    assert header.split()[:2] == ["interleaved", "set-up"]
    assert line.split() == ["setup_s", "0.1", "0.11", "1.100", "1/3", "2/3"]


def test_pairs_same_tree_compares_names_and_bytes(tmp_path):
    pairs = load_pairs()
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        side.mkdir()
        (side / "ops.json").write_text("[]")
        (side / "x.diag").write_bytes(b"[crossings]\n")
    assert pairs.same_tree(str(a), str(b))
    (b / "x.diag").write_bytes(b"[crossings]\r\n")
    assert not pairs.same_tree(str(a), str(b))
    (b / "x.diag").unlink()
    assert not pairs.same_tree(str(a), str(b))


def test_pairs_keeps_the_finished_pairs_when_a_run_fails(tmp_path, monkeypatch, capsys):
    pairs = load_pairs()
    names = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
    result = {"correct": True, "attempted": 100, "failed": 0, "metrics": {name: {"value": 1.0} for name in names}}
    bench_runs = []

    def fake_run(cmd, cwd, **kwargs):
        if cmd[1].endswith("inputs.py"):
            os.makedirs(cmd[cmd.index("--out") + 1])
            return subprocess.CompletedProcess(cmd, 0, json.dumps({"setup_s": 0.5}) + "\n", "")
        bench_runs.append(cwd)
        if len(bench_runs) == 3:
            return subprocess.CompletedProcess(cmd, 1, "", "boom\n")
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    out = tmp_path / "pairs.json"
    status = pairs.main(["--base-tree", str(tmp_path), "--workload", "verify-sweep", "--seed", "1",
                         "--pairs", "4", "--out", str(out)])
    assert status == 1
    assert len(bench_runs) == 3
    printed = capsys.readouterr().out
    assert "pair 2 change failed, stopping" in printed and "boom" in printed
    assert "parent correct 1/1 runs" in printed and "interleaved set-up" in printed
    record = json.loads(out.read_text())
    assert len(record["pairs"]) == 1
    assert (record["failure"]["pair"], record["failure"]["side"]) == (2, "change")
    assert "exited 1" in record["failure"]["error"]


def test_pairs_bad_base_prints_gits_message_and_leaves_no_temp_dir(tmp_path, monkeypatch, capsys):
    pairs = load_pairs()
    calls = []

    def fake_run(cmd, cwd, check=False, **kwargs):
        calls.append(cmd)
        proc = subprocess.CompletedProcess(cmd, 128, "", "fatal: invalid reference:\n  no-such-ref\n")
        if check:
            proc.check_returncode()
        return proc

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(pairs.tempfile, "tempdir", str(tmp_path))
    status = pairs.main(["--base", "no-such-ref", "--workload", "verify-sweep", "--seed", "1"])
    assert status == 2
    assert [cmd[:3] for cmd in calls] == [["git", "worktree", "add"]]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "fatal: invalid reference: no-such-ref" in err
    assert list(tmp_path.iterdir()) == []


def test_pairs_prints_each_op_keys_median_latency_per_side(tmp_path, monkeypatch, capsys):
    pairs = load_pairs()
    names = ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
    result = {"correct": True, "attempted": 4, "failed": 0, "metrics": {name: {"value": 1.0} for name in names}}
    base, change = tmp_path / "base", tmp_path / "change"
    for tree in (base, change):
        tree.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", change / "BENCHMARK.json")
    latency = {str(base): {"slow/1/0": [10.0, 30.0, 20.0], "fast/2/0": [1.0]},
               str(change): {"slow/1/0": [2.0, 4.0, 3.0], "fast/2/0": [1.5]}}

    def fake_run(cmd, cwd, **kwargs):
        if cmd[1].endswith("inputs.py"):
            os.makedirs(cmd[cmd.index("--out") + 1])
            return subprocess.CompletedProcess(cmd, 0, json.dumps({"setup_s": 0.5}) + "\n", "")
        records = os.path.join(cwd, ".perfbench", "records")
        os.makedirs(records, exist_ok=True)
        with open(os.path.join(records, "bracket-large-seed3-trace0.json"), "w") as fh:
            json.dump({"latency_ms": latency[cwd]}, fh)
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(pairs, "ROOT", str(change))
    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    out = tmp_path / "pairs.json"
    assert pairs.main(["--base-tree", str(base), "--workload", "bracket-large", "--seed", "3",
                       "--pairs", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(printed) if line.startswith("op key (p50 ms)"))
    assert [line.split() for line in printed[start + 1:]] == [
        ["slow/1/0", "20", "3", "0.150", "2/2"],
        ["fast/2/0", "1", "1.5", "1.500", "0/2"],
    ]
    record = json.loads(out.read_text())
    assert record["pairs"][0]["change"]["key_p50_ms"] == {"slow/1/0": 3.0, "fast/2/0": 1.5}
    # a tree with no record times no key, and the block is left out
    assert pairs.key_latencies(str(tmp_path), "bracket-large", 3) == {}
    assert pairs.key_summary([{"parent": run(1, 1), "change": run(1, 1)}]) == []
