"""The measuring scripts under tools/ run against the source tree."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_states_prints_us_per_state_of_both_enumerators():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "states.py"), "--sizes", "6", "--repeats", "1"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert list(result) == ["zigzag n=6"]
    assert sorted(result["zigzag n=6"]) == ["gray", "plain"]
    assert all(us > 0 for us in result["zigzag n=6"].values())
