"""CLI output on every props-large and verify-sweep benchmark input,
against its pin.

`perfbench/inputs.py` builds the pool inputs that any seed of a
workload can pick (72 props-large files; 352 verify-sweep files plus
the ``verify corpus`` op that warms up every run), and
`perfbench/pins.json` holds the exit code and stdout digest each must
give.  Running them here keeps `props` and `verify` byte-identical
without a benchmark run; the digest is the one `perfbench/run.py`
takes, and both files are only read.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib

from annulink import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pinned_and_got(workload, keys, inputs, tmp_path):
    """(pins, outputs) for ``keys``: exit code and stdout digest per key."""
    pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))[workload]
    got = {}
    for key, argv in inputs.materialize(workload, keys, str(tmp_path)):
        argv = [str(tmp_path / arg) if arg.endswith(".diag") else arg for arg in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        got[key] = [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]]
    return {key: pins[key] for key in keys}, got


def test_props_matches_every_pinned_output(tmp_path):
    inputs = load_inputs()
    keys = [key for key in inputs.pool_keys("props-large") if key != inputs.CORPUS_KEY]
    assert len(keys) == 72
    pinned, got = pinned_and_got("props-large", keys, inputs, tmp_path)
    assert got == pinned


def test_verify_matches_every_pinned_output(tmp_path):
    inputs = load_inputs()
    keys = inputs.pool_keys("verify-sweep")
    assert len(keys) == 353 and inputs.CORPUS_KEY in keys
    pinned, got = pinned_and_got("verify-sweep", keys, inputs, tmp_path)
    assert got == pinned
