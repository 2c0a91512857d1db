"""`props` output on every props-large benchmark input, against its pin.

`perfbench/inputs.py` builds the 72 pool inputs that any seed of the
props-large workload can pick, and `perfbench/pins.json` holds the exit
code and stdout digest each must give.  Running them here keeps `props`
byte-identical without a benchmark run; the digest is the one
`perfbench/run.py` takes.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import pathlib

from annulink import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD = "props-large"


def load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_props_matches_every_pinned_output(tmp_path):
    inputs = load_inputs()
    pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))[WORKLOAD]
    keys = [key for key in inputs.pool_keys(WORKLOAD) if key != inputs.CORPUS_KEY]
    assert len(keys) == 72
    got = {}
    for key, (command, name) in inputs.materialize(WORKLOAD, keys, str(tmp_path)):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([command, str(tmp_path / name)])
        got[key] = [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]]
    assert got == {key: pins[key] for key in keys}
