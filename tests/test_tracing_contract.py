"""What perfbench's traced pass (`perfbench/tracing.py`) relies on.

`tracing.instrument` wraps the diagram methods named in its DERIVE
table, expecting each to cache its result under the named key, and
counts calls through ``analysis.resolve``.  A refactor that renames one
of these would make ``perfbench/run.py --trace 1`` fail or read zeros;
these tests catch that without editing the benchmark.
"""

import importlib.util
import pathlib

import pytest

from annulink import analysis, cli, skein
from annulink.diagfile import save_diagram
from annulink.diagram import AnnularDiagram, from_braid_closure

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def zigzag():
    return from_braid_closure([1, -2, 3] * 3, 4)


def test_every_derive_method_caches_under_its_key(tracing):
    assert tracing.DERIVE
    for method, key in tracing.DERIVE.items():
        assert callable(getattr(AnnularDiagram, method, None)), method
        d = zigzag()
        assert key not in d._cache
        value = getattr(d, method)()
        assert d._cache[key] is value, method
        assert getattr(d, method)() is value, method


def test_resolve_stays_bound_in_analysis():
    assert analysis.resolve is skein.resolve


def test_derive_spans_only_on_the_deriving_call(tracing):
    tracer = tracing.Tracer()
    d = zigzag()
    with tracing.instrument(tracer):
        for method in tracing.DERIVE:
            getattr(d, method)()
            getattr(d, method)()
    names = [span[0] for span in tracer.spans]
    for method in tracing.DERIVE:
        assert names.count("diagram." + method) == 1, method
    assert AnnularDiagram.trace_faces.__qualname__ == "AnnularDiagram.trace_faces"  # unwrapped


def test_traced_cli_calls_print_what_untraced_ones_do(tracing, tmp_path, capsys):
    path = tmp_path / "zigzag.diag"
    save_diagram(str(path), zigzag())
    calls = [["props", str(path)], ["verify", str(path)], ["bracket", "braid 3: s1 -s2 s1 -s2", "--jones"]]
    plain = []
    for argv in calls:
        assert cli.main(argv) == 0
        plain.append(capsys.readouterr().out)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        for argv, expected in zip(calls, plain):
            assert cli.main(argv) == 0  # perfbench calls it through the module, as here
            assert capsys.readouterr().out == expected
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "analysis.profile", "theorems.verify_all", "skein.bracket_gray", "skein.jones"} <= names
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.main_s"] > 0 and metrics["analysis.profile_s"] > 0
