"""The traced benchmark run wraps pairsel attributes by name from outside the
package (perfbench/spans.py); renaming or deleting one must fail here."""

import importlib.util
import pathlib
import sys

import pairsel
from pairsel import cli, gf, instances, matroid, pifam, schemes, verify

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("pairsel_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no bytecode cache in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _bindings():
    """Every module and class namespace of the package, by identity."""
    modules = (gf, matroid, pifam, instances, schemes, verify, cli)
    owners = [*modules]
    for m in modules:
        owners += [v for v in vars(m).values()
                   if isinstance(v, type) and v.__module__ == m.__name__]
    return {(o, k): v for o in owners for k, v in vars(o).items()}


def test_benchmark_tracer_installs_records_and_uninstalls(tmp_path):
    spans = _load_spans()
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install(pairsel)
    try:
        out = tmp_path / "out.json"
        argv = ["crs-hardness", "--q", "5", "--d", "5", "--c", "2", "--trials", "64",
                "--format", "json", "--output", str(out)]
        assert cli.run(argv) == 0
    finally:
        tracer.uninstall()
    recorded, counts = tracer.totals()
    assert {"gf.matmul", "gf.rank", "verify.experiment", "cli.resolve"} <= set(recorded)
    assert counts["verify.chunks"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
