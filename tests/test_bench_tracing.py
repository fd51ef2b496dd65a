"""The benchmark's span tracer wraps library functions by name; every name it
lists must exist, or `bench/run.py --trace 1` fails before its first unit."""

import importlib.util
import sys
from pathlib import Path

import paraproto

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_every_traced_name(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)

    # the package and every module that binds `tokenize` from `encoder`
    holders = [paraproto, paraproto.encoder, paraproto.data, paraproto.decoding, paraproto.metrics]
    original = paraproto.encoder.tokenize
    assert all(module.tokenize is original for module in holders)
    with tracing.Tracer().installed():
        patched = paraproto.encoder.tokenize
        assert patched is not original
        assert all(module.tokenize is patched for module in holders)
    assert all(module.tokenize is original for module in holders)
