"""Decoder output on the benchmark's fixed golden set must match the digests
committed in bench/golden.json, so a change in what the decoder produces
fails here without a benchmark run. The set is rebuilt the way
bench/run.py's `golden_digests` builds it, from bench/workloads.py, with the
corpus written under a temporary directory; nothing under bench/ changes."""

import importlib.util
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_golden_digests_match_every_strategy(tmp_path, monkeypatch):
    _load_bench_module("measure", monkeypatch)
    checks = _load_bench_module("checks", monkeypatch)
    workloads = _load_bench_module("workloads", monkeypatch)
    monkeypatch.syspath_prepend(str(workloads.SRC))
    golden = json.loads((BENCH / "golden.json").read_text())
    seed, size = golden["seed"], golden["sentences"]

    pkg = workloads.import_paraproto()
    dataset, lm = workloads.prepare("paraphrase", workloads.write_corpus(seed, tmp_path))
    sample = workloads.sentence_sample(dataset.texts(), size, seed)
    _, records = workloads.ParaphraseWorkload(pkg, lm, sample, seed).run_unit(0)
    found = {
        strategy: checks.digest([r[3] for r in records if r[0] == strategy])
        for strategy in workloads.STRATEGIES
    }
    assert set(found) == set(golden["digests"])
    for strategy, digest in golden["digests"].items():
        assert found[strategy] == digest, f"decoder output of {strategy} changed"
