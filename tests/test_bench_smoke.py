"""One unit of each benchmark workload runs on this checkout and passes the
benchmark's own output checks, so a change to the library that breaks a
workload fails here and not only when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 0


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """`bench/workloads.py` as a module, the package, and the seed-0 corpus."""
    with pytest.MonkeyPatch.context() as mp:
        # workloads imports its sibling modules `checks` and `measure`
        mp.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        pkg = workloads.import_paraproto()
        yield workloads, pkg, workloads.write_corpus(SEED, tmp_path_factory.mktemp("bench"))


@pytest.mark.parametrize("name", ["supervised", "consistency"])
def test_training_unit_passes_checks(bench, name):
    workloads, pkg, path = bench
    dataset, _ = workloads.prepare(name, path)
    workload = workloads.TrainingWorkload(pkg, workloads.WORKLOADS[name], SEED, path, dataset)
    _, result = workload.run_unit(0)
    problems, _ = workload.check_unit(result)
    assert problems == [[]]


def test_traced_consistency_unit_passes_checks(bench, monkeypatch):
    # `--trace 1` wraps the library functions that bench/tracing.py LAYERS
    # names; a traced unit must still run, and its spans must reach the
    # episode losses through the training loop
    workloads, pkg, path = bench
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    dataset, _ = workloads.prepare("consistency", path)
    workload = workloads.TrainingWorkload(pkg, workloads.WORKLOADS["consistency"], SEED, path, dataset)
    tracer = tracing.Tracer()
    with tracer.installed():
        _, result = workload.run_unit(0, tag=tracer.set_request)
    problems, _ = workload.check_unit(result)
    assert problems == [[]]
    totals = tracing.layer_totals(tracer.spans(), set(tracer.requests))
    for name in ("protonet.supervised_episode_loss", "consistency.combined_training_step"):
        assert totals[name].calls == workloads.EPISODES


def test_paraphrase_unit_passes_checks(bench):
    workloads, pkg, path = bench
    dataset, lm = workloads.prepare("paraphrase", path)
    sample = workloads.sentence_sample(dataset.texts(), workloads.SAMPLE_SIZE, SEED)
    workload = workloads.ParaphraseWorkload(pkg, lm, sample, SEED)
    _, records = workload.run_unit(0)
    problems, _ = workload.check_unit(records)
    assert len(problems) == len(workloads.STRATEGIES) * workloads.SAMPLE_SIZE
    assert not any(problems)
