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


def test_paraphrase_unit_passes_checks(bench):
    workloads, pkg, path = bench
    dataset, lm = workloads.prepare("paraphrase", path)
    sample = workloads.sentence_sample(dataset.texts(), workloads.SAMPLE_SIZE, SEED)
    workload = workloads.ParaphraseWorkload(pkg, lm, sample, SEED)
    _, records = workload.run_unit(0)
    problems, _ = workload.check_unit(records)
    assert len(problems) == len(workloads.STRATEGIES) * workloads.SAMPLE_SIZE
    assert not any(problems)
