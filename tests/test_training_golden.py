"""Seeded training must reproduce the same run bit for bit across refactors.

For each method and distance, one short low-profile `train_single_seed` run
on the acceptance corpus is reduced to two SHA-256 digests: one of the
`SeedResult` as sorted JSON (losses, curves, accuracies and counters) and one
of the raw bytes of the best-validation parameters. The squared-Euclidean
digests below were taken when that distance became one matrix product,
|q|^2 + |p|^2 - 2 q.p, which moved the last bits of its losses; the cosine
ones when cosine became half of that product form on unit rows, which moved
its losses by at most 6e-16 relative and its kept parameters by at most
6e-16 absolute, with every accuracy, curve and count equal. A change to any
training number fails here. Two more paths, squared Euclidean, are pinned
in `PATHS`: `dbs_unigram` with the paraphrase cache off (every drawn row
decodes by its text) and `none` under the `full` profile; their digests were
taken before the low profile became the train source's row pool.

Each pinned run's `SeedResult` is also committed, as the very JSON text its
digest hashes, in `golden/<name>.json` (`<method>-<distance>` for `GOLDEN`,
the key for `PATHS`). The assertions stay the digests; on a mismatch the
message names the first field that differs from the committed result and
the largest relative difference on each curve. A re-pin writes the run's
`result_json` to that file with its new digest.
"""

import hashlib
import json
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from paraproto.data import load_dataset
from paraproto.experiment import RunConfig, SeedResult, train_single_seed
from paraproto.synth import generate_synthetic_dataset

GOLDEN = {
    ("none", "sqeuclidean"): (
        "9b83ba2937a5e92bbef10eadc54e89ebda060b96dcc380372558897835e66326",
        "9fb03545e830f7899cb8413038c643c886a65ab466f7d361870010019a40cdc9",
    ),
    ("none", "cosine"): (
        "c900b3322d922caadeb37cab548c351ac5923c778c7811d01b8435ad7b408fee",
        "f88f683c4a8d1d9c117868e7f05460333ebb04817c08d80cc88e2feecc0744b6",
    ),
    ("dbs_unigram", "sqeuclidean"): (
        "13ceaa214f4d31089d093e54c8247f1af05e603e4700fda9ef17cd9e59f395bd",
        "939b1098a1dd07ac379a53e056f7d0b47ebc529579b1c94b8bfc3bfcaac1bce7",
    ),
    ("dbs_unigram", "cosine"): (
        "718b5fbf29e48e74bc80b1ae57b53d17098aed73b46b7e150a9f27c1d532ad13",
        "a0c7ec6ecba869ab27e05e17609401c3c0c7f61f1e0ad0310802c5fe6d51243a",
    ),
}

PATHS = {
    "dbs_unigram-cache_off": (
        "dbs_unigram", {"paraphrase_cache": False},
        "dd576e7d2a14c16ed08fb98130a5ef72a9cc57abe616009a7a35427e8a734f7d",
        "4db73237aaf1b1b3901736f2829d56b705755657de0995d814a57849eb25958c",
    ),
    "none-full": (
        "none", {"profile": "full"},
        "d6c35be3e6e1b3b7fac12d9b051be8d448f95611d42056ffc2f520d958a8d383",
        "3648b98b2c65317ec9ad1e5499586aae0075c5ea8bde92495092810f929d0060",
    ),
}


GOLDEN_DIR = Path(__file__).parent / "golden"
# each pinned run by its file name: (method, distance, overrides, SeedResult digest, parameters digest)
RUNS = {
    **{f"{method}-{distance}": (method, distance, {}, *digests) for (method, distance), digests in GOLDEN.items()},
    **{name: (method, "sqeuclidean", overrides, *digests) for name, (method, overrides, *digests) in PATHS.items()},
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "synth20.jsonl"
    generate_synthetic_dataset(path, n_classes=20, sentences_per_class=30,
                               synonym_rate=0.5, seed=0)
    return str(path), load_dataset(path)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def result_json(corpus_path, dataset, method, distance, **overrides) -> tuple[str, bytes]:
    """One seeded run: its SeedResult as sorted JSON, and the raw bytes of its best parameters."""
    config = RunConfig(
        dataset_path=corpus_path,
        profile="low",
        n_way=5,
        k_shot=1,
        query_per_class=5,
        n_unlabeled=5,
        n_paraphrases=5,
        strategy=method,
        max_episodes=100,
        eval_every=50,
        n_eval_episodes=50,
        seeds=(0,),
        distance=distance,
        paraphrase_cache=True,
    )
    result, best_params, _ = train_single_seed(replace(config, **overrides), 0, dataset)
    return json.dumps(asdict(result), sort_keys=True), best_params.vector.tobytes()


def drift(golden: dict, found: dict) -> str:
    """Where `found`, a SeedResult read from JSON, departs from the committed
    `golden` one: the first field that differs, in field order, and each
    curve's largest relative difference."""
    first = next((f.name for f in fields(SeedResult) if found[f.name] != golden[f.name]), None)
    if first is None:
        parts = ["every field is equal"]
    elif first.endswith("_curve"):
        parts = [f"first differing field {first!r}"]
    else:
        parts = [f"first differing field {first!r}: {found[first]!r}, committed {golden[first]!r}"]
    for name in ("loss_curve", "val_curve"):
        a, b = np.array(golden[name], dtype=float), np.array(found[name], dtype=float)
        if a.shape != b.shape:
            parts.append(f"{name} has {len(b)} rows, committed {len(a)}")
            continue
        scale = np.maximum(np.abs(a), np.abs(b))
        relative = np.divide(np.abs(a - b), scale, out=np.zeros_like(a), where=scale > 0)
        parts.append(f"{name} largest relative difference {relative.max(initial=0.0):.3g}")
    return "; ".join(parts)


def check_run(corpus, name):
    method, distance, overrides, expected_result, expected_params = RUNS[name]
    text, weights = result_json(*corpus, method, distance, **overrides)
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert sha256(text.encode()) == expected_result, (
        f"SeedResult of the seeded run changed: {drift(golden, json.loads(text))}")
    assert sha256(weights) == expected_params, "best parameters of the seeded run changed"


@pytest.mark.parametrize("method,distance", sorted(GOLDEN))
def test_training_run_matches_golden_digests(corpus, method, distance):
    check_run(corpus, f"{method}-{distance}")


@pytest.mark.parametrize("path", sorted(PATHS))
def test_training_path_matches_golden_digests(corpus, path):
    check_run(corpus, path)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_committed_result_hashes_to_its_digest(name):
    assert sha256((GOLDEN_DIR / f"{name}.json").read_bytes()) == RUNS[name][3]


def test_drift_names_the_first_differing_field_and_each_curves_largest_difference():
    golden = json.loads((GOLDEN_DIR / "none-sqeuclidean.json").read_text(encoding="utf-8"))
    assert drift(golden, golden) == "every field is equal; loss_curve largest relative difference 0; " \
                                    "val_curve largest relative difference 0"
    found = json.loads(json.dumps(golden))
    found["loss_curve"][3][1] *= 1 + 1e-12
    found["test_accuracy"] += 0.25
    message = drift(golden, found)
    assert message.startswith(f"first differing field 'test_accuracy': {found['test_accuracy']!r}, "
                              f"committed {golden['test_accuracy']!r}; loss_curve largest relative difference 1e-12")
    del found["val_curve"][-1]
    assert drift(golden, found).endswith(f"val_curve has {len(golden['val_curve']) - 1} rows, "
                                         f"committed {len(golden['val_curve'])}")
