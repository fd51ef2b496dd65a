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
"""

import hashlib
import json
from dataclasses import asdict, replace

import pytest

from paraproto.data import load_dataset
from paraproto.experiment import RunConfig, train_single_seed
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


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "synth20.jsonl"
    generate_synthetic_dataset(path, n_classes=20, sentences_per_class=30,
                               synonym_rate=0.5, seed=0)
    return str(path), load_dataset(path)


def run_digests(corpus_path, dataset, method, distance, **overrides):
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
    report = json.dumps(asdict(result), sort_keys=True).encode()
    weights = best_params.vector.tobytes()
    return hashlib.sha256(report).hexdigest(), hashlib.sha256(weights).hexdigest()


@pytest.mark.parametrize("method,distance", sorted(GOLDEN))
def test_training_run_matches_golden_digests(corpus, method, distance):
    result_digest, params_digest = run_digests(*corpus, method, distance)
    expected_result, expected_params = GOLDEN[(method, distance)]
    assert result_digest == expected_result, "SeedResult of the seeded run changed"
    assert params_digest == expected_params, "best parameters of the seeded run changed"


@pytest.mark.parametrize("path", sorted(PATHS))
def test_training_path_matches_golden_digests(corpus, path):
    method, overrides, expected_result, expected_params = PATHS[path]
    result_digest, params_digest = run_digests(*corpus, method, "sqeuclidean", **overrides)
    assert result_digest == expected_result, "SeedResult of the seeded run changed"
    assert params_digest == expected_params, "best parameters of the seeded run changed"
