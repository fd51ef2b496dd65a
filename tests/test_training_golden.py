"""Seeded training must reproduce the same run bit for bit across refactors.

For each method and distance, one short low-profile `train_single_seed` run
on the acceptance corpus is reduced to two SHA-256 digests: one of the
`SeedResult` as sorted JSON (losses, curves, accuracies and counters) and one
of the raw bytes of the best-validation parameters. The digests below were
taken from the code before the episode losses were merged into one
prototypical loss; a change to any training number fails here.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from paraproto.data import load_dataset
from paraproto.experiment import RunConfig, train_single_seed
from paraproto.synth import generate_synthetic_dataset

GOLDEN = {
    ("none", "sqeuclidean"): (
        "9dcfdede6a958802ece6bb30e5a59db63ce06561ce9ec613b92c988d138baafc",
        "3ea047a4affd5b284f5f7d2fef9b3477b444ee53ee882051bdfcfc5377a9ebb6",
    ),
    ("none", "cosine"): (
        "6f6191cd9541d207eb98a1e30e306d2abdfa0c51078cb66ca24915d69fd702c8",
        "1a1343510911d2367ab65bcd59ca8c664d22374a561974df1612bff27112a48d",
    ),
    ("dbs_unigram", "sqeuclidean"): (
        "723a6d5f40021db75e7828093b3c481a61b589df8b7a5f7f96ba516e8a5d5c78",
        "80c03e08b03a6358f991467c9ff452c924c15a64e8db1f7f9ef89539aae995c4",
    ),
    ("dbs_unigram", "cosine"): (
        "acb938e00b28c74464c653fb2659659677f85427379eaba6d24ebb04daf4c991",
        "92158bc9c308458bbdee4ed820152dcfaddc12ddfde62e1667f47858680abbf2",
    ),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "synth20.jsonl"
    generate_synthetic_dataset(path, n_classes=20, sentences_per_class=30,
                               synonym_rate=0.5, seed=0)
    return str(path), load_dataset(path)


def run_digests(corpus_path, dataset, method, distance):
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
    result, best_params, _ = train_single_seed(config, 0, dataset)
    report = json.dumps(asdict(result), sort_keys=True).encode()
    weights = b"".join(a.tobytes() for a in best_params.arrays())
    return hashlib.sha256(report).hexdigest(), hashlib.sha256(weights).hexdigest()


@pytest.mark.parametrize("method,distance", sorted(GOLDEN))
def test_training_run_matches_golden_digests(corpus, method, distance):
    result_digest, params_digest = run_digests(*corpus, method, distance)
    expected_result, expected_params = GOLDEN[(method, distance)]
    assert result_digest == expected_result, "SeedResult of the seeded run changed"
    assert params_digest == expected_params, "best parameters of the seeded run changed"
