import csv
import itertools
import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paraproto import data, numerics
from paraproto.consistency import AnnealSchedule
from paraproto.configio import dataclass_from_kv, dataclass_to_kv
from paraproto.data import load_dataset
from paraproto.decoding import RNG_STRATEGIES, STRATEGIES, DecodeConfig, SynonymBigramLM, generate_paraphrase_batch
from paraproto.encoder import AdamState, TokenRows
from paraproto.experiment import (
    METHODS,
    PMASK_GRID,
    PROFILES,
    RunConfig,
    RunReport,
    SeedResult,
    diversity_by_strategy,
    emit_report,
    plan_seed,
    run_experiment,
    train_single_seed,
    _rngs,
)
from paraproto.protonet import evaluate
from paraproto.synth import default_synonym_table, generate_synthetic_dataset
from paraproto.data import TEST, EpisodeSource, restrict_low_profile, split_classes
from rowstub import text_batch, unlabeled_texts
from test_decoding import decode_configs


def parse_results_csv(path):
    """Read back a results CSV, recovering the exact float values."""
    with open(path, newline="", encoding="utf-8") as handle:
        return [
            {
                "method": record["method"],
                "profile": record["profile"],
                "k_shot": int(record["k_shot"]),
                "seed_accuracies": [float(x) for x in record["seed_accuracies"].split()],
                "mean": float(record["mean"]),
                "std": float(record["std"]),
            }
            for record in csv.DictReader(handle)
        ]


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.jsonl"
    generate_synthetic_dataset(path, n_classes=12, sentences_per_class=14, seed=0)
    return str(path)


def record_calls(monkeypatch, module, name):
    """Wrap `module.name` for the test; returns the list of (args, kwargs)
    that each call appends before it runs the original."""
    calls, original = [], getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def record_train_draws(monkeypatch):
    """Record every train-source `EpisodeSource.draw` for the test; returns
    the list of (rows, unlabeled) pairs that each such draw appends."""
    draws, original_draw = [], EpisodeSource.draw

    def recorded_draw(source, n_episodes, rng):
        drawn = original_draw(source, n_episodes, rng)
        if source.part == "train":
            draws.append(drawn)
        return drawn

    monkeypatch.setattr(EpisodeSource, "draw", recorded_draw)
    return draws


def step_paraphrases(args):
    """Each unlabeled sentence's paraphrase rows in the arguments of one
    `combined_training_step` call: its unlabeled rows hold the U sentences,
    then each sentence's M paraphrases, sentence by sentence."""
    rows, n_sentences = args[3], args[4]
    m = len(rows) // n_sentences - 1
    return [rows.take(np.arange(n_sentences + j * m, n_sentences + (j + 1) * m)) for j in range(n_sentences)]


def quick_config(corpus_path, **overrides):
    defaults = dict(
        dataset_path=corpus_path,
        n_way=3,
        k_shot=1,
        query_per_class=3,
        max_episodes=30,
        eval_every=10,
        patience=2,
        n_eval_episodes=8,
        seeds=(0,),
        embed_dim=8,
        output_dim=8,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


# printable, no key/comment characters, no surrounding whitespace or line breaks
paths = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"), exclude_characters="=#"),
    min_size=1,
).filter(lambda s: s == s.strip())
positive = st.integers(1, 1000)


@st.composite
def run_configs(draw):
    decode = draw(decode_configs())
    strategy = draw(st.sampled_from(METHODS))
    dbs = strategy not in ("none", "stub_bt")
    eval_every = draw(positive)
    train, valid = draw(st.floats(0.01, 0.49)), draw(st.floats(0.01, 0.49))
    profile, k_shot, query_per_class = draw(st.sampled_from(PROFILES)), draw(positive), draw(positive)
    return RunConfig(
        dataset_path=draw(paths),
        profile=profile,
        n_way=draw(st.integers(2, 50)),
        k_shot=k_shot,
        query_per_class=query_per_class,
        n_unlabeled=draw(positive),
        n_paraphrases=decode.num_groups if dbs else draw(positive),
        strategy=strategy,
        decode=decode,
        anneal_alpha=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        max_episodes=eval_every + draw(st.integers(0, 10_000)),
        eval_every=eval_every,
        patience=draw(positive),
        n_eval_episodes=draw(positive),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6, unique=True))),
        distance=draw(st.sampled_from(numerics.DISTANCE_KINDS)),
        split_ratios=(train, valid, 1.0 - train - valid),
        group_by_domain=draw(st.booleans()),
        # a low-profile episode needs k_shot + query_per_class rows per class
        low_profile_n=draw(st.integers(k_shot + query_per_class if profile == "low" else 1, 2000)),
        embed_dim=draw(positive),
        output_dim=draw(positive),
        learning_rate=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        paraphrase_cache=draw(st.booleans()),
    )


class TestRunConfig:
    @given(run_configs())
    def test_text_round_trip_property(self, cfg):
        assert RunConfig.from_text(cfg.to_text()) == cfg

    def test_text_round_trip(self, corpus_path):
        cfg = quick_config(
            corpus_path,
            strategy="dbs_unigram",
            profile="low",
            seeds=(3, 4),
            n_paraphrases=3,
            decode=DecodeConfig(num_beams=6, num_groups=3, p_mask=0.4),
            paraphrase_cache=True,
        )
        assert RunConfig.from_text(cfg.to_text()) == cfg

    def test_mapping_overrides_base(self, corpus_path):
        base = quick_config(corpus_path)
        merged = dataclass_from_kv(
            RunConfig, {**dataclass_to_kv(base), "strategy": "dbs", "decode.p_mask": "0.3", "seeds": "7,8"}
        )
        assert merged.strategy == "dbs"
        assert merged.decode.p_mask == 0.3
        assert merged.seeds == (7, 8)
        assert merged.dataset_path == base.dataset_path

    def test_validation(self, corpus_path):
        with pytest.raises(ValueError):
            quick_config(corpus_path, n_way=1)
        with pytest.raises(ValueError):
            quick_config(corpus_path, strategy="bogus")
        with pytest.raises(ValueError):
            quick_config(corpus_path, max_episodes=5, eval_every=10)
        with pytest.raises(ValueError):
            quick_config(corpus_path, seeds=())
        with pytest.raises(ValueError):
            dataclass_from_kv(RunConfig, {"unknown_key": "1", "dataset_path": corpus_path})

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(eval_every=0),
            dict(n_eval_episodes=0),
            dict(query_per_class=0),
            dict(strategy="stub_bt", n_unlabeled=0),
            dict(strategy="stub_bt", n_paraphrases=0),
            dict(strategy="dbs_unigram", n_paraphrases=5, decode=DecodeConfig(num_beams=6, num_groups=3)),
            dict(strategy="dbs", n_paraphrases=3),
            dict(learning_rate=-1.0),
            dict(learning_rate=0.0),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(output_dim=0),
            dict(embed_dim=0),
            dict(anneal_alpha=0.0),
            dict(anneal_alpha=float("nan")),
            dict(anneal_alpha=float("inf")),
            dict(low_profile_n=0),
            dict(profile="low", k_shot=3, query_per_class=8, low_profile_n=10),
            dict(seeds=(0, -1)),
            dict(seeds=(0, 1, 0)),
            dict(split_ratios=(0.5, 0.5, 0.5)),
            dict(split_ratios=(0.6, 0.6, -0.2)),
            dict(split_ratios=(float("nan"), 0.5, 0.5)),
        ],
        ids=["eval_every", "n_eval_episodes", "query_per_class", "n_unlabeled",
             "n_paraphrases", "dbs_unigram_groups", "dbs_groups", "learning_rate_negative",
             "learning_rate_zero", "learning_rate_nan", "learning_rate_inf", "output_dim",
             "embed_dim", "anneal_alpha_zero", "anneal_alpha_nan", "anneal_alpha_inf",
             "low_profile_n", "low_profile_too_few_rows", "seed_negative", "seed_repeated",
             "split_ratios_sum", "split_ratios_negative", "split_ratios_nan"],
    )
    def test_invalid_config_fails_when_built(self, corpus_path, overrides):
        with pytest.raises(ValueError):
            quick_config(corpus_path, **overrides)

    @pytest.mark.parametrize("text, message", [
        ("n_way=5\nn_way=7\n", "line 2: 'n_way' is already set on line 1"),
        # comment and blank lines count
        ("dataset_path=d\n# decode\n\ndecode.p_mask=0.3\ndecode.p_mask = 0.4\n",
         "line 5: 'decode.p_mask' is already set on line 4"),
    ], ids=["plain", "nested-after-a-comment"])
    def test_key_set_twice_refused(self, text, message):
        # the last value was once kept without a word
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig.from_text(text)

    @pytest.mark.parametrize("line, message", [
        ("n_way=five", "n_way must be an integer, got 'five'"),
        ("anneal_alpha=1,0", "anneal_alpha must be a number, got '1,0'"),
        ("seeds=0,a", "seeds must be comma-separated integers, got '0,a'"),
        ("split_ratios=0.5,0.5", "split_ratios must be 3 comma-separated numbers, got '0.5,0.5'"),
        ("paraphrase_cache=maybe", "paraphrase_cache must be a boolean (true or false), got 'maybe'"),
        ("decode.max_len=long", "decode.max_len must be an integer, got 'long'"),
        # empty items were once dropped, reading these as (0, 1) and as three numbers
        ("seeds=0,,1", "seeds must be comma-separated integers, got '0,,1'"),
        ("split_ratios=0.5,,0.25,0.25,", "split_ratios must be 3 comma-separated numbers, got '0.5,,0.25,0.25,'"),
    ], ids=["n_way", "anneal_alpha", "seeds", "split_ratios", "paraphrase_cache", "decode.max_len",
            "seeds_empty_item", "split_ratios_empty_items"])
    def test_unparsable_value_names_its_key_and_kind(self, line, message):
        # these once failed with Python's own message, such as "invalid
        # literal for int() with base 10: 'five'", which named no key
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig.from_text(f"dataset_path=d\n{line}\n")

    def test_dataset_path_required(self):
        with pytest.raises(ValueError, match="dataset_path"):
            dataclass_from_kv(RunConfig, {"n_way": "5"})

    def test_negative_seed_named_when_built(self, corpus_path):
        with pytest.raises(ValueError, match=r"^seeds must be one or more integers >= 0, got \(0, -1\)$"):
            quick_config(corpus_path, seeds=(0, -1))

    def test_low_profile_needs_an_episode_of_rows_per_class(self, corpus_path):
        # a low-profile training class keeps low_profile_n rows, and an
        # episode draws k_shot + query_per_class of them
        with pytest.raises(ValueError, match="low_profile_n=10 rows, fewer than k_shot \\+ query_per_class=11"):
            quick_config(corpus_path, profile="low", k_shot=1, query_per_class=10)
        cfg = quick_config(corpus_path, profile="low", k_shot=1, query_per_class=9, max_episodes=10)
        result, _, _ = train_single_seed(cfg, 0, load_dataset(corpus_path))
        assert result.episodes_run == 10

    def test_protocol_defaults(self, corpus_path):
        cfg = RunConfig(dataset_path=corpus_path)
        assert cfg.n_way == 5
        assert cfg.n_unlabeled == 5
        assert cfg.n_paraphrases == 5
        assert cfg.max_episodes == 10_000
        assert cfg.eval_every == 100
        assert cfg.patience == 20
        assert cfg.n_eval_episodes == 600
        assert len(cfg.seeds) == 5
        assert cfg.low_profile_n == 10
        assert cfg.decode.num_beams == 15
        assert cfg.decode.num_groups == 5
        assert cfg.decode.diversity_penalty == 0.5
        assert cfg.decode.p_mask == 0.7
        assert cfg.decode.curve == "flat"


def rejects(build) -> bool:
    try:
        build()
    except ValueError:
        return True
    return False


def decode_one(strategy, n, num_groups):
    corpus = ["play the music now", "check my balance please", "book a flight"]
    lm = SynonymBigramLM(corpus, default_synonym_table())
    config = DecodeConfig(num_beams=2 * num_groups, num_groups=num_groups)
    generate_paraphrase_batch(lm, [corpus[0]], n, strategy, config, np.random.default_rng(0))


INF, NAN = float("inf"), float("nan")
FLOATS = [-INF, -1.0, -0.0, 0.0, 5e-324, 1e-3, 1.0, 7.5, 1e308, INF, NAN]
# setting: (the check of the code that uses it, its RunConfig fields, values)
SHARED_RULES = {
    "anneal_alpha": (lambda a: AnnealSchedule(alpha=a), lambda a: dict(anneal_alpha=a), FLOATS),
    "learning_rate": (lambda lr: AdamState(learning_rate=lr), lambda lr: dict(learning_rate=lr), FLOATS),
    "split_ratios": (
        lambda r: data.check_split_ratios(r),
        lambda r: dict(split_ratios=r),
        [(0.5, 0.25, 0.25), (1 / 3, 1 / 3, 1 / 3), (0.98, 0.01, 0.01), (0.5, 0.5, 0.0),
         (0.6, 0.6, -0.2), (0.5, 0.5, 0.5), (NAN, 0.5, 0.5), (INF, -INF, 1.0), (0.5, 0.5), (0.25,) * 4],
    ),
    "seeds": (
        lambda seeds: [np.random.SeedSequence(s) for s in seeds],
        lambda seeds: dict(seeds=seeds),
        [(0,), (0, 1), (2**32 - 1,), (2**64,), (-1,), (0, -1), (-(2**40), 3)],
    ),
    "episode_shape": (
        lambda shape: data.check_episode_shape(*shape),
        lambda shape: dict(zip(("n_way", "k_shot", "query_per_class"), shape)),
        list(itertools.product((-1, 0, 1, 2, 3), (-1, 0, 1, 2), (-1, 0, 1, 3))),
    ),
    "dbs_paraphrase_count": (
        lambda v: decode_one(*v),
        lambda v: dict(strategy=v[0], n_paraphrases=v[1], decode=DecodeConfig(num_beams=2 * v[2], num_groups=v[2])),
        list(itertools.product(STRATEGIES, (-1, 0, 1, 3, 5), (1, 3, 5))),
    ),
}


class TestOneCheckPerSetting:
    @pytest.mark.parametrize("setting", sorted(SHARED_RULES))
    def test_config_rejects_exactly_what_the_user_of_the_value_rejects(self, corpus_path, setting):
        # a restated copy of a rule drifts: RunConfig once took anneal_alpha=inf
        # and negative seeds, which training then failed on mid-run
        owner, overrides, values = SHARED_RULES[setting]
        drifted = [
            value for value in values
            if rejects(lambda: owner(value)) != rejects(lambda: quick_config(corpus_path, **overrides(value)))
        ]
        assert drifted == []


class TestEarlyStopping:
    def test_constant_accuracy_stops_after_patience_plus_one(self, tmp_path):
        # every class shares one text, so every query lands on class index 0
        # and accuracy is exactly 1/C at every evaluation
        rows = [("same text here", f"c{i}") for i in range(8) for _ in range(10)]
        path = tmp_path / "flat.jsonl"
        with open(path, "w") as handle:
            for text, label in rows:
                handle.write(json.dumps({"text": text, "label": label}) + "\n")
        ds = load_dataset(path)
        cfg = RunConfig(
            dataset_path=str(path), n_way=2, k_shot=1, query_per_class=2,
            max_episodes=100, eval_every=5, patience=1, n_eval_episodes=4,
            seeds=(0,), embed_dim=4, output_dim=4,
        )
        result, _, _ = train_single_seed(cfg, 0, ds)
        assert result.n_evaluations == 2
        assert result.stopped_early
        assert result.episodes_run == 10
        assert result.best_eval_index == 1

    def test_short_final_block_is_validated(self, corpus_path):
        cfg = quick_config(corpus_path, max_episodes=25, eval_every=10, patience=10)
        result, _, _ = train_single_seed(cfg, 0, load_dataset(corpus_path))
        assert result.episodes_run == 25 and not result.stopped_early
        assert result.n_evaluations == 3
        assert [step for step, _ in result.val_curve] == [10, 20, 25]

    def test_patience_counts_only_non_improvements(self, corpus_path):
        ds = load_dataset(corpus_path)
        cfg = quick_config(corpus_path, max_episodes=200, eval_every=10, patience=3)
        result, _, _ = train_single_seed(cfg, 0, ds)
        if result.stopped_early:
            # stopping at the first eval where evals-since-best hits patience
            assert result.n_evaluations == result.best_eval_index + 3
        else:
            assert result.episodes_run == 200

    def test_reported_accuracy_is_best_checkpoint(self, corpus_path):
        ds = load_dataset(corpus_path)
        cfg = quick_config(corpus_path, max_episodes=40, eval_every=10, patience=4)
        result, best_params, vocab = train_single_seed(cfg, 0, ds)
        split = split_classes(ds, cfg.split_ratios, seed=0)
        rng_test = _rngs(0, 5)[3]
        source = EpisodeSource(ds, split, TEST, cfg.n_way, cfg.k_shot, cfg.query_per_class)
        replay = evaluate(
            best_params, TokenRows.from_texts(ds.texts(), vocab), source, cfg.n_eval_episodes, rng_test, cfg.distance
        )
        assert result.test_accuracy == replay.mean_accuracy
        best_val = max(acc for _, acc in result.val_curve)
        assert result.best_val_accuracy == best_val


class TestRunExperiment:
    def test_aggregates_mean_and_std(self, corpus_path):
        cfg = quick_config(corpus_path, seeds=(0, 1))
        report = run_experiment(cfg)
        accs = report.seed_accuracies
        assert len(accs) == 2
        assert report.mean_accuracy == pytest.approx(np.mean(accs))
        assert report.std_accuracy == pytest.approx(np.std(accs))

    def test_two_seed_hand_stats(self):
        results = [
            SeedResult(seed=s, test_accuracy=acc, best_val_accuracy=acc,
                       best_eval_index=1, episodes_run=1, n_evaluations=1,
                       eval_episode_count=1, stopped_early=False,
                       loss_curve=[], val_curve=[])
            for s, acc in ((0, 0.8), (1, 0.9))
        ]
        report = RunReport(method="none", profile="full", n_way=5, k_shot=1,
                           seed_results=results)
        assert report.mean_accuracy == pytest.approx(0.85)
        assert report.std_accuracy == pytest.approx(0.05)

    def test_byte_identical_reports_across_runs(self, corpus_path):
        cfg = quick_config(corpus_path, strategy="stub_bt", seeds=(0,), max_episodes=20)
        a = run_experiment(cfg).to_json()
        b = run_experiment(cfg).to_json()
        assert a.encode() == b.encode()

    def test_checkpoints_written(self, corpus_path, tmp_path):
        cfg = quick_config(corpus_path, seeds=(0, 1))
        run_experiment(cfg, checkpoint_dir=tmp_path)
        assert (tmp_path / "seed0_best.npz").exists()
        assert (tmp_path / "seed1_best.npz").exists()

    def test_checkpoints_record_their_run(self, corpus_path, tmp_path):
        from paraproto.encoder import load_checkpoint

        cfg = quick_config(corpus_path, seeds=(2, 1), distance=numerics.COSINE, max_episodes=10)
        run_experiment(cfg, checkpoint_dir=tmp_path)
        dataset = load_dataset(corpus_path)
        for seed in cfg.seeds:
            path = tmp_path / f"seed{seed}_best.npz"
            _, _, run = load_checkpoint(path)
            with np.load(path, allow_pickle=False) as data:
                assert all(data[name].dtype.kind == "U" for name in run)
            split = split_classes(dataset, cfg.split_ratios, seed=seed, group_by_domain=cfg.group_by_domain)
            assert run == {
                "config": cfg.to_text(),
                "seed": str(seed),
                "dataset_sha256": dataset.digest(),
                "train_classes": sorted(split.train_classes),
                "valid_classes": sorted(split.valid_classes),
                "test_classes": sorted(split.test_classes),
            }
            assert RunConfig.from_text(run["config"]) == cfg

    def test_checkpoint_run_reads_back(self, corpus_path, tmp_path):
        from paraproto.experiment import load_run_checkpoint

        cfg = quick_config(corpus_path, seeds=(3,), max_episodes=10)
        run_experiment(cfg, checkpoint_dir=tmp_path)
        dataset = load_dataset(corpus_path)
        _, _, config, split = load_run_checkpoint(tmp_path / "seed3_best.npz", dataset)
        assert config == cfg
        assert split == split_classes(dataset, cfg.split_ratios, seed=3)

    @pytest.mark.parametrize("checkpoints", [False, True])
    def test_split_runs_once_per_seed(self, corpus_path, tmp_path, monkeypatch, checkpoints):
        # writing a checkpoint once split the seed's classes a second time
        import paraproto.experiment as experiment

        splits = record_calls(monkeypatch, experiment, "split_classes")
        run_experiment(quick_config(corpus_path, seeds=(2, 0), max_episodes=10),
                       checkpoint_dir=tmp_path if checkpoints else None)
        assert [kwargs["seed"] for _, kwargs in splits] == [2, 0]

    def test_pmask_sweep_loads_and_plans_once(self, corpus_path, monkeypatch):
        # the sweep once ran a whole experiment, load and splits included, per point
        import paraproto.experiment as experiment

        loads = record_calls(monkeypatch, experiment, "load_dataset")
        splits = record_calls(monkeypatch, experiment, "split_classes")
        cfg = quick_config(corpus_path, strategy="dbs_unigram", seeds=(1, 0), max_episodes=10,
                           n_eval_episodes=2, n_unlabeled=2)
        report = experiment.run_pmask_sweep(cfg)
        assert len(report.pmask_series) == len(PMASK_GRID)
        assert len(loads) == 1
        assert [kwargs["seed"] for _, kwargs in splits] == [1, 0]

    def test_dataset_errors_surface_before_training(self, tmp_path):
        cfg = RunConfig(dataset_path=str(tmp_path / "missing.jsonl"), seeds=(0,),
                        max_episodes=10, eval_every=10)
        with pytest.raises(FileNotFoundError):
            run_experiment(cfg)

    def test_loss_curve_and_log_line(self, corpus_path, caplog):
        cfg = quick_config(corpus_path, strategy="stub_bt", max_episodes=10, eval_every=10)
        with caplog.at_level(logging.DEBUG, logger="paraproto"):
            report = run_experiment(cfg)
        curve = report.seed_results[0].loss_curve
        assert len(curve) == report.seed_results[0].episodes_run
        lines = [m for m in caplog.messages if m.startswith("step=")]
        assert len(lines) == len(curve)
        step, sup, unsup, weight, total = curve[0]
        line = lines[0]
        assert line == f"step={step} sup={sup:.6f} unsup={unsup:.6f} weight={weight:.6f} total={total:.6f}"
        assert line.startswith("step=1 ")
        for field in ("sup=", "unsup=", "weight=", "total="):
            assert field in line


finite = st.floats(allow_nan=False, allow_infinity=False)
seed_results = st.builds(
    SeedResult,
    seed=st.integers(0, 2**32 - 1),
    test_accuracy=st.floats(0.0, 1.0),
    best_val_accuracy=st.floats(allow_nan=False),
    best_eval_index=st.integers(0, 100),
    episodes_run=st.integers(0, 10_000),
    n_evaluations=st.integers(0, 100),
    eval_episode_count=st.integers(1, 600),
    stopped_early=st.booleans(),
    loss_curve=st.lists(st.tuples(st.integers(1, 10_000), finite, finite, finite, finite),
                        max_size=5),
    val_curve=st.lists(st.tuples(st.integers(1, 10_000), st.floats(0.0, 1.0)), max_size=5),
)
run_reports = st.builds(
    RunReport,
    method=st.sampled_from(METHODS),
    profile=st.sampled_from(PROFILES),
    n_way=st.integers(2, 50),
    k_shot=st.integers(1, 20),
    seed_results=st.lists(seed_results, max_size=3),
    pmask_series=st.none() | st.lists(st.tuples(st.floats(0.0, 1.0), finite, finite), max_size=4),
)


class TestEmitReport:
    @given(run_reports)
    def test_report_json_round_trip_property(self, report):
        text = report.to_json()
        assert RunReport.from_json(text).to_json() == text
        assert RunReport.from_json(text) == report

    def _report(self):
        results = [
            SeedResult(seed=s, test_accuracy=acc, best_val_accuracy=acc,
                       best_eval_index=1, episodes_run=7, n_evaluations=2,
                       eval_episode_count=5, stopped_early=True,
                       loss_curve=[(1, 0.5, 0.0, 0.0, 0.5)], val_curve=[(5, acc)])
            for s, acc in ((0, 0.8125), (1, 0.9375))
        ]
        return RunReport(method="dbs", profile="low", n_way=5, k_shot=1,
                         seed_results=results)

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: [obj], r"^a report must be a JSON object, got list$"),
        (lambda obj: 3, r"^a report must be a JSON object, got int$"),
        (lambda obj: {k: v for k, v in obj.items() if k != "mean_accuracy"},
         r"^report is missing key 'mean_accuracy'$"),
        (lambda obj: {k: v for k, v in obj.items() if k != "seed_results"},
         r"^report is missing key 'seed_results'$"),
        (lambda obj: {**obj, "extra": 1}, r"^report has unknown key 'extra'$"),
        # reports written before `diversity` left RunReport
        (lambda obj: {**obj, "diversity": None}, r"^report has unknown key 'diversity'$"),
    ])
    def test_malformed_report_json_names_the_problem(self, edit, message):
        text = json.dumps(edit(json.loads(self._report().to_json())))
        with pytest.raises(ValueError, match=message):
            RunReport.from_json(text)

    def test_csv_round_trip_bit_exact(self, tmp_path):
        report = self._report()
        emit_report(report, tmp_path)
        rows = parse_results_csv(tmp_path / "results.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["method"] == "dbs" and row["profile"] == "low" and row["k_shot"] == 1
        assert row["seed_accuracies"] == report.seed_accuracies
        assert row["mean"] == report.mean_accuracy
        assert row["std"] == report.std_accuracy

    def test_report_json_round_trip(self, tmp_path):
        report = self._report()
        emit_report(report, tmp_path)
        loaded = RunReport.from_json((tmp_path / "report.json").read_text())
        assert loaded.to_json() == report.to_json()

    def test_pmask_series_written(self, tmp_path):
        report = self._report()
        report.pmask_series = [(p, 0.5 + 0.01 * i, 0.02) for i, p in enumerate(PMASK_GRID)]
        emit_report(report, tmp_path)
        lines = (tmp_path / "pmask_series.csv").read_text().strip().splitlines()
        assert lines[0] == "p_mask,mean_accuracy,std_accuracy"
        assert len(lines) == 12
        grid = [float(line.split(",")[0]) for line in lines[1:]]
        assert grid == [round(0.1 * i, 1) for i in range(11)]

    def test_unwritable_path_errors(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        with pytest.raises(OSError):
            emit_report(self._report(), target)


class TestLearnability:
    def test_separable_corpus_reaches_smoke_accuracy(self, tmp_path):
        # keyword-separable corpus (no synonym variation): the supervised
        # baseline must learn it almost perfectly within 2000 episodes
        path = generate_synthetic_dataset(
            tmp_path / "sep10.jsonl", n_classes=10, sentences_per_class=30,
            synonym_rate=0.0, seed=0,
        )
        ds = load_dataset(path)
        cfg = RunConfig(
            dataset_path=str(path), strategy="none", n_way=3, k_shot=1,
            query_per_class=5, max_episodes=2000, eval_every=100, patience=20,
            n_eval_episodes=100, seeds=(0,), split_ratios=(0.4, 0.3, 0.3),
        )
        result, _, _ = train_single_seed(cfg, 0, ds)
        assert result.best_val_accuracy >= 0.95
        assert result.test_accuracy > 0.9

    def test_heldout_consistency_loss_decreases(self, tmp_path):
        # the unsupervised loss on held-out unlabeled batches goes down over
        # training, checked across 5 seeds
        from paraproto.consistency import unsupervised_loss
        from paraproto.data import sample_episode
        from paraproto.decoding import SynonymBigramLM, generate_paraphrases
        from paraproto.encoder import EncoderParams, Vocabulary
        from paraproto.synth import default_synonym_table

        path = generate_synthetic_dataset(
            tmp_path / "synth20.jsonl", 20, 30, synonym_rate=0.5, seed=0
        )
        ds = load_dataset(path)
        lm = SynonymBigramLM(ds.texts(), default_synonym_table())
        decode = DecodeConfig(num_beams=6, num_groups=3)
        vocab = Vocabulary.from_texts(ds.texts())
        deltas = []
        for seed in range(5):
            split = split_classes(ds, (0.5, 0.25, 0.25), seed=seed)
            held_rng = np.random.default_rng(500 + seed)
            batches = []
            for _ in range(3):
                _, unlabeled = sample_episode(ds, split, "train", 2, 1, 1, 4, held_rng)
                sentences = unlabeled_texts(ds, unlabeled[0])
                paras = [
                    generate_paraphrases(lm, s, 3, "dbs", decode, held_rng)
                    for s in sentences
                ]
                batches.append((sentences, paras))
            cfg = RunConfig(
                dataset_path=str(path), strategy="dbs", n_way=5, k_shot=1,
                query_per_class=5, n_unlabeled=5, n_paraphrases=3, decode=decode,
                max_episodes=200, eval_every=100, patience=20, n_eval_episodes=20,
                seeds=(seed,), paraphrase_cache=True,
            )
            init_params = EncoderParams.init(len(vocab), 32, 32, _rngs(seed, 5)[0])
            before = np.mean(
                [unsupervised_loss(*text_batch(*b, vocab), init_params)[0] for b in batches]
            )
            _, trained, trained_vocab = train_single_seed(cfg, seed, ds)
            after = np.mean(
                [unsupervised_loss(*text_batch(*b, trained_vocab), trained)[0] for b in batches]
            )
            deltas.append(after - before)
        assert np.mean(deltas) < 0.0


class TestDiversityByStrategy:
    def test_summary_fields(self, corpus_path):
        ds = load_dataset(corpus_path)
        summary = diversity_by_strategy(
            ds, strategies=("stub_bt", "dbs_unigram"), n_sentences=6,
            decode=DecodeConfig(num_beams=6, num_groups=3), seed=0,
        )
        assert set(summary) == {"stub_bt", "dbs_unigram"}
        for fields in summary.values():
            assert set(fields) == {"dist2", "bleu_vs_source", "mean_pairwise_similarity"}
            assert 0.0 < fields["dist2"] <= 1.0

    def test_deterministic(self, corpus_path):
        ds = load_dataset(corpus_path)
        kwargs = dict(strategies=("stub_bt",), n_sentences=4, seed=3)
        assert diversity_by_strategy(ds, **kwargs) == diversity_by_strategy(ds, **kwargs)

    @pytest.mark.parametrize("strategies, decode, message", [
        (("dbs", "stub_bt", "zzz"), None, "unknown strategy 'zzz'"),
        ((), None, "no strategy given"),
        (("dbs", "dbs"), None, "strategies must be distinct"),
        (("stub_bt", "dbs", "stub_bt"), None, "strategies must be distinct"),
        (("dbs",), DecodeConfig(num_beams=3, num_groups=1), "need at least 2 paraphrases"),
    ])
    def test_strategies_checked_before_any_decode(self, corpus_path, monkeypatch, strategies, decode, message):
        import paraproto.experiment as experiment

        built, decoded = [], []
        monkeypatch.setattr(experiment, "SynonymBigramLM", lambda *args: built.append(args))
        monkeypatch.setattr(experiment, "generate_paraphrase_batch", lambda *args: decoded.append(args))
        with pytest.raises(ValueError, match=message):
            diversity_by_strategy(load_dataset(corpus_path), strategies=strategies, n_sentences=4, decode=decode)
        assert built == [] and decoded == []

    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_sentence_rejected(self, corpus_path, n):
        with pytest.raises(ValueError, match=rf"^n_sentences must be >= 1, got {n}$"):
            diversity_by_strategy(load_dataset(corpus_path), strategies=("stub_bt",), n_sentences=n)


class TestTokenizeOncePerRun:
    """Tokenization is per run, not per episode: a deterministic count, so
    the guard can sit in tier-1 where a timing could not."""

    def _tokenize_calls(self, monkeypatch, config, dataset):
        import sys

        import paraproto.encoder

        original = paraproto.encoder.tokenize
        calls = []

        def counting(text):
            calls.append(text)
            return original(text)

        for name, module in list(sys.modules.items()):
            if name == "paraproto" or name.startswith("paraproto."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
        try:
            train_single_seed(config, 0, dataset)
        finally:
            monkeypatch.undo()
        return len(calls)

    def test_count_does_not_grow_with_episodes(self, monkeypatch, corpus_path):
        ds = load_dataset(corpus_path)
        counts = [
            self._tokenize_calls(monkeypatch, RunConfig(
                dataset_path=corpus_path, profile="low", strategy="none", n_way=3,
                query_per_class=3, max_episodes=episodes, eval_every=25, patience=10, n_eval_episodes=20,
                seeds=(0,),
            ), ds)
            for episodes in (50, 100)
        ]
        assert counts[0] > 0
        assert counts[0] == counts[1]


class TestBlockDecoding:
    """Training decodes a block's paraphrase misses in one batch call: with
    the cache, or under a strategy that draws nothing from the rng, each text
    once per run, keyed by the text itself; otherwise (dbs_unigram, cache
    off) every drawn row."""

    def _batches(self, monkeypatch, dataset, cache, strategy="dbs"):
        import paraproto.experiment as experiment

        original, batches = experiment.generate_paraphrase_batch, []

        def recording(lm, sentences, *args):
            batches.append(list(sentences))
            return original(lm, sentences, *args)

        monkeypatch.setattr(experiment, "generate_paraphrase_batch", recording)
        cfg = quick_config(
            "unused", strategy=strategy, n_paraphrases=3, n_unlabeled=4,
            decode=DecodeConfig(num_beams=6, num_groups=3), paraphrase_cache=cache,
        )
        return batches, train_single_seed(cfg, 0, dataset)[0]

    def test_cache_decodes_each_text_once(self, monkeypatch, corpus_path):
        from paraproto.data import Dataset

        ds = load_dataset(corpus_path)
        doubled = Dataset(ds.records + ds.records)  # every text on two rows
        batches, _ = self._batches(monkeypatch, doubled, cache=True)
        assert len(batches) == 3  # one per block of eval_every episodes
        texts = [text for batch in batches for text in batch]
        assert len(texts) == len(set(texts))

    @pytest.mark.parametrize("strategy", [s for s in STRATEGIES if s not in RNG_STRATEGIES])
    def test_strategy_without_rng_decodes_each_text_once_cache_off(self, monkeypatch, corpus_path, strategy):
        # its paraphrases are the same at every draw, so cache off decodes
        # each text once, as cache on does, and trains exactly as it does
        from paraproto.data import Dataset

        ds = load_dataset(corpus_path)
        doubled = Dataset(ds.records + ds.records)  # every text on two rows
        draws = record_train_draws(monkeypatch)
        batches, result = self._batches(monkeypatch, doubled, False, strategy)
        drawn = [doubled.records[row][0] for _, u in draws for row in u.ravel().tolist()]
        assert [text for batch in batches for text in batch] == list(dict.fromkeys(drawn))
        assert len(drawn) > len(set(drawn))  # some text was drawn twice
        assert result == self._batches(monkeypatch, doubled, True, strategy)[1]

    def test_no_cache_decodes_every_drawn_row(self, monkeypatch, corpus_path):
        batches, _ = self._batches(monkeypatch, load_dataset(corpus_path), False, "dbs_unigram")
        assert [len(batch) for batch in batches] == [10 * 4] * 3

    @pytest.mark.parametrize("cache", [True, False])
    def test_duplicate_texts_at_different_rows(self, monkeypatch, corpus_path, cache):
        # with the cache, a text drawn at two rows is decoded once, when it is
        # first drawn, and every row holding it trains on that one decode;
        # under dbs_unigram without it, every drawn row is decoded, duplicates
        # included
        import paraproto.experiment as experiment
        from paraproto.data import Dataset

        ds = load_dataset(corpus_path)
        doubled = Dataset(ds.records + ds.records)  # every text on two rows
        draws = record_train_draws(monkeypatch)
        steps = record_calls(monkeypatch, experiment, "combined_training_step")
        batches, _ = self._batches(monkeypatch, doubled, cache, "dbs" if cache else "dbs_unigram")

        rows = np.concatenate([u for _, u in draws]).ravel().tolist()
        drawn = [doubled.records[row][0] for row in rows]
        assert len(set(rows)) > len(set(drawn))  # some text was drawn at two different rows
        assert [text for batch in batches for text in batch] == (list(dict.fromkeys(drawn)) if cache else drawn)
        used = [(p.ids.tolist(), p.counts.tolist()) for args, _ in steps for p in step_paraphrases(args)]
        assert len(used) == len(drawn)
        if cache:
            first = {}
            assert all(first.setdefault(text, p) == p for text, p in zip(drawn, used))


class TestBlockGather:
    """Training gathers a block's token rows, and its unlabeled rows, in one
    `TokenRows.take` each; every step still gets its own episode's rows."""

    @pytest.mark.parametrize("strategy", ["none", "dbs"])
    def test_step_rows_equal_per_episode_take(self, monkeypatch, corpus_path, strategy):
        import paraproto.experiment as experiment
        from paraproto.encoder import Vocabulary

        draws = record_train_draws(monkeypatch)
        calls = record_calls(monkeypatch, experiment, "combined_training_step")
        # the last block of 5 episodes is shorter than the others
        cfg = quick_config(corpus_path, strategy=strategy, max_episodes=25, n_paraphrases=3, n_unlabeled=2,
                           decode=DecodeConfig(num_beams=6, num_groups=3))
        ds = load_dataset(corpus_path)
        train_single_seed(cfg, 0, ds)

        # the vocabulary is the pool's texts, in pool order; the token rows are every loaded record
        pool = experiment.plan_seed(cfg, ds, 0).train.pool
        corpus = TokenRows.from_texts(ds.texts(), Vocabulary.from_texts([ds.records[row][0] for row in pool]))
        rows = np.concatenate([r for r, _ in draws])
        unlabeled = np.concatenate([u for _, u in draws])
        assert [len(r) for r, _ in draws] == [10, 10, 5] and len(calls) == 25
        for i, (args, _) in enumerate(calls):
            assert (args[3] is None) == (strategy == "none")
            got = [args[0]] + ([] if strategy == "none" else [args[3].take(np.arange(args[4]))])
            expected = [corpus.take(rows[i])] + ([] if strategy == "none" else [corpus.take(unlabeled[i])])
            for tokens, oracle in zip(got, expected, strict=True):
                np.testing.assert_array_equal(tokens.ids, oracle.ids)
                np.testing.assert_array_equal(tokens.counts, oracle.counts)

    @pytest.mark.parametrize("cache", [True, False], ids=["cache_on", "cache_off"])
    def test_unlabeled_rows_equal_per_step_concat(self, monkeypatch, corpus_path, cache):
        # each step's unlabeled rows are the rows one concat per step built:
        # its sentences' ids, then each sentence's decoded paraphrase ids
        import paraproto.experiment as experiment
        from paraproto.encoder import Vocabulary

        draws = record_train_draws(monkeypatch)
        calls = record_calls(monkeypatch, experiment, "combined_training_step")
        original, decodes = experiment.generate_paraphrase_batch, []

        def recording(lm, sources, *args):
            decodes.append((list(sources), original(lm, sources, *args)))
            return decodes[-1][1]

        monkeypatch.setattr(experiment, "generate_paraphrase_batch", recording)
        # dbs_unigram, whose decode draws from the rng, so cache off decodes every drawn row
        cfg = quick_config(corpus_path, strategy="dbs_unigram", max_episodes=25, n_paraphrases=3, n_unlabeled=2,
                           decode=DecodeConfig(num_beams=6, num_groups=3), paraphrase_cache=cache)
        ds = load_dataset(corpus_path)
        train_single_seed(cfg, 0, ds)

        vocab = Vocabulary.from_texts([ds.records[row][0] for row in experiment.plan_seed(cfg, ds, 0).train.pool])
        corpus = TokenRows.from_texts(ds.texts(), vocab)
        unlabeled = np.concatenate([u for _, u in draws])
        drawn = [ds.records[row][0] for row in unlabeled.ravel().tolist()]
        decoded = [(text, generated) for sources, outputs in decodes for text, generated in zip(sources, outputs)]
        by_text = dict(decoded)
        per_row = [by_text[text] for text in drawn] if cache else [generated for _, generated in decoded]
        assert len(calls) == 25 and len(per_row) == len(drawn) == 25 * 2
        for i, (args, _) in enumerate(calls):
            oracle = TokenRows.concat(
                [corpus.take(unlabeled[i]), *[TokenRows.from_texts(g, vocab) for g in per_row[2 * i : 2 * i + 2]]]
            )
            assert args[4] == 2
            np.testing.assert_array_equal(args[3].ids, oracle.ids)
            np.testing.assert_array_equal(args[3].counts, oracle.counts)


class TestPlanSeed:
    """One row numbering per seed: all three sources are over the loaded
    dataset, and the low profile is the train source's pool."""

    @pytest.mark.parametrize("profile", PROFILES)
    def test_sources_hold_the_loaded_dataset_and_the_profile_pool(self, corpus_path, profile):
        ds = load_dataset(corpus_path)
        cfg = quick_config(corpus_path, profile=profile, seeds=(4,))
        plan = plan_seed(cfg, ds, 4)
        assert plan.train.dataset is ds and plan.valid.dataset is ds and plan.test.dataset is ds
        every_row = np.arange(len(ds))
        if profile == "low":
            split = split_classes(ds, cfg.split_ratios, seed=4)
            np.testing.assert_array_equal(plan.train.pool, restrict_low_profile(ds, split, cfg.low_profile_n, 4))
            assert len(plan.train.pool) < len(ds)  # 6 training classes of 14 rows keep 10 each
        else:
            np.testing.assert_array_equal(plan.train.pool, every_row)
        for source in (plan.valid, plan.test):
            np.testing.assert_array_equal(source.pool, every_row)

    def test_low_profile_trains_on_pool_rows_only(self, monkeypatch, corpus_path):
        import paraproto.experiment as experiment
        from paraproto.encoder import Vocabulary

        draws = record_train_draws(monkeypatch)
        batches = record_calls(monkeypatch, experiment, "generate_paraphrase_batch")
        ds = load_dataset(corpus_path)
        cfg = quick_config(corpus_path, profile="low", strategy="dbs", n_paraphrases=3, n_unlabeled=4,
                           decode=DecodeConfig(num_beams=6, num_groups=3))
        _, _, vocab = train_single_seed(cfg, 0, ds)

        pool = plan_seed(cfg, ds, 0).train.pool
        rows = np.concatenate([r for r, _ in draws])
        unlabeled = np.concatenate([u for _, u in draws])
        assert rows.shape == (30, 3 * 4) and unlabeled.shape == (30, 4)
        assert np.isin(rows, pool).all() and np.isin(unlabeled, pool).all()
        # the decoded texts are the drawn rows' texts, each once (dbs draws nothing from the rng)
        drawn = [ds.records[row][0] for row in unlabeled.ravel()]
        assert [text for args, _ in batches for text in args[1]] == list(dict.fromkeys(drawn))
        assert vocab.tokens == Vocabulary.from_texts([ds.records[row][0] for row in pool]).tokens

    @pytest.mark.parametrize("profile", PROFILES)
    def test_token_rows_tokenize_drawable_rows_only(self, monkeypatch, corpus_path, profile):
        # evaluate gets one token row per loaded record; a row the low profile
        # drops, which no source draws, is an empty row (a lone UNK)
        import paraproto.experiment as experiment
        from paraproto.encoder import Vocabulary

        evaluations = record_calls(monkeypatch, experiment, "evaluate")
        ds = load_dataset(corpus_path)
        cfg = quick_config(corpus_path, profile=profile)
        train_single_seed(cfg, 0, ds)

        pool = set(plan_seed(cfg, ds, 0).train.pool.tolist())
        assert (len(pool) < len(ds)) == (profile == "low")
        vocab = Vocabulary.from_texts([ds.records[row][0] for row in sorted(pool)])
        texts = [text if row in pool else "" for row, (text, _) in enumerate(ds.records)]
        expected = TokenRows.from_texts(texts, vocab)
        assert len(evaluations) == 4  # three validations and the test
        for args, _ in evaluations:
            np.testing.assert_array_equal(args[1].ids, expected.ids)
            np.testing.assert_array_equal(args[1].counts, expected.counts)
