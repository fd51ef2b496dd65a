"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them inline).

The heavyweight training comparisons share module-scoped fixtures, so the
whole suite stays well under its runtime budgets on one CPU core.
"""

import functools
import json
import time

import numpy as np
import pytest

from gradcheck import finite_difference_gradient, gradient_check
from lmstub import RandomLM, decode_one, enumerate_sequences
from paraproto.cli import main
from paraproto.consistency import AnnealSchedule, anneal_weight, unsupervised_loss
from paraproto.data import load_dataset
from paraproto.decoding import (
    ConstraintSet,
    DecodeConfig,
    SynonymBigramLM,
    build_bigram_constraints,
    build_unigram_constraints,
    generate_paraphrases,
)
from paraproto.encoder import EncoderParams, TokenRows, Vocabulary
from paraproto.experiment import (
    RunConfig,
    diversity_by_strategy,
    emit_report,
    plan_seed,
    run_experiment,
    train_single_seed,
    _rngs,
)
from paraproto.protonet import evaluate, supervised_episode_loss
from paraproto.synth import default_synonym_table, generate_synthetic_dataset
from rowstub import episode_tokens, text_batch


def criterion(label):
    """Print one PASS/FAIL line per acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {label}: FAIL")
                raise
            print(f"\nACCEPTANCE {label}: PASS")
            return result

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "synth20.jsonl"
    generate_synthetic_dataset(path, n_classes=20, sentences_per_class=30,
                               synonym_rate=0.5, seed=0)
    return str(path)


@pytest.fixture(scope="module")
def corpus(corpus_path):
    return load_dataset(corpus_path)


def low_profile_config(corpus_path, strategy, alpha=1.0, seeds=(0, 1, 2, 3, 4)):
    """The protocol used for the training-comparison criteria: paper defaults
    except for a denser evaluation grid sized to the desk-scale corpus."""
    return RunConfig(
        dataset_path=corpus_path,
        profile="low",
        n_way=5,
        k_shot=1,
        query_per_class=5,
        n_unlabeled=5,
        n_paraphrases=5,
        strategy=strategy,
        anneal_alpha=alpha,
        max_episodes=10_000,
        eval_every=50,
        patience=8,
        n_eval_episodes=200,
        seeds=seeds,
        paraphrase_cache=True,
    )


@pytest.fixture(scope="module")
def strategy_reports(corpus_path):
    """Seed-matched runs of the baseline and the three paraphrase strategies."""
    reports = {}
    for strategy in ("none", "stub_bt", "dbs", "dbs_unigram"):
        reports[strategy] = run_experiment(low_profile_config(corpus_path, strategy))
    return reports


def _random_episode_and_batch(rng):
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
             "golf", "hotel", "india", "juliett"]

    def sentence():
        n = rng.integers(2, 5)
        return " ".join(words[i] for i in rng.integers(0, len(words), size=n))

    n_way = int(rng.integers(2, 6))
    k_shot = int(rng.integers(1, 3))
    n_unlabeled = int(rng.integers(2, 6))
    n_para = int(rng.integers(1, 4))
    classes = [f"c{i}" for i in range(n_way)]
    support = [(sentence(), c) for c in classes for _ in range(k_shot)]
    query = [(sentence(), c) for c in classes for _ in range(2)]
    sentences = [sentence() for _ in range(n_unlabeled)]
    paraphrases = [[sentence() for _ in range(n_para)] for _ in range(n_unlabeled)]
    texts = [t for t, _ in support + query] + sentences
    texts += [p for row in paraphrases for p in row]
    vocab = Vocabulary.from_texts(texts)
    d_emb = int(rng.integers(3, 9))
    d_out = int(rng.integers(3, 9))
    params = EncoderParams.init(len(vocab), d_emb, d_out, rng)
    # the arguments supervised_episode_loss takes after the parameters
    episode = (episode_tokens(support, query, vocab), n_way, k_shot)
    return episode, text_batch(sentences, paraphrases, vocab), params


@criterion("1 gradient-correctness")
def test_criterion_1_gradients_match_finite_differences():
    started = time.monotonic()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        episode, batch, params = _random_episode_and_batch(rng)
        flat0 = params.vector

        def sup_loss(flat):
            return supervised_episode_loss(params.with_flat(flat), *episode)[0]

        def unsup_loss_fn(flat):
            return unsupervised_loss(*batch, params.with_flat(flat))[0]

        _, sup_grads = supervised_episode_loss(params, *episode)
        _, unsup_grads = unsupervised_loss(*batch, params)

        schedule = AnnealSchedule(alpha=float(rng.choice([0.25, 1.0, 4.0])), total_steps=7)
        step = int(rng.integers(0, 8))
        weight = anneal_weight(step, schedule)

        def combined_loss(flat):
            return weight * unsup_loss_fn(flat) + (1.0 - weight) * sup_loss(flat)

        combined_grads = weight * unsup_grads.vector + (1.0 - weight) * sup_grads.vector

        checks = [
            (sup_grads.vector, finite_difference_gradient(sup_loss, flat0, eps=1e-5)),
            (unsup_grads.vector, finite_difference_gradient(unsup_loss_fn, flat0, eps=1e-5)),
            (combined_grads, finite_difference_gradient(combined_loss, flat0, eps=1e-5)),
        ]
        for analytic, numeric in checks:
            report = gradient_check(analytic, numeric)
            worst = max(worst, report.max_relative_error)
            assert report.max_relative_error < 1e-4
    elapsed = time.monotonic() - started
    print(f"\n  50 episodes x 3 losses, worst relative error {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 60.0


@criterion("2 decoder-oracle-equivalence")
def test_criterion_2_beam_search_matches_enumeration():
    started = time.monotonic()
    for seed in range(10):
        lm = RandomLM(("a", "b", "c", "d"), seed=seed, eos_weight=0.5)
        source = ["b", "d"]
        width = len(lm.vocab) ** 3
        beams = decode_one(lm, source, width, 1, 0.0, max_len=3)[0]
        oracle = enumerate_sequences(lm, source, 3, ConstraintSet())
        assert beams[0].tokens == oracle[0][1]
        assert beams[0].score == pytest.approx(oracle[0][0], rel=1e-12)

    for seed in range(5):
        lm = RandomLM(("x", "y", "z"), seed=100 + seed, eos_weight=0.4)
        # a lone group has no earlier group to be penalized against
        groups = decode_one(
            lm, ["x"], num_beams=6, num_groups=1, diversity_penalty=0.7, max_len=4
        )
        plain = decode_one(lm, ["x"], 6, 1, 0.0, max_len=4)[0]
        assert [b.tokens for b in groups[0]] == [b.tokens for b in plain]
        assert [b.score for b in groups[0]] == pytest.approx([b.score for b in plain])
    assert time.monotonic() - started < 30.0


@criterion("3 constraint-soundness")
def test_criterion_3_no_banned_output_in_10k_decodes(corpus):
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    lm_random = RandomLM(tuple("abcdef"), seed=9, eos_weight=0.3)
    toy_lm = SynonymBigramLM(corpus.texts(), default_synonym_table())
    toy_sentences = corpus.texts()
    decodes = 0
    violations = 0

    # direct decoder fuzz on a fast random LM
    for trial in range(9_000):
        source = [lm_random.vocab[i] for i in rng.integers(0, 6, size=rng.integers(2, 6))]
        curve = ("flat", "down", "up")[trial % 3]
        uni = build_unigram_constraints(source, float(rng.random()), curve, rng)
        constraints = ConstraintSet(
            banned_unigrams=uni.banned_unigrams,
            banned_bigrams=build_bigram_constraints(source).banned_bigrams,
        )
        if set(lm_random.vocab) <= constraints.banned_unigrams:
            continue
        groups = decode_one(
            lm_random, source, num_beams=4, num_groups=2, diversity_penalty=0.5,
            max_len=4, constraints=constraints,
        )
        decodes += 1
        for group in groups:
            for beam in group:
                toks = beam.texts(lm_random.vocab)
                if set(toks) & constraints.banned_unigrams:
                    violations += 1
                if set(zip(toks, toks[1:])) & constraints.banned_bigrams:
                    violations += 1

    # full paraphrase pipeline on the synthetic corpus LM
    for trial in range(1_000):
        sentence = toy_sentences[int(rng.integers(0, len(toy_sentences)))]
        source = sentence.split()
        if trial % 2 == 0:
            config = DecodeConfig(num_beams=6, num_groups=3)
            outputs = generate_paraphrases(toy_lm, sentence, 3, "dbs_bigram", config, rng)
            banned_pairs = set(zip(source, source[1:]))
            for text in outputs:
                toks = text.split()
                if set(zip(toks, toks[1:])) & banned_pairs:
                    violations += 1
        else:
            config = DecodeConfig(
                num_beams=6, num_groups=3,
                p_mask=float(rng.random()), curve=("flat", "down", "up")[trial % 3],
            )
            mask_rng_state = rng.bit_generator.state
            outputs = generate_paraphrases(toy_lm, sentence, 3, "dbs_unigram", config, rng)
            # reconstruct the banned set from the same rng state
            replay = np.random.default_rng()
            replay.bit_generator.state = mask_rng_state
            banned = build_unigram_constraints(
                source, config.p_mask, config.curve, replay
            ).banned_unigrams
            for text in outputs:
                if set(text.split()) & banned:
                    violations += 1
        decodes += 1

    elapsed = time.monotonic() - started
    print(f"\n  {decodes} constrained decodes, {violations} violations, {elapsed:.1f}s")
    assert decodes >= 10_000
    assert violations == 0
    assert elapsed < 120.0


@criterion("4 diversity-ordering")
def test_criterion_4_diversity_strategy_ordering(corpus):
    summary = diversity_by_strategy(corpus, n_sentences=200, seed=0)
    order = ("stub_bt", "dbs", "dbs_bigram", "dbs_unigram")
    dist2 = [summary[s]["dist2"] for s in order]
    sim = [summary[s]["mean_pairwise_similarity"] for s in order]
    print("\n  dist2:", " <= ".join(f"{s}={v:.3f}" for s, v in zip(order, dist2)))
    print("  sim:  ", " >= ".join(f"{s}={v:.3f}" for s, v in zip(order, sim)))
    for a, b in zip(dist2, dist2[1:]):
        assert a <= b
    for a, b in zip(sim, sim[1:]):
        assert a >= b


@criterion("5 consistency-training-improvement")
def test_criterion_5_strategy_accuracy_ordering(strategy_reports):
    means = {name: report.mean_accuracy for name, report in strategy_reports.items()}
    print("\n  mean test accuracy over 5 seeds:")
    for name in ("none", "stub_bt", "dbs", "dbs_unigram"):
        accs = " ".join(f"{a:.3f}" for a in strategy_reports[name].seed_accuracies)
        print(f"    {name:12s} {means[name]:.4f}  [{accs}]")
    assert means["dbs_unigram"] >= means["none"] + 0.02
    assert means["none"] <= means["stub_bt"] <= means["dbs"] <= means["dbs_unigram"]


@criterion("6 protocol-fidelity")
def test_criterion_6_full_protocol_counters(corpus_path, corpus):
    config = RunConfig(
        dataset_path=corpus_path,
        profile="low",
        n_way=5,
        k_shot=1,
        query_per_class=5,
        strategy="none",
        max_episodes=10_000,
        eval_every=100,
        patience=20,
        n_eval_episodes=600,
        seeds=(0,),
    )
    result, best_params, vocab = train_single_seed(config, 0, corpus)

    assert result.episodes_run <= 10_000
    assert result.n_evaluations == result.episodes_run // 100
    assert all(step % 100 == 0 for step, _ in result.val_curve)
    assert result.eval_episode_count == 600
    if result.stopped_early:
        assert result.n_evaluations == result.best_eval_index + 20
    else:
        assert result.episodes_run == 10_000
    assert result.best_val_accuracy == max(acc for _, acc in result.val_curve)

    # the reported number is the test accuracy of the best-validation
    # checkpoint, replayed here from the returned parameters on the seed's
    # test source, whose rows number the loaded records
    tokens = TokenRows.from_texts(corpus.texts(), vocab)
    replay = evaluate(best_params, tokens, plan_seed(config, corpus, 0).test, 600, _rngs(0, 5)[3])
    assert result.test_accuracy == replay.mean_accuracy
    print(
        f"\n  episodes={result.episodes_run} evaluations={result.n_evaluations} "
        f"stopped_early={result.stopped_early} best_eval={result.best_eval_index} "
        f"test={result.test_accuracy:.3f}"
    )


@criterion("7 pmask-sweep-artifact")
def test_criterion_7_pmask_sweep_series(corpus_path, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "train", "--dataset", corpus_path, "--pmask-sweep",
        "--profile", "low", "--n-way", "5", "--k-shot", "1",
        "--query-per-class", "3", "--unlabeled", "3", "--paraphrases", "3",
        "--num-beams", "6", "--num-groups", "3",
        "--max-episodes", "40", "--eval-every", "20", "--patience", "2",
        "--eval-episodes", "10", "--seeds", "0", "--cache",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "pmask_series.csv").read_text().strip().splitlines()
    assert lines[0] == "p_mask,mean_accuracy,std_accuracy"
    rows = [line.split(",") for line in lines[1:]]
    grid = [float(r[0]) for r in rows]
    accs = [float(r[1]) for r in rows]
    assert grid == [round(0.1 * i, 1) for i in range(11)]
    assert all(0.0 <= a <= 1.0 for a in accs)
    print("\n  p_mask grid:", grid)
    print("  accuracy:  ", [round(a, 3) for a in accs])


@criterion("8 annealing-invariants")
def test_criterion_8_annealing_endpoints_and_alpha_overlap(corpus_path):
    for total in (1, 7, 10_000):
        schedule = AnnealSchedule(alpha=1.0, total_steps=total)
        assert anneal_weight(0, schedule) == 0.0
        assert anneal_weight(total, schedule) == 1.0
    for alpha in (0.25, 1.0, 4.0):
        schedule = AnnealSchedule(alpha=alpha, total_steps=100)
        weights = [anneal_weight(s, schedule) for s in range(101)]
        assert weights[0] == 0.0 and weights[-1] == 1.0
        assert all(b >= a for a, b in zip(weights, weights[1:]))

    # fixed-length runs so every schedule traverses its full ramp (with early
    # stopping at small t, a conservative alpha would never leave near-zero
    # weight and the comparison would be vacuous)
    results = {}
    for alpha in (0.25, 1.0, 4.0):
        config = RunConfig(
            dataset_path=corpus_path,
            profile="low",
            n_way=5,
            k_shot=1,
            query_per_class=5,
            strategy="dbs_unigram",
            anneal_alpha=alpha,
            max_episodes=400,
            eval_every=100,
            patience=5,
            n_eval_episodes=200,
            seeds=(0, 1, 2, 3, 4),
            paraphrase_cache=True,
        )
        results[alpha] = run_experiment(config)
        assert all(r.episodes_run == 400 for r in results[alpha].seed_results)
    intervals = {
        alpha: (r.mean_accuracy - r.std_accuracy, r.mean_accuracy + r.std_accuracy)
        for alpha, r in results.items()
    }
    print("\n  alpha intervals (mean +- std):")
    for alpha, (lo, hi) in sorted(intervals.items()):
        print(f"    alpha={alpha:<5} [{lo:.4f}, {hi:.4f}]")
    alphas = sorted(intervals)
    for i, a in enumerate(alphas):
        for b in alphas[i + 1 :]:
            lo_a, hi_a = intervals[a]
            lo_b, hi_b = intervals[b]
            assert max(lo_a, lo_b) <= min(hi_a, hi_b), f"alpha {a} vs {b} do not overlap"


@criterion("9 determinism")
def test_criterion_9_byte_identical_reports(corpus_path, tmp_path):
    config = RunConfig(
        dataset_path=corpus_path,
        profile="low",
        n_way=3,
        k_shot=1,
        query_per_class=3,
        strategy="dbs_unigram",
        max_episodes=30,
        eval_every=15,
        patience=2,
        n_eval_episodes=10,
        seeds=(0, 1),
        paraphrase_cache=True,
    )
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.to_json().encode() == second.to_json().encode()

    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_report(first, dir_a)
    emit_report(second, dir_b)
    for name in ("report.json", "results.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
