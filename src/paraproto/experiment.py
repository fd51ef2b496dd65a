"""Experiment orchestration: run configuration, the episodic training loop
with periodic validation and early stopping, multi-seed aggregation, the
p_mask sweep, per-strategy diversity summaries, and report emission."""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import numerics
from .configio import dataclass_from_kv, dataclass_to_kv, format_kv, parse_kv_text
from .consistency import (
    AnnealSchedule,
    StepLosses,
    UnlabeledBatch,
    combined_training_step,
    format_step_log,
)
from .data import (
    PARTS, TRAIN, VALID, TEST, ClassSplit, Dataset, check_episode_shape, check_split_ratios, load_dataset,
    restrict_low_profile, sample_episodes, split_classes,
)
from .decoding import (
    STRATEGIES, DecodeConfig, SynonymBigramLM, check_paraphrase_count, check_strategy, generate_paraphrase_batch,
)
from .encoder import (
    DEFAULT_EMBED_DIM, DEFAULT_OUTPUT_DIM, AdamState, EncoderParams, TokenRows, Vocabulary,
    optimizer_step, save_checkpoint,
)
from .metrics import diversity_report
from .protonet import evaluate, supervised_episode_loss
from .synth import default_synonym_table

logger = logging.getLogger("paraproto")

PROFILES = ("full", "low")
METHODS = ("none",) + STRATEGIES


@dataclass
class RunConfig:
    """One experiment: a method (paraphrase strategy or plain supervised
    baseline) trained and tested over several seeds."""

    dataset_path: str
    profile: str = "full"
    n_way: int = 5
    k_shot: int = 1
    query_per_class: int = 5
    n_unlabeled: int = 5
    n_paraphrases: int = 5
    strategy: str = "none"
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    anneal_alpha: float = 1.0
    max_episodes: int = 10000
    eval_every: int = 100
    patience: int = 20
    n_eval_episodes: int = 600
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    distance: str = numerics.SQUARED_EUCLIDEAN
    split_ratios: tuple[float, float, float] = (0.5, 0.25, 0.25)
    group_by_domain: bool = False
    low_profile_n: int = 10
    embed_dim: int = DEFAULT_EMBED_DIM
    output_dim: int = DEFAULT_OUTPUT_DIM
    learning_rate: float = 1e-3
    paraphrase_cache: bool = False

    def __post_init__(self):
        # a rule shared with the code that uses a value is that code's check
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}")
        if self.strategy not in METHODS:
            raise ValueError(f"strategy must be one of {METHODS}")
        check_episode_shape(self.n_way, self.k_shot, self.query_per_class)
        check_split_ratios(self.split_ratios)
        AdamState(learning_rate=self.learning_rate)
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.n_eval_episodes < 1:
            raise ValueError("n_eval_episodes must be >= 1")
        if self.max_episodes < self.eval_every:
            raise ValueError("max_episodes must be >= eval_every")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        AnnealSchedule(alpha=self.anneal_alpha, total_steps=self.max_episodes)
        if self.strategy != "none":
            if self.n_unlabeled < 1:
                raise ValueError("paraphrase strategies need n_unlabeled >= 1")
            check_paraphrase_count(self.n_paraphrases, self.strategy, self.decode.num_groups)
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"seeds must be one or more integers >= 0, got {self.seeds}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if self.distance not in numerics.DISTANCE_KINDS:
            raise ValueError(f"distance must be one of {numerics.DISTANCE_KINDS}")
        if min(self.embed_dim, self.output_dim, self.low_profile_n) < 1:
            raise ValueError("embed_dim, output_dim and low_profile_n must be >= 1")
        if self.profile == "low" and self.k_shot + self.query_per_class > self.low_profile_n:
            raise ValueError(f"a low-profile training class keeps low_profile_n={self.low_profile_n} rows, "
                             f"fewer than k_shot + query_per_class={self.k_shot + self.query_per_class}")

    def to_text(self) -> str:
        return format_kv(dataclass_to_kv(self))

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        return dataclass_from_kv(cls, parse_kv_text(text))

    def split(self, dataset: Dataset, seed: int) -> ClassSplit:
        """The classes that seed `seed` of this run trains, validates and tests on."""
        return split_classes(dataset, self.split_ratios, seed=seed, group_by_domain=self.group_by_domain)


@dataclass
class SeedResult:
    """Everything observed during one seeded run, including the instrumented
    counters that pin down protocol fidelity."""

    seed: int
    test_accuracy: float
    best_val_accuracy: float
    best_eval_index: int
    episodes_run: int
    n_evaluations: int
    eval_episode_count: int
    stopped_early: bool
    loss_curve: list[tuple[int, float, float, float, float]]
    val_curve: list[tuple[int, float]]


@dataclass
class RunReport:
    method: str
    profile: str
    n_way: int
    k_shot: int
    seed_results: list[SeedResult]
    pmask_series: list[tuple[float, float, float]] | None = None
    diversity: dict[str, dict[str, float]] | None = None

    @property
    def seed_accuracies(self) -> list[float]:
        return [r.test_accuracy for r in self.seed_results]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.seed_accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.seed_accuracies))

    def to_json(self) -> str:
        payload = asdict(self)
        payload["mean_accuracy"] = self.mean_accuracy if self.seed_results else None
        payload["std_accuracy"] = self.std_accuracy if self.seed_results else None
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        obj = json.loads(text)
        del obj["mean_accuracy"], obj["std_accuracy"]
        obj["seed_results"] = [
            SeedResult(**{**r, "loss_curve": _tuples(r["loss_curve"]),
                          "val_curve": _tuples(r["val_curve"])})
            for r in obj["seed_results"]
        ]
        if obj["pmask_series"] is not None:
            obj["pmask_series"] = _tuples(obj["pmask_series"])
        return cls(**obj)


def _tuples(rows: list[list]) -> list[tuple]:
    return [tuple(row) for row in rows]


def _rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(n)]


def train_single_seed(
    config: RunConfig, seed: int, dataset: Dataset
) -> tuple[SeedResult, EncoderParams, Vocabulary]:
    """Train one seeded run in blocks of eval_every episodes (the last may be
    shorter), each ending in a validation; returns the result plus the
    best-validation checkpoint (parameters and vocabulary)."""
    split = config.split(dataset, seed)
    working = (
        restrict_low_profile(dataset, split, config.low_profile_n, seed=seed)
        if config.profile == "low"
        else dataset
    )
    texts = working.texts()
    vocab = Vocabulary.from_texts(texts)
    corpus = working.token_rows(vocab)  # every working text as ids, once per run
    rng_init, rng_episode, rng_valid, rng_test, rng_decode = _rngs(seed, 5)

    params = EncoderParams.init(len(vocab), config.embed_dim, config.output_dim, rng_init)
    adam = AdamState.for_params(params, config.learning_rate)
    schedule = AnnealSchedule(alpha=config.anneal_alpha, total_steps=config.max_episodes)
    lm = SynonymBigramLM(texts, default_synonym_table()) if config.strategy != "none" else None
    # paraphrase ids by working-set row, keyed by the first row with the same
    # text, so duplicate sentences share one decode
    cache: dict[int, TokenRows] | None = None
    if config.paraphrase_cache:
        cache, first_rows = {}, {}
        cache_key = [first_rows.setdefault(text, row) for row, text in enumerate(texts)]

    def paraphrase(rows: list[int]) -> list[TokenRows]:
        """The paraphrase ids of these rows' texts, from one batch decode."""
        decoded = generate_paraphrase_batch(
            lm, [texts[r] for r in rows], config.n_paraphrases, config.strategy, config.decode, rng_decode
        )
        return [TokenRows.from_texts(generated, vocab) for generated in decoded]

    def accuracy(model: EncoderParams, part: str, rng: np.random.Generator) -> float:
        return evaluate(
            model, vocab, working, split, part, config.n_way, config.k_shot,
            config.query_per_class, config.n_eval_episodes, rng, config.distance,
        ).mean_accuracy

    best_eval_index = 0  # 1-based index into val_curve
    loss_curve: list[tuple[int, float, float, float, float]] = []
    val_curve: list[tuple[int, float]] = []
    for start in range(0, config.max_episodes, config.eval_every):
        # one draw equals the block's episodes drawn one by one; its cache
        # misses in episode order (every row, cache off) decode as one batch
        block = sample_episodes(
            working, split, TRAIN, config.n_way, config.k_shot, config.query_per_class,
            config.n_unlabeled if lm is not None else 0,
            min(config.eval_every, config.max_episodes - start), rng_episode,
        )
        if lm is not None:
            rows = [row for episode in block for row in episode.unlabeled_rows.tolist()]
            if cache is None:
                paraphrases = paraphrase(rows)
            else:
                keys = [cache_key[row] for row in rows]
                misses = list(dict.fromkeys(key for key in keys if key not in cache))
                cache.update(zip(misses, paraphrase(misses)))
                paraphrases = [cache[key] for key in keys]

        n = config.n_unlabeled
        for i, episode in enumerate(block):
            step = start + i + 1
            if lm is None:
                sup_loss, grads = supervised_episode_loss(episode, params, vocab, config.distance)
                optimizer_step(adam, params, grads)
                losses = StepLosses(total=sup_loss, supervised=sup_loss, unsupervised=0.0, weight=0.0)
            else:
                batch = UnlabeledBatch(
                    sentences=corpus.take(episode.unlabeled_rows), paraphrases=paraphrases[i * n : (i + 1) * n]
                )
                losses = combined_training_step(
                    episode, batch, params, adam, schedule, step, vocab, config.distance
                )
            loss_curve.append(
                (step, losses.supervised, losses.unsupervised, losses.weight, losses.total)
            )
            logger.debug(format_step_log(step, losses))

        val_curve.append((len(loss_curve), accuracy(params, VALID, rng_valid)))
        if best_eval_index == 0 or val_curve[-1][1] > val_curve[best_eval_index - 1][1]:
            best_params, best_eval_index = params.copy(), len(val_curve)
        logger.info(
            "eval at episode %d: valid accuracy %.4f (best %.4f)",
            *val_curve[-1], val_curve[best_eval_index - 1][1],
        )
        if len(val_curve) - best_eval_index >= config.patience:
            break

    result = SeedResult(
        seed=seed,
        test_accuracy=accuracy(best_params, TEST, rng_test),
        best_val_accuracy=val_curve[best_eval_index - 1][1],
        best_eval_index=best_eval_index,
        episodes_run=len(loss_curve),
        n_evaluations=len(val_curve),
        eval_episode_count=config.n_eval_episodes,
        stopped_early=len(val_curve) - best_eval_index >= config.patience,
        loss_curve=loss_curve,
        val_curve=val_curve,
    )
    return result, best_params, vocab


def run_experiment(config: RunConfig, checkpoint_dir: str | Path | None = None) -> RunReport:
    """Train every seed and aggregate test accuracies at the best-validation
    checkpoints. Configuration and dataset errors surface before training."""
    dataset = load_dataset(config.dataset_path)
    seed_results = []
    for seed in config.seeds:
        result, best_params, vocab = train_single_seed(config, seed, dataset)
        seed_results.append(result)
        logger.info("seed %d: test accuracy %.4f", seed, result.test_accuracy)
        if checkpoint_dir is not None:
            path = Path(checkpoint_dir)
            path.mkdir(parents=True, exist_ok=True)
            # the run, so that `evaluate` scores the classes this seed held out
            split = config.split(dataset, seed)
            run = {"config": config.to_text(), "seed": str(seed), "dataset_sha256": dataset.digest()}
            run.update((f"{part}_classes", sorted(split.part(part))) for part in PARTS)
            save_checkpoint(path / f"seed{seed}_best.npz", best_params, vocab, run)
    return RunReport(
        method=config.strategy,
        profile=config.profile,
        n_way=config.n_way,
        k_shot=config.k_shot,
        seed_results=seed_results,
    )


PMASK_GRID = tuple(round(0.1 * i, 1) for i in range(11))


def run_pmask_sweep(config: RunConfig) -> RunReport:
    """Accuracy-versus-p_mask series over the 0.0..1.0 grid (step 0.1),
    using the unigram masking strategy throughout."""
    series = []
    for p_mask in PMASK_GRID:
        cfg = replace(
            config,
            strategy="dbs_unigram",
            decode=replace(config.decode, p_mask=p_mask),
        )
        report = run_experiment(cfg)
        series.append((p_mask, report.mean_accuracy, report.std_accuracy))
        logger.info("p_mask %.1f: mean accuracy %.4f", p_mask, report.mean_accuracy)
    return RunReport(
        method="dbs_unigram",
        profile=config.profile,
        n_way=config.n_way,
        k_shot=config.k_shot,
        seed_results=[],
        pmask_series=series,
    )


def diversity_by_strategy(
    dataset: Dataset,
    strategies: tuple[str, ...] = STRATEGIES,
    n_sentences: int = 200,
    decode: DecodeConfig | None = None,
    seed: int = 0,
) -> dict[str, dict[str, float]]:
    """Mean diversity-report fields per strategy over sampled corpus sentences,
    with similarity measured by an untrained encoder initialized from `seed`."""
    if n_sentences < 1:
        raise ValueError(f"n_sentences must be >= 1, got {n_sentences}")
    if not strategies:
        raise ValueError("no strategy given")
    if len(set(strategies)) < len(strategies):
        raise ValueError(f"strategies must be distinct, got {strategies}")
    for strategy in strategies:
        check_strategy(strategy)
    decode = decode or DecodeConfig()
    texts = dataset.texts()
    vocab = Vocabulary.from_texts(texts)
    encoder_params = EncoderParams.init(len(vocab), rng=np.random.default_rng(seed))
    lm = SynonymBigramLM(texts, default_synonym_table())
    picker = np.random.default_rng(seed)
    n = min(n_sentences, len(texts))
    sentences = [texts[i] for i in picker.choice(len(texts), size=n, replace=False)]

    out: dict[str, dict[str, float]] = {}
    for si, strategy in enumerate(sorted(strategies)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, si])))
        decoded = generate_paraphrase_batch(lm, sentences, decode.num_groups, strategy, decode, rng)
        reports = [
            asdict(diversity_report(sentence, paraphrases, encoder_params, vocab))
            for sentence, paraphrases in zip(sentences, decoded)
        ]
        out[strategy] = {k: float(np.mean([report[k] for report in reports])) for k in reports[0]}
    return out


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def emit_report(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, a results CSV, and (when present) the p_mask plot
    series. Returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "report.json"]
    written[0].write_text(report.to_json() + "\n", encoding="utf-8")
    if report.seed_results:
        accuracies = " ".join(repr(a) for a in report.seed_accuracies)
        row = [report.method, report.profile, report.k_shot, accuracies,
               repr(report.mean_accuracy), repr(report.std_accuracy)]
        header = ["method", "profile", "k_shot", "seed_accuracies", "mean", "std"]
        written.append(_write_csv(out / "results.csv", header, [row]))
    if report.pmask_series:
        rows = [[repr(value) for value in point] for point in report.pmask_series]
        written.append(_write_csv(out / "pmask_series.csv", ["p_mask", "mean_accuracy", "std_accuracy"], rows))
    return written
