"""Experiment orchestration: run configuration, the episodic training loop
with periodic validation and early stopping, multi-seed aggregation, the
p_mask sweep, per-strategy diversity summaries, and report emission."""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import numerics
from .configio import check_json_values, dataclass_from_kv, dataclass_to_kv, format_kv, parse_kv_text
from .consistency import AnnealSchedule, combined_training_step
from .data import (
    PARTS, TRAIN, VALID, TEST, ClassSplit, Dataset, EpisodeSource, check_episode_shape, check_split_ratios,
    load_dataset, restrict_low_profile, split_classes,
)
from .decoding import (
    STRATEGIES, DecodeConfig, SynonymBigramLM, check_paraphrase_count, check_strategy, generate_paraphrase_batch,
)
from .encoder import (
    DEFAULT_EMBED_DIM, DEFAULT_OUTPUT_DIM, AdamState, EncoderParams, TokenRows, Vocabulary, load_checkpoint,
    save_checkpoint, tokenize,
)
from .metrics import diversity_report
from .protonet import evaluate
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
        _check_keys("report", obj, {f.name for f in fields(cls)} | {"mean_accuracy", "std_accuracy"})
        summary = {name: obj.pop(name) for name in ("mean_accuracy", "std_accuracy")}
        check_json_values("report", cls, obj)
        for i, r in enumerate(obj["seed_results"]):
            _check_keys(f"seed result {i}", r, {f.name for f in fields(SeedResult)})
            check_json_values(f"seed result {i}", SeedResult, r)
        obj["seed_results"] = [
            SeedResult(**{**r, "loss_curve": _tuples(r["loss_curve"]),
                          "val_curve": _tuples(r["val_curve"])})
            for r in obj["seed_results"]
        ]
        if obj["pmask_series"] is not None:
            obj["pmask_series"] = _tuples(obj["pmask_series"])
        report = cls(**obj)
        written = json.loads(report.to_json())  # the summary as its seeds give it
        for name, stored in summary.items():
            if json.dumps(stored) != json.dumps(written[name]):
                raise ValueError(f"report field {name!r} must be {json.dumps(written[name])} (recomputed from its "
                                 f"seed results), got {json.dumps(stored)}")
        return report


def _check_keys(what: str, obj, expected: set[str]) -> None:
    """Name the first missing, then the first unknown, key of a JSON object."""
    if not isinstance(obj, dict):
        raise ValueError(f"a {what} must be a JSON object, got {type(obj).__name__}")
    for problem, keys in (("is missing", expected - obj.keys()), ("has unknown", obj.keys() - expected)):
        if keys:
            raise ValueError(f"{what} {problem} key {sorted(keys)[0]!r}")


def _tuples(rows: list[list]) -> list[tuple]:
    return [tuple(row) for row in rows]


def _rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(n)]


@dataclass(frozen=True)
class SeedPlan:
    """What one seed trains and scores on: its class split and a checked
    episode source for each part, all three over the loaded dataset. The
    train source's pool is every row, or under the low profile the rows
    `restrict_low_profile` keeps; its labeled and unlabeled rows come from it."""

    seed: int
    split: ClassSplit
    train: EpisodeSource
    valid: EpisodeSource
    test: EpisodeSource


def plan_seed(config: RunConfig, dataset: Dataset, seed: int) -> SeedPlan:
    """Seed `seed`'s plan; a split, or a part that cannot fill an episode,
    fails here with the seed named, in the order the run draws from the parts."""
    try:
        split = split_classes(dataset, config.split_ratios, seed=seed, group_by_domain=config.group_by_domain)
        pool = (restrict_low_profile(dataset, split, config.low_profile_n, seed=seed)
                if config.profile == "low" else None)
        shape = (config.n_way, config.k_shot, config.query_per_class)
        n_unlabeled = config.n_unlabeled if config.strategy != "none" else 0
        return SeedPlan(seed, split, EpisodeSource(dataset, split, TRAIN, *shape, n_unlabeled, pool),
                        EpisodeSource(dataset, split, VALID, *shape), EpisodeSource(dataset, split, TEST, *shape))
    except ValueError as exc:
        raise ValueError(f"seed {seed}: {exc}") from exc


def train_single_seed(config: RunConfig, seed: int, dataset: Dataset) -> tuple[SeedResult, EncoderParams, Vocabulary]:
    """Plan seed `seed` and train that plan."""
    return train_plan(config, plan_seed(config, dataset, seed))


def train_plan(config: RunConfig, plan: SeedPlan) -> tuple[SeedResult, EncoderParams, Vocabulary]:
    """Train one seed's plan, made by `plan_seed` from a config that differs
    from `config` at most in its decoding, in blocks of eval_every episodes
    (the last may be shorter), each ending in a validation; returns the result
    plus the best-validation checkpoint (parameters and vocabulary)."""
    all_texts = plan.train.dataset.texts()
    pool = plan.train.pool.tolist()
    texts = [all_texts[row] for row in pool]  # the vocabulary's and the LM's, in pool order
    # every loaded row tokenized once per run; a row no source can draw is never read, and stays empty
    drawable = set(np.concatenate([plan.train.pool, plan.valid.rows, plan.test.rows]).tolist())
    token_lists = [tokenize(t) if row in drawable else () for row, t in enumerate(all_texts)]
    vocab = Vocabulary.from_tokens(token_lists[row] for row in pool)
    corpus = TokenRows.from_tokens(token_lists, vocab)
    n_unlabeled = plan.train.n_unlabeled
    rng_init, rng_episode, rng_valid, rng_test, rng_decode = _rngs(plan.seed, 5)

    params = EncoderParams.init(len(vocab), config.embed_dim, config.output_dim, rng_init)
    adam = AdamState.for_params(params, config.learning_rate)
    schedule = AnnealSchedule(alpha=config.anneal_alpha, total_steps=config.max_episodes)
    lm = SynonymBigramLM(texts, default_synonym_table()) if config.strategy != "none" else None
    # paraphrase ids by text, so duplicate sentences share one decode
    cache: dict[str, TokenRows] | None = {} if config.paraphrase_cache else None

    def paraphrase(sources: list[str]) -> list[TokenRows]:
        """The paraphrase ids of these texts, from one batch decode."""
        decoded = generate_paraphrase_batch(lm, sources, config.n_paraphrases, config.strategy, config.decode,
                                            rng_decode)
        return [TokenRows.from_texts(generated, vocab) for generated in decoded]

    def accuracy(model: EncoderParams, source: EpisodeSource, rng: np.random.Generator) -> float:
        return evaluate(model, corpus, source, config.n_eval_episodes, rng, config.distance).mean_accuracy

    best_eval_index = 0  # 1-based index into val_curve
    loss_curve: list[tuple[int, float, float, float, float]] = []
    val_curve: list[tuple[int, float]] = []
    for start in range(0, config.max_episodes, config.eval_every):
        # one draw equals the block's episodes drawn one by one, and one
        # gather gives every step its ids; the cache misses in episode order
        # (every row, cache off) decode as one batch, and each step's
        # unlabeled rows are its sentences, then each one's paraphrases
        n_steps = min(config.eval_every, config.max_episodes - start)
        rows, unlabeled = plan.train.draw(n_steps, rng_episode)
        episodes = corpus.take(rows.ravel()).split(n_steps)
        unlabeled_rows = [None] * n_steps
        if lm is not None:
            drawn = [all_texts[row] for row in unlabeled.ravel().tolist()]
            if cache is None:
                paraphrases = paraphrase(drawn)
            else:
                misses = list(dict.fromkeys(text for text in drawn if text not in cache))
                cache.update(zip(misses, paraphrase(misses)))
                paraphrases = [cache[text] for text in drawn]
            unlabeled_rows = TokenRows.concat([
                part for i, sentences in enumerate(corpus.take(unlabeled.ravel()).split(n_steps))
                for part in (sentences, *paraphrases[i * n_unlabeled : (i + 1) * n_unlabeled])
            ]).split(n_steps)

        for i, (tokens, batch) in enumerate(zip(episodes, unlabeled_rows)):
            step = start + i + 1
            losses = combined_training_step(
                tokens, config.n_way, config.k_shot, batch, n_unlabeled, params, adam, schedule, step, config.distance
            )
            loss_curve.append((step, losses.supervised, losses.unsupervised, losses.weight, losses.total))
            logger.debug("step=%d sup=%.6f unsup=%.6f weight=%.6f total=%.6f", *loss_curve[-1])

        val_curve.append((len(loss_curve), accuracy(params, plan.valid, rng_valid)))
        if best_eval_index == 0 or val_curve[-1][1] > val_curve[best_eval_index - 1][1]:
            best_params, best_eval_index = params.copy(), len(val_curve)
        logger.info(
            "eval at episode %d: valid accuracy %.4f (best %.4f)",
            *val_curve[-1], val_curve[best_eval_index - 1][1],
        )
        if len(val_curve) - best_eval_index >= config.patience:
            break

    result = SeedResult(
        seed=plan.seed,
        test_accuracy=accuracy(best_params, plan.test, rng_test),
        best_val_accuracy=val_curve[best_eval_index - 1][1],
        best_eval_index=best_eval_index,
        episodes_run=len(loss_curve),
        n_evaluations=len(val_curve),
        eval_episode_count=config.n_eval_episodes,
        stopped_early=len(val_curve) - best_eval_index >= config.patience,
        loss_curve=loss_curve,
        val_curve=val_curve,
    )
    logger.info("seed %d: test accuracy %.4f", plan.seed, result.test_accuracy)
    return result, best_params, vocab


def run_experiment(config: RunConfig, checkpoint_dir: str | Path | None = None) -> RunReport:
    """Plan every seed, then train each plan and aggregate test accuracies at
    the best-validation checkpoints. Configuration, dataset and run-shape
    errors surface before the first episode."""
    dataset = load_dataset(config.dataset_path)
    seed_results = []
    for plan in [plan_seed(config, dataset, seed) for seed in config.seeds]:
        result, best_params, vocab = train_plan(config, plan)
        seed_results.append(result)
        if checkpoint_dir is not None:
            save_run_checkpoint(Path(checkpoint_dir) / f"seed{plan.seed}_best.npz", best_params, vocab,
                                config, plan, dataset.digest())
    return RunReport(method=config.strategy, profile=config.profile, n_way=config.n_way, k_shot=config.k_shot,
                     seed_results=seed_results)


def save_run_checkpoint(path: Path, params: EncoderParams, vocab: Vocabulary, config: RunConfig, plan: SeedPlan,
                        dataset_sha256: str) -> None:
    """Write a seed's checkpoint with its run (config text, seed, dataset
    digest and each part's sorted classes), so that `evaluate` scores the
    classes this seed held out."""
    run = {"config": config.to_text(), "seed": str(plan.seed), "dataset_sha256": dataset_sha256}
    run.update((f"{part}_classes", sorted(plan.split.part(part))) for part in PARTS)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(path, params, vocab, run)


def load_run_checkpoint(
    path: str | Path, dataset: Dataset
) -> tuple[EncoderParams, Vocabulary, RunConfig, ClassSplit]:
    """Read a `save_run_checkpoint` file: the parameters, vocabulary, config
    and class split of its run, which must have been trained on `dataset`."""
    params, vocab, run = load_checkpoint(path)
    if "config" not in run:
        raise ValueError(f"{path} records no run to evaluate against; retrain it")
    for key in ("seed", "dataset_sha256", *(f"{part}_classes" for part in PARTS)):
        if key not in run:
            raise ValueError(f"{path} records a run with no {key!r}")
    if dataset.digest() != run["dataset_sha256"]:
        raise ValueError(f"the dataset is not the one {path} was trained on: the SHA-256 differs")
    split = ClassSplit(*(frozenset(run[f"{part}_classes"]) for part in PARTS))
    return params, vocab, RunConfig.from_text(run["config"]), split


PMASK_GRID = tuple(round(0.1 * i, 1) for i in range(11))


def run_pmask_sweep(config: RunConfig) -> RunReport:
    """Accuracy-versus-p_mask series over the 0.0..1.0 grid (step 0.1),
    using the unigram masking strategy throughout; every point trains the
    same seed plans, made once."""
    config = replace(config, strategy="dbs_unigram")
    dataset = load_dataset(config.dataset_path)
    plans = [plan_seed(config, dataset, seed) for seed in config.seeds]
    series = []
    for p_mask in PMASK_GRID:
        point = replace(config, decode=replace(config.decode, p_mask=p_mask))
        accuracies = [train_plan(point, plan)[0].test_accuracy for plan in plans]
        series.append((p_mask, float(np.mean(accuracies)), float(np.std(accuracies))))
        logger.info("p_mask %.1f: mean accuracy %.4f", p_mask, series[-1][1])
    return RunReport(method="dbs_unigram", profile=config.profile, n_way=config.n_way, k_shot=config.k_shot,
                     seed_results=[], pmask_series=series)


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
    if decode.num_groups < 2:
        raise ValueError(f"need at least 2 paraphrases per sentence, got num_groups={decode.num_groups}")
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


def _csv_text(header: list[str], rows: list[list]) -> str:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def emit_report(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, a results CSV, and (when present) the p_mask plot
    series. Every text is built before the directory is made, so a report
    that cannot be written leaves nothing behind. Returns the written paths."""
    texts = {"report.json": report.to_json() + "\n"}
    if report.seed_results:
        accuracies = " ".join(repr(a) for a in report.seed_accuracies)
        row = [report.method, report.profile, report.k_shot, accuracies,
               repr(report.mean_accuracy), repr(report.std_accuracy)]
        texts["results.csv"] = _csv_text(["method", "profile", "k_shot", "seed_accuracies", "mean", "std"], [row])
    if report.pmask_series:
        rows = [[repr(value) for value in point] for point in report.pmask_series]
        texts["pmask_series.csv"] = _csv_text(["p_mask", "mean_accuracy", "std_accuracy"], rows)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text, encoding="utf-8", newline="")
    return [out / name for name in texts]
