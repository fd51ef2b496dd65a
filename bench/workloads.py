"""The benchmark's workloads: set-up, one unit of work each, and the checks
on a unit's output.

Importing this module loads only the standard library, so that running it
as a script times the whole set-up, imports included:

    python3 bench/workloads.py <workload> <corpus.jsonl>

prints the seconds one set-up took in a fresh interpreter.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import checks
import measure

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The acceptance corpus (`synth-data --classes 20 --per-class 30 --seed 0`
# at seed 0) and protocol: 5-way 1-shot, 5 queries, 5 unlabeled sentences
# with 5 paraphrases each, validation every 50 episodes over 200 episodes.
N_CLASSES, PER_CLASS, SYNONYM_RATE = 20, 30, 0.5
N_WAY, K_SHOT, QUERY, N_UNLABELED, M = 5, 1, 5, 5, 5
EPISODES, EVAL_EVERY, EVAL_EPISODES = 200, 50, 200
SAMPLE_SIZE = 40  # sentences per paraphrase pass
STRATEGIES = ("dbs", "dbs_unigram", "dbs_bigram", "stub_bt")
WORKLOADS = {"supervised": "none", "consistency": "dbs_unigram", "paraphrase": None}


def import_paraproto():
    """Import the package from this checkout's src/, and only from there."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import paraproto  # its __init__ imports every submodule the tracer patches

    if Path(paraproto.__file__).resolve().parent != SRC / "paraproto":
        raise ImportError(f"paraproto was imported from {paraproto.__file__}, not {SRC}")
    return paraproto


def write_corpus(seed: int, out_dir: Path) -> Path:
    """Generate the workload's input corpus; not part of set-up."""
    pkg = import_paraproto()
    return pkg.synth.generate_synthetic_dataset(
        out_dir / f"synth-{seed}.jsonl", N_CLASSES, PER_CLASS, SYNONYM_RATE, seed=seed
    )


def prepare(workload: str, path: Path):
    """Set-up before the first timed operation: import, corpus load, and
    for `paraphrase` the LM build. Returns (dataset, lm)."""
    pkg = import_paraproto()
    dataset = pkg.data.load_dataset(path)
    lm = None
    if WORKLOADS[workload] is None:
        lm = pkg.decoding.SynonymBigramLM(dataset.texts(), pkg.synth.default_synonym_table())
    return dataset, lm


class TrainingWorkload:
    """One unit is one seeded `train_single_seed` under the acceptance
    protocol, with early stopping off so every seed does the same number of
    episodes and evaluations."""

    def __init__(self, pkg, strategy: str, seed: int, path: Path, dataset):
        self.pkg, self.seed, self.dataset = pkg, seed, dataset
        self.config = pkg.RunConfig(
            dataset_path=str(path),
            profile="low",
            n_way=N_WAY,
            k_shot=K_SHOT,
            query_per_class=QUERY,
            n_unlabeled=N_UNLABELED,
            n_paraphrases=M,
            strategy=strategy,
            max_episodes=EPISODES,
            eval_every=EVAL_EVERY,
            patience=EPISODES // EVAL_EVERY + 1,
            n_eval_episodes=EVAL_EPISODES,
            seeds=(seed,),
            paraphrase_cache=strategy != "none",
        )

    def train_seed(self, unit: int) -> int:
        return self.seed * 1000 + unit

    def run_unit(self, unit: int, tag=None):
        """Returns (seconds, SeedResult)."""
        train_seed = self.train_seed(unit)
        if tag is not None:
            tag(f"seed={train_seed}")
        t0 = time.perf_counter()
        result, _, _ = self.pkg.experiment.train_single_seed(self.config, train_seed, self.dataset)
        return time.perf_counter() - t0, result

    def check_unit(self, result):
        """Returns (problems per operation, what summary() needs); a training
        unit is one operation."""
        return [checks.check_training(result, EPISODES, EVAL_EVERY, EVAL_EPISODES)], result

    def summary(self, results) -> dict[str, tuple[float, str]]:
        accs = [r.test_accuracy for r in results]
        return {"test_accuracy": (sum(accs) / len(accs), "ratio")}


def sentence_sample(texts: list[str], n: int, seed: int) -> list[str]:
    """n inputs: even positions are single corpus sentences, odd positions
    two sentences joined by "and", so decode cost varies with length."""
    import numpy as np

    picks = np.random.default_rng([seed, 1]).integers(0, len(texts), size=(n, 2))
    return [
        texts[a] if i % 2 == 0 else f"{texts[a]} and {texts[b]}"
        for i, (a, b) in enumerate(picks.tolist())
    ]


class ParaphraseWorkload:
    """One unit is one pass of `generate_paraphrases` over the sentence
    sample under every strategy, with no cache and no encoder. Each strategy
    restarts its rng every pass, so every pass does identical work."""

    def __init__(self, pkg, lm, sentences: list[str], seed: int):
        self.pkg, self.lm, self.sentences, self.seed = pkg, lm, sentences, seed
        self.decode = pkg.DecodeConfig()
        self.first_pass: list[tuple[str, list[str]]] | None = None

    def run_unit(self, unit: int, tag=None):
        """Returns (seconds inside generate_paraphrases, records), one record
        (strategy, sentence, rng state before the call, outputs, seconds)
        per call."""
        import numpy as np

        records = []
        for si, strategy in enumerate(STRATEGIES):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, si])))
            for sentence in self.sentences:
                state = rng.bit_generator.state
                if tag is not None:
                    tag(sentence)
                t0 = time.perf_counter()
                outputs = self.pkg.decoding.generate_paraphrases(
                    self.lm, sentence, M, strategy, self.decode, rng
                )
                records.append((strategy, sentence, state, outputs, time.perf_counter() - t0))
        return sum(r[4] for r in records), records

    def check_unit(self, records):
        """Returns (problems per generate_paraphrases call, (call latencies,
        paraphrase count)); each call is one operation. Later passes must
        repeat the first pass exactly."""
        import numpy as np

        tokenize = self.pkg.encoder.tokenize
        if self.first_pass is None:
            self.first_pass = [(r[1], r[3]) for r in records]
        per_call = []
        for (strategy, sentence, state, paraphrases, _), (_, expected) in zip(records, self.first_pass):
            source = tokenize(sentence)
            banned = frozenset()
            if strategy == "dbs_unigram":
                replay = np.random.Generator(np.random.PCG64())
                replay.bit_generator.state = state
                banned = self.pkg.decoding.build_unigram_constraints(
                    source, self.decode.p_mask, self.decode.curve, replay
                ).banned_unigrams
            problems = checks.check_paraphrases(
                paraphrases, M, source, [tokenize(p) for p in paraphrases], strategy, banned
            )
            if paraphrases != expected:
                problems.append("output differs from the first pass")
            per_call.append(problems)
        return per_call, ([r[4] for r in records], sum(len(r[3]) for r in records))

    def summary(self, passes) -> dict[str, tuple[float, str]]:
        latencies = [dt for times, _ in passes for dt in times]
        n_paraphrases = sum(n for _, n in passes)
        tokenize, metrics = self.pkg.encoder.tokenize, self.pkg.metrics
        dist2, bleus = [], []
        for sentence, paraphrases in self.first_pass:
            source = tokenize(sentence)
            outs = [tokenize(p) for p in paraphrases]
            dist2.append(metrics.distinct_2([source, *outs]))
            bleus.extend(metrics.bleu(o, [source], smooth=True) for o in outs)
        p99 = measure.tail_percentile(latencies, 99)
        out = {
            "paraphrases_per_s": (n_paraphrases / sum(latencies), "1/s"),
            "sentence_ms_p50": (1000 * statistics.median(latencies), "ms"),
            "dist2": (sum(dist2) / len(dist2), "ratio"),
            "bleu_vs_source": (sum(bleus) / len(bleus), "ratio"),
            "sentence_count": (len(latencies), "count"),
        }
        if p99 is not None:
            out["sentence_ms_p99"] = (1000 * p99, "ms")
        return out


if __name__ == "__main__":
    started = time.perf_counter()
    prepare(sys.argv[1], Path(sys.argv[2]))
    print(time.perf_counter() - started)
