"""Output checks for the benchmark. Each returns a list of problems; an
empty list means the output passed. A failed check counts the operation as
failed in the result's `failed` count."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Sequence


def check_paraphrases(
    outputs: Sequence[str],
    n_expected: int,
    source_tokens: Sequence[str],
    output_tokens: Sequence[Sequence[str]],
    strategy: str,
    banned_unigrams: frozenset[str] = frozenset(),
) -> list[str]:
    """`n_expected` non-empty outputs; for dbs_bigram no source bigram, and
    for dbs_unigram no banned source token, appears in any output."""
    problems = []
    if len(outputs) != n_expected:
        problems.append(f"{len(outputs)} outputs, expected {n_expected}")
    if any(not text.strip() for text in outputs):
        problems.append("empty output")
    if strategy == "dbs_bigram":
        source_pairs = set(zip(source_tokens, source_tokens[1:]))
        for toks in output_tokens:
            hit = source_pairs.intersection(zip(toks, toks[1:]))
            if hit:
                problems.append(f"source bigram {sorted(hit)[0]} in output {' '.join(toks)!r}")
    if strategy == "dbs_unigram":
        for toks in output_tokens:
            hit = banned_unigrams.intersection(toks)
            if hit:
                problems.append(f"banned unigram {sorted(hit)[0]!r} in output {' '.join(toks)!r}")
    return problems


def check_training(result, episodes: int, eval_every: int, eval_episodes: int) -> list[str]:
    """Protocol counters match the configuration and the loss curve is
    finite."""
    problems = []
    if result.episodes_run != episodes:
        problems.append(f"episodes_run {result.episodes_run} != {episodes}")
    if result.n_evaluations != episodes // eval_every:
        problems.append(f"n_evaluations {result.n_evaluations} != {episodes // eval_every}")
    if result.eval_episode_count != eval_episodes:
        problems.append(f"eval_episode_count {result.eval_episode_count} != {eval_episodes}")
    if len(result.loss_curve) != episodes or not all(
        math.isfinite(v) for row in result.loss_curve for v in row
    ):
        problems.append("loss curve is short or not finite")
    return problems


def check_accuracy(accuracies: Sequence[float], n_way: int) -> list[str]:
    """Mean test accuracy over a run's seeds beats chance. It is checked on
    the mean because one seed's class split can leave the 200-episode
    supervised baseline at chance."""
    mean = sum(accuracies) / len(accuracies)
    if mean > 1.0 / n_way:
        return []
    return [f"mean test accuracy {mean} over {len(accuracies)} seeds is not above chance 1/{n_way}"]


def digest(outputs: Sequence[Sequence[str]]) -> str:
    """SHA-256 of the paraphrase lists, in order."""
    return hashlib.sha256(json.dumps(list(map(list, outputs))).encode("utf-8")).hexdigest()
