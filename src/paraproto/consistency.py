"""Paraphrase-consistency training: an unsupervised loss that pulls every
unlabeled sentence toward the mean embedding of its own paraphrases and away
from other sentences' paraphrase means, plus the annealed combination of this
loss with the supervised episode loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .data import SampledEpisode
from .encoder import AdamState, EncoderParams, TokenRows, Vocabulary, optimizer_step
from .protonet import prototypical_loss, supervised_episode_loss


@dataclass
class UnlabeledBatch:
    """U unlabeled sentences, each with exactly M paraphrases, as vocabulary
    ids: one TokenRows of the U sentences and one of each sentence's M
    paraphrases, as the training loop gathers them from the working set and
    the paraphrase cache."""

    sentences: TokenRows
    paraphrases: list[TokenRows]

    def __post_init__(self):
        if not self.sentences:
            raise ValueError("unlabeled batch is empty")
        if len(self.paraphrases) != len(self.sentences):
            raise ValueError("one paraphrase list per sentence required")
        m = len(self.paraphrases[0])
        if m < 1 or any(len(p) != m for p in self.paraphrases):
            raise ValueError("ragged paraphrase lists: every sentence needs the same M >= 1")

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)

    @property
    def n_paraphrases(self) -> int:
        return len(self.paraphrases[0])


@dataclass(frozen=True)
class AnnealSchedule:
    """Weight t^alpha on the unsupervised loss, t = step / total_steps."""

    alpha: float = 1.0
    total_steps: int = 10000

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


@dataclass
class StepLosses:
    """Per-step log record: combined, supervised, unsupervised, and the weight."""

    total: float
    supervised: float
    unsupervised: float
    weight: float


def anneal_weight(step: int, schedule: AnnealSchedule) -> float:
    if not 0 <= step <= schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    t = step / schedule.total_steps
    return t**schedule.alpha


def unsupervised_loss(
    batch: UnlabeledBatch,
    params: EncoderParams,
    distance: str = numerics.SQUARED_EUCLIDEAN,
) -> tuple[float, EncoderParams]:
    """Mean cross-entropy of each sentence against its own paraphrase mean:
    the prototypical loss with one group per sentence, its paraphrases as
    support and the sentence itself as the one query.

    Gradients flow through the sentence embeddings and through every
    paraphrase embedding; there is no stop-gradient on either side.
    """
    u, m = batch.n_sentences, batch.n_paraphrases
    tokens = TokenRows.concat([batch.sentences, *batch.paraphrases])
    groups = np.concatenate([np.arange(u), np.repeat(np.arange(u), m)])
    return prototypical_loss(params, tokens, groups, slice(u, None), slice(0, u), u, distance)


def combined_training_step(
    episode: SampledEpisode,
    batch: UnlabeledBatch,
    params: EncoderParams,
    optimizer_state: AdamState,
    schedule: AnnealSchedule,
    step: int,
    vocab: Vocabulary,
    distance: str = numerics.SQUARED_EUCLIDEAN,
) -> StepLosses:
    """One annealed update: weight * unsupervised + (1 - weight) * supervised.

    Both losses are evaluated at the current parameters and their gradients
    combined linearly before a single optimizer step (params updated in place).
    """
    weight = anneal_weight(step, schedule)
    sup_loss, sup_grads = supervised_episode_loss(episode, params, vocab, distance)
    unsup_loss, unsup_grads = unsupervised_loss(batch, params, distance)

    combined = params.with_flat((1.0 - weight) * sup_grads.vector + weight * unsup_grads.vector)
    optimizer_step(optimizer_state, params, combined)

    total = weight * unsup_loss + (1.0 - weight) * sup_loss
    return StepLosses(total=total, supervised=sup_loss, unsupervised=unsup_loss, weight=weight)


def format_step_log(step: int, losses: StepLosses) -> str:
    """Structured per-step training log line."""
    return (
        f"step={step} sup={losses.supervised:.6f} unsup={losses.unsupervised:.6f} "
        f"weight={losses.weight:.6f} total={losses.total:.6f}"
    )
