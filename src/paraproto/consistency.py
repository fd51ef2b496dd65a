"""Paraphrase-consistency training: an unsupervised loss that pulls every
unlabeled sentence toward the mean embedding of its own paraphrases and away
from other sentences' paraphrase means, plus the annealed combination of this
loss with the supervised episode loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .encoder import AdamState, EncoderParams, TokenRows, optimizer_step
from .protonet import prototypical_loss, supervised_episode_loss


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
    rows: TokenRows,
    n_sentences: int,
    params: EncoderParams,
    distance: str = numerics.SQUARED_EUCLIDEAN,
) -> tuple[float, EncoderParams]:
    """Mean cross-entropy of each sentence against its own paraphrase mean,
    over `rows` that hold the `n_sentences` sentences, then each one's M >= 1
    paraphrases in turn: the prototypical loss with one group per sentence,
    its paraphrases as support and the sentence itself as the one query.

    Gradients flow through the sentence embeddings and through every
    paraphrase embedding; there is no stop-gradient on either side.
    """
    if n_sentences < 1 or len(rows) < 2 * n_sentences or len(rows) % n_sentences:
        raise ValueError(f"{len(rows)} unlabeled rows are not {n_sentences} sentences with M >= 1 paraphrases each")
    return prototypical_loss(params, rows, slice(n_sentences, None), slice(0, n_sentences), n_sentences, distance)


def combined_training_step(
    tokens: TokenRows,
    n_way: int,
    k_shot: int,
    unlabeled: TokenRows | None,
    n_unlabeled: int,
    params: EncoderParams,
    optimizer_state: AdamState,
    schedule: AnnealSchedule,
    step: int,
    distance: str = numerics.SQUARED_EUCLIDEAN,
) -> StepLosses:
    """One annealed update: weight * unsupervised + (1 - weight) * supervised.

    Both losses are evaluated at the current parameters and their gradients
    combined linearly before a single optimizer step (params updated in place).
    `unlabeled` is the step's `n_unlabeled` sentences and their paraphrases
    in `unsupervised_loss`'s layout; with none the step is plain ProtoNet:
    the supervised gradient alone, at weight 0.
    """
    sup_loss, sup_grads = supervised_episode_loss(params, tokens, n_way, k_shot, distance)
    if unlabeled is None:
        optimizer_step(optimizer_state, params, sup_grads)
        return StepLosses(total=sup_loss, supervised=sup_loss, unsupervised=0.0, weight=0.0)
    weight = anneal_weight(step, schedule)
    unsup_loss, unsup_grads = unsupervised_loss(unlabeled, n_unlabeled, params, distance)

    combined = params.with_flat((1.0 - weight) * sup_grads.vector + weight * unsup_grads.vector)
    optimizer_step(optimizer_state, params, combined)

    total = weight * unsup_loss + (1.0 - weight) * sup_loss
    return StepLosses(total=total, supervised=sup_loss, unsupervised=unsup_loss, weight=weight)

