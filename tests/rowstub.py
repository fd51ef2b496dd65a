"""Episodes and unlabeled batches written as text, built into the row forms
the losses take: a `SampledEpisode` over a `Dataset` of its own records, and
an `UnlabeledBatch` of token ids; and an episode's rows read back as records."""

import numpy as np

from paraproto.consistency import UnlabeledBatch
from paraproto.data import Dataset, SampledEpisode
from paraproto.encoder import TokenRows


def text_episode(support, query, episode_classes):
    """An episode of labeled (text, label) support and query records, in the
    given order; each row's class is its label's index in episode_classes."""
    dataset = Dataset(records=list(support) + list(query))
    order = {label: i for i, label in enumerate(episode_classes)}
    return SampledEpisode(
        dataset=dataset,
        rows=np.arange(len(dataset)),
        classes=np.array([order[label] for _, label in dataset.records]),
        n_support=len(support),
        unlabeled_rows=np.empty(0, dtype=np.intp),
        episode_classes=list(episode_classes),
    )


def episode_records(episode):
    """An episode's (text, label) support records and query records, read
    from its dataset in row order."""
    records = [episode.dataset.records[i] for i in episode.rows]
    return records[: episode.n_support], records[episode.n_support :]


def unlabeled_texts(episode):
    """An episode's unlabeled texts, read from its dataset in row order."""
    return [episode.dataset.records[i][0] for i in episode.unlabeled_rows]


def text_batch(sentences, paraphrases, vocab):
    """An unlabeled batch of sentences and each one's paraphrase texts."""
    return UnlabeledBatch(
        sentences=TokenRows.from_texts(sentences, vocab),
        paraphrases=[TokenRows.from_texts(row, vocab) for row in paraphrases],
    )
