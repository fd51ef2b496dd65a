"""Episodes and unlabeled batches written as text, built into the token-row
forms the losses take; and a sampled episode's rows read back as records."""

from paraproto.encoder import TokenRows


def episode_tokens(support, query, vocab):
    """The token rows of labeled (text, label) support and query records, in
    the given order: the losses read them as support rows class by class,
    then query rows in the same class order."""
    return TokenRows.from_texts([text for text, _ in list(support) + list(query)], vocab)


def episode_records(dataset, rows, n_way, k_shot):
    """One sampled episode's (text, label) support records and query
    records, read from `dataset` in row order."""
    records = [dataset.records[i] for i in rows]
    return records[: n_way * k_shot], records[n_way * k_shot :]


def episode_labels(dataset, rows):
    """The distinct labels of an episode's rows."""
    return {dataset.records[i][1] for i in rows}


def unlabeled_texts(dataset, unlabeled):
    """An episode's unlabeled texts, read from `dataset` in row order."""
    return [dataset.records[i][0] for i in unlabeled]


def text_batch(sentences, paraphrases, vocab):
    """An unlabeled batch of sentences and each one's paraphrase texts, as
    the arguments `unsupervised_loss` takes before the parameters: the
    sentences' token rows, then each sentence's paraphrase rows, sentence by
    sentence, and the sentence count."""
    texts = list(sentences) + [text for row in paraphrases for text in row]
    return TokenRows.from_texts(texts, vocab), len(sentences)
