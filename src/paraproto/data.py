"""Dataset loading, class-disjoint splitting, low-data profiles, and
C-way K-shot episode sampling with unlabeled batches.

Datasets are JSON-lines files with fields "text" (string), "label" (string)
and an optional "domain" (read as a string). All sampling takes explicit RNGs
or seeds; class names are sorted before any random draw so results do not
depend on hash ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .encoder import tokenize

TRAIN, VALID, TEST = "train", "valid", "test"
PARTS = (TRAIN, VALID, TEST)

# Key matrices per chunk of episodes are capped at this many bytes; each
# episode's keys stay one contiguous row, so chunking moves no draw.
SAMPLE_BLOCK_BYTES = 64 * 1024


@dataclass
class Dataset:
    """Labeled utterances with an optional domain tag per class."""

    records: list[tuple[str, str]]
    domains: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        by_class: dict[str, list[int]] = {}
        for i, (_, label) in enumerate(self.records):
            by_class.setdefault(label, []).append(i)
        self._by_class = {label: np.array(rows) for label, rows in by_class.items()}

    @property
    def classes(self) -> list[str]:
        return sorted(self._by_class)

    def texts(self) -> list[str]:
        return [text for text, _ in self.records]

    def class_rows(self, labels: Iterable[str]) -> np.ndarray:
        """Row indices of every record of the given classes."""
        return np.concatenate([self._by_class[label] for label in sorted(labels)])

    def __len__(self) -> int:
        return len(self.records)

    def digest(self) -> str:
        """SHA-256 of the records and domains, as hex."""
        import hashlib  # here, so that importing the package does not load it

        return hashlib.sha256(json.dumps([self.records, self.domains], sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class ClassSplit:
    """Pairwise-disjoint train/valid/test class-name partitions."""

    train_classes: frozenset[str]
    valid_classes: frozenset[str]
    test_classes: frozenset[str]

    def __post_init__(self):
        if (
            self.train_classes & self.valid_classes
            or self.train_classes & self.test_classes
            or self.valid_classes & self.test_classes
        ):
            raise ValueError("split parts must be pairwise disjoint")

    def part(self, name: str) -> frozenset[str]:
        if name == TRAIN:
            return self.train_classes
        if name == VALID:
            return self.valid_classes
        if name == TEST:
            return self.test_classes
        raise ValueError(f"unknown split part: {name!r}")


def load_dataset(path: str | Path) -> Dataset:
    """Parse a JSONL dataset; malformed lines fail with their line number."""
    path = Path(path)
    records: list[tuple[str, str]] = []
    domains: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
                raise ValueError(f'{path}:{lineno}: record must have "text" and "label"')
            text, label = obj["text"], obj["label"]
            if not isinstance(text, str) or not isinstance(label, str) or not label:
                raise ValueError(f"{path}:{lineno}: text and label must be non-empty strings")
            if not tokenize(text):
                raise ValueError(f"{path}:{lineno}: text is empty after tokenization")
            domain = obj.get("domain")
            if domain is not None:
                if label in domains and domains[label] != str(domain):
                    raise ValueError(f"{path}:{lineno}: class {label!r} has conflicting domains")
                domains[label] = str(domain)
            records.append((text, label))
    if not records:
        raise ValueError(f"{path}: dataset file is empty")
    return Dataset(records=records, domains=domains)


def check_split_ratios(ratios: tuple[float, float, float]) -> None:
    """Reject train/valid/test class ratios unless each is > 0 and they add to 1 (NaN and inf fail)."""
    if not (len(ratios) == 3 and all(r > 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ValueError(f"split ratios must be 3 positive values summing to 1, got {ratios}")


def _part_sizes(n_classes: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    check_split_ratios(ratios)
    n_train = round(ratios[0] * n_classes)
    n_valid = round(ratios[1] * n_classes)
    n_test = n_classes - n_train - n_valid
    if min(n_train, n_valid, n_test) < 1:
        raise ValueError(f"{n_classes} classes cannot fill all three parts with ratios {ratios}")
    return n_train, n_valid, n_test


def split_classes(
    dataset: Dataset,
    ratios: tuple[float, float, float],
    seed: int = 0,
    group_by_domain: bool = False,
) -> ClassSplit:
    """Disjoint class split; with group_by_domain no domain straddles parts."""
    classes = dataset.classes
    n_train, n_valid, _ = _part_sizes(len(classes), ratios)
    rng = np.random.default_rng(seed)

    # without group_by_domain each class is its own domain
    domain = {c: dataset.domains.get(c, c) if group_by_domain else c for c in classes}
    domains = sorted(set(domain.values()))
    if len(domains) < 3:
        raise ValueError("group_by_domain needs at least 3 domains")
    by_domain: dict[str, list[str]] = {d: [] for d in domains}
    for c in classes:
        by_domain[domain[c]].append(c)
    parts: list[list[str]] = [[], [], []]
    quota = (n_train, n_valid)
    current = 0
    for i, d in enumerate(domains[j] for j in rng.permutation(len(domains))):
        remaining = len(domains) - i
        # advance once the quota is met, or to keep later parts non-empty
        while current < 2 and parts[current] and (
            len(parts[current]) >= quota[current] or remaining <= 2 - current
        ):
            current += 1
        parts[current].extend(by_domain[d])
    train, valid, test = parts

    return ClassSplit(
        train_classes=frozenset(train),
        valid_classes=frozenset(valid),
        test_classes=frozenset(test),
    )


def restrict_low_profile(
    dataset: Dataset, split: ClassSplit, n_per_class: int = 10, seed: int = 0
) -> Dataset:
    """Cap training-class records at n_per_class; valid/test classes untouched."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    keep: set[int] = set()
    for label in dataset.classes:
        indices = dataset._by_class[label]
        if label in split.train_classes and len(indices) > n_per_class:
            chosen = rng.choice(len(indices), size=n_per_class, replace=False)
            keep.update(indices[chosen].tolist())
        else:
            keep.update(indices.tolist())
    records = [rec for i, rec in enumerate(dataset.records) if i in keep]
    return Dataset(records=records, domains=dict(dataset.domains))


def episode_pool(
    dataset: Dataset, split: ClassSplit, part: str, n_way: int, per_class: int, n_unlabeled: int
) -> tuple[list[str], list[np.ndarray]]:
    """The part's sorted class names and each one's dataset rows, once the
    part is known to fill an episode: too few classes, a class with fewer
    than per_class rows (the first in sorted order is named) and too few
    records for the unlabeled rows all fail. It draws nothing."""
    pool = sorted(split.part(part))
    if len(pool) < n_way:
        raise ValueError(f"part {part!r} has {len(pool)} classes, needs {n_way}")
    by_class = [dataset._by_class[label] for label in pool]
    for label, class_rows in zip(pool, by_class):
        if len(class_rows) < per_class:
            raise ValueError(f"class {label!r} has {len(class_rows)} records, needs {per_class}")
    if n_unlabeled > len(dataset):
        raise ValueError(f"cannot draw {n_unlabeled} unlabeled texts from {len(dataset)} records")
    return pool, by_class


def sample_episode_rows(
    dataset: Dataset,
    split: ClassSplit,
    part: str,
    n_way: int,
    per_class: int,
    n_unlabeled: int,
    n_episodes: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the rows of `n_episodes` C-way episodes from one split part.

    Each episode reads one row of K uniform keys from `rng.random`, where
    P is the part's class count and W its largest class size:
    - keys [0, P) rank the part's sorted class names; the n_way smallest
      (stable `argsort`) are the episode's classes, in key order;
    - keys [P, P + n_way * W) give each drawn class, in order, W keys, one
      per row of the class in dataset order (cells past the class's size
      count as +inf); the per_class smallest pick its rows, in key order;
    - only when n_unlabeled > 0, keys [P + n_way * W, K) rank every dataset
      row and the n_unlabeled smallest are the unlabeled rows. They may
      come from any class, including test classes.
    An episode's keys are one contiguous row, so E episodes drawn in one
    call are the E episodes of E one-episode calls, and leave the
    generator where those calls do. Keys are drawn in chunks of at most
    SAMPLE_BLOCK_BYTES. A part that cannot fill an episode (`episode_pool`)
    fails before any draw.

    Returns the dataset rows (E, n_way, per_class), classes and each
    class's rows in key order, and the unlabeled rows (E, n_unlabeled).
    """
    pool, by_class = episode_pool(dataset, split, part, n_way, per_class, n_unlabeled)
    sizes = np.array([len(class_rows) for class_rows in by_class])
    n_classes, width = len(pool), int(sizes.max())
    filled = np.arange(width) < sizes[:, None]  # (P, W): cell holds a row of the class
    table = np.full((n_classes, width), -1, dtype=np.intp)
    table[filled] = np.concatenate(by_class)
    n_keys = n_classes + n_way * width + (len(dataset) if n_unlabeled else 0)

    rows = np.empty((n_episodes, n_way, per_class), dtype=np.intp)
    unlabeled = np.empty((n_episodes, n_unlabeled), dtype=np.intp)
    chunk = max(1, SAMPLE_BLOCK_BYTES // (n_keys * 8))
    for start in range(0, n_episodes, chunk):
        keys = rng.random((min(chunk, n_episodes - start), n_keys))
        stop = start + len(keys)
        picked = keys[:, :n_classes].argsort(axis=1, kind="stable")[:, :n_way]
        row_keys = keys[:, n_classes : n_classes + n_way * width].reshape(-1, n_way, width)
        row_keys[~filled[picked]] = np.inf
        order = row_keys.argsort(axis=2, kind="stable")[:, :, :per_class]
        rows[start:stop] = table[picked[:, :, None], order]
        unlabeled_keys = keys[:, n_classes + n_way * width :]  # no columns when n_unlabeled is 0
        unlabeled[start:stop] = unlabeled_keys.argsort(axis=1, kind="stable")[:, :n_unlabeled]
    return rows, unlabeled


def check_episode_shape(n_way: int, k_shot: int, query_per_class: int) -> None:
    """Reject an episode shape whose loss or accuracy is undefined: fewer than
    two classes, or a class with no support or no query rows."""
    if k_shot < 1:
        raise ValueError(f"k_shot must be >= 1, got {k_shot}: an episode has no support examples")
    if query_per_class < 1:
        raise ValueError("query_per_class must be >= 1")
    if n_way < 2:
        raise ValueError("n_way must be >= 2")


def sample_episodes(
    dataset: Dataset,
    split: ClassSplit,
    part: str,
    n_way: int,
    k_shot: int,
    query_per_class: int,
    n_unlabeled: int,
    n_episodes: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample `n_episodes` C-way K-shot episodes from one split part: the
    draws of `sample_episode_rows`, each class's first k_shot rows as support.
    Returns the dataset rows (E, n_way * (k_shot + query_per_class)), support
    rows first, class by class, then query rows in the same class order; and
    the unlabeled rows (E, n_unlabeled). A degenerate shape
    (`check_episode_shape`) fails before any draw.
    """
    check_episode_shape(n_way, k_shot, query_per_class)
    rows, unlabeled = sample_episode_rows(
        dataset, split, part, n_way, k_shot + query_per_class, n_unlabeled, n_episodes, rng
    )
    support, query = rows[:, :, :k_shot], rows[:, :, k_shot:]
    rows = np.concatenate((support.reshape(n_episodes, -1), query.reshape(n_episodes, -1)), axis=1)
    return rows, unlabeled


def sample_episode(
    dataset: Dataset,
    split: ClassSplit,
    part: str,
    n_way: int,
    k_shot: int,
    query_per_class: int,
    n_unlabeled: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """`sample_episodes` with n_episodes = 1, as its two (1, ...) arrays."""
    return sample_episodes(
        dataset, split, part, n_way, k_shot, query_per_class, n_unlabeled, 1, rng
    )
