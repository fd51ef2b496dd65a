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
        parts = [self.part(name) for name in PARTS]
        if sum(map(len, parts)) != len(frozenset().union(*parts)):
            raise ValueError("split parts must be pairwise disjoint")

    def part(self, name: str) -> frozenset[str]:
        if name not in PARTS:
            raise ValueError(f"unknown split part: {name!r}")
        return getattr(self, f"{name}_classes")


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
    return ClassSplit(*map(frozenset, parts))


def restrict_low_profile(
    dataset: Dataset, split: ClassSplit, n_per_class: int = 10, seed: int = 0
) -> np.ndarray:
    """The dataset rows the low profile keeps, ascending: each training class
    capped at n_per_class rows drawn by `seed`, valid/test classes whole."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    keep = [rows[rng.choice(len(rows), size=n_per_class, replace=False)]
            if label in split.train_classes and len(rows) > n_per_class else rows
            for label, rows in sorted(dataset._by_class.items())]  # one draw per capped class, in class order
    return np.sort(np.concatenate(keep))


def check_episode_shape(n_way: int, k_shot: int, query_per_class: int) -> None:
    """Reject an episode shape whose loss or accuracy is undefined: fewer than
    two classes, or a class with no support or no query rows."""
    if k_shot < 1:
        raise ValueError(f"k_shot must be >= 1, got {k_shot}: an episode has no support examples")
    if query_per_class < 1:
        raise ValueError("query_per_class must be >= 1")
    if n_way < 2:
        raise ValueError("n_way must be >= 2")


@dataclass(frozen=True, eq=False)
class EpisodeSource:
    """C-way K-shot episodes of one split part from the dataset rows in `pool`
    (ascending and distinct; every row when None), checked when built, before
    any draw: a bad pool, a degenerate shape (`check_episode_shape`), too few
    classes, a class with fewer than k_shot + query_per_class pool rows (the
    first in sorted order is named) and too few pool rows for the unlabeled
    rows all fail. It keeps the pool as an array, the part's sorted class
    names, a (classes, W) table of each class's pool rows, ascending, padded
    with -1 to the largest class, and the part's pool `rows`, class by class."""

    dataset: Dataset
    split: ClassSplit
    part: str
    n_way: int
    k_shot: int
    query_per_class: int
    n_unlabeled: int = 0
    pool: np.ndarray | None = None
    classes: tuple[str, ...] = field(init=False)
    table: np.ndarray = field(init=False)
    rows: np.ndarray = field(init=False)

    def __post_init__(self):
        check_episode_shape(self.n_way, self.k_shot, self.query_per_class)
        pool = np.arange(len(self.dataset)) if self.pool is None else np.asarray(self.pool, dtype=np.intp)
        if pool.ndim != 1 or len(pool) and (pool[0] < 0 or pool[-1] >= len(self.dataset) or (np.diff(pool) <= 0).any()):
            raise ValueError(f"pool must be ascending, distinct rows of the {len(self.dataset)}-record dataset")
        per_class = self.k_shot + self.query_per_class
        classes = tuple(sorted(self.split.part(self.part)))
        if len(classes) < self.n_way:
            raise ValueError(f"part {self.part!r} has {len(classes)} classes, needs {self.n_way}")
        by_class = [np.intersect1d(self.dataset._by_class[label], pool, assume_unique=True) for label in classes]
        for label, class_rows in zip(classes, by_class):
            if len(class_rows) < per_class:
                raise ValueError(f"class {label!r} has {len(class_rows)} records, needs {per_class}")
        if self.n_unlabeled > len(pool):
            raise ValueError(f"cannot draw {self.n_unlabeled} unlabeled texts from {len(pool)} records")
        sizes = np.array([len(class_rows) for class_rows in by_class])
        rows = np.concatenate(by_class)
        table = np.full((len(classes), int(sizes.max())), -1, dtype=np.intp)
        table[np.arange(table.shape[1]) < sizes[:, None]] = rows
        for name, value in (("pool", pool), ("classes", classes), ("table", table), ("rows", rows)):
            object.__setattr__(self, name, value)

    def draw(self, n_episodes: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw `n_episodes` episodes. Each reads one row of uniform keys from
        `rng.random`, ranked in stable `argsort` order (see `_smallest`):
        - the first P (the part's class count) rank the sorted class names;
          the n_way smallest are the episode's classes, in key order;
        - the next n_way * W give each drawn class, in order, one key per cell
          of its table row (padding counts as +inf); the k_shot +
          query_per_class smallest pick its rows, the first k_shot as support;
        - only when n_unlabeled > 0, one key per pool row; the n_unlabeled
          smallest are the unlabeled rows, from any class, test classes too.
        An episode's keys are one contiguous row, so E episodes drawn at once
        equal, and leave the generator where, E one-episode draws do. Keys are
        drawn in chunks of at most SAMPLE_BLOCK_BYTES.

        Returns the rows (E, n_way * (k_shot + query_per_class)), support rows
        class by class, then query rows in the same class order; and the
        unlabeled rows (E, n_unlabeled).
        """
        n_way, k_shot = self.n_way, self.k_shot
        n_classes, width = self.table.shape
        filled = self.table >= 0
        n_keys = n_classes + n_way * width + (len(self.pool) if self.n_unlabeled else 0)

        rows = np.empty((n_episodes, n_way * (k_shot + self.query_per_class)), dtype=np.intp)
        support = rows[:, : n_way * k_shot].reshape(n_episodes, n_way, k_shot)  # views of `rows`
        query = rows[:, n_way * k_shot :].reshape(n_episodes, n_way, self.query_per_class)
        unlabeled = np.empty((n_episodes, self.n_unlabeled), dtype=np.intp)
        chunk = max(1, SAMPLE_BLOCK_BYTES // (n_keys * 8))
        for start in range(0, n_episodes, chunk):
            keys = rng.random((min(chunk, n_episodes - start), n_keys))
            stop = start + len(keys)
            picked = _smallest(keys[:, :n_classes], n_way)
            row_keys = keys[:, n_classes : n_classes + n_way * width].reshape(-1, n_way, width)
            row_keys[~filled[picked]] = np.inf
            order = _smallest(row_keys, k_shot + self.query_per_class)
            class_rows = self.table[picked[:, :, None], order]
            support[start:stop], query[start:stop] = class_rows[:, :, :k_shot], class_rows[:, :, k_shot:]
            unlabeled_keys = keys[:, n_classes + n_way * width :]  # no columns when n_unlabeled is 0
            unlabeled[start:stop] = self.pool[_smallest(unlabeled_keys, self.n_unlabeled)]
        return rows, unlabeled


def _smallest(keys: np.ndarray, m: int) -> np.ndarray:
    """`keys.argsort(axis=-1, kind="stable")[..., :m]`: the indices of each
    row's m smallest keys, in (key, index) order. An unstable sort puts the
    same m first unless two of a row's m + 1 smallest keys are equal (or one
    is NaN); only such rows are sorted again, stably. Rows of at most m keys
    are sorted stably at once."""
    if m >= keys.shape[-1]:
        return keys.argsort(axis=-1, kind="stable")[..., :m]
    rows = keys.reshape(-1, keys.shape[-1])
    order = rows.argsort(axis=1)[:, : m + 1]
    values = rows[np.arange(len(rows))[:, None], order]
    increasing = values[:, 1:] > values[:, :-1]
    if not increasing.all():
        tied = ~increasing.all(axis=1)
        order[tied] = rows[tied].argsort(axis=1, kind="stable")[:, : m + 1]
    return order[:, :m].reshape(*keys.shape[:-1], m)


def sample_episode(dataset: Dataset, split: ClassSplit, part: str, n_way: int, k_shot: int, query_per_class: int,
                   n_unlabeled: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One episode of `EpisodeSource.draw`, as its two (1, ...) arrays."""
    return EpisodeSource(dataset, split, part, n_way, k_shot, query_per_class, n_unlabeled).draw(1, rng)
