import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraproto import data
from paraproto.data import (
    SAMPLE_BLOCK_BYTES,
    ClassSplit,
    Dataset,
    EpisodeSource,
    check_episode_shape,
    load_dataset,
    restrict_low_profile,
    sample_episode,
    split_classes,
)
from paraproto.synth import generate_synthetic_dataset
from rowstub import episode_labels, episode_records, unlabeled_texts


def class_size(dataset, label):
    return sum(1 for _, record_label in dataset.records if record_label == label)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.jsonl"
    generate_synthetic_dataset(path, n_classes=20, sentences_per_class=30, seed=0)
    return load_dataset(path)


class TestLoadDataset:
    def test_two_line_file(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [{"text": "hello there", "label": "a"}, {"text": "bye", "label": "b"}],
        )
        ds = load_dataset(path)
        assert len(ds) == 2
        assert ds.classes == ["a", "b"]

    def test_missing_label_names_line(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [{"text": "hello", "label": "a"}, {"text": "oops"}],
        )
        with pytest.raises(ValueError, match=":2"):
            load_dataset(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "x", "label": "a"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_dataset(path)

    def test_text_empty_after_tokenization_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "d.jsonl", [{"text": "   ", "label": "a"}])
        with pytest.raises(ValueError, match="tokeniz"):
            load_dataset(path)

    def test_conflicting_domains_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "d.jsonl",
            [
                {"text": "x y", "label": "a", "domain": "d1"},
                {"text": "y z", "label": "a", "domain": "d2"},
            ],
        )
        with pytest.raises(ValueError, match="conflicting"):
            load_dataset(path)

    def test_integer_domain_loads_as_text(self, tmp_path):
        rows = [{"text": "x y", "label": "x", "domain": 7}, {"text": "y z", "label": "x", "domain": 7}]
        assert load_dataset(write_jsonl(tmp_path / "same.jsonl", rows)).domains == {"x": "7"}
        rows[1]["domain"] = 8
        with pytest.raises(ValueError, match="class 'x' has conflicting domains"):
            load_dataset(write_jsonl(tmp_path / "other.jsonl", rows))

    def test_synthetic_corpus_class_count(self, corpus):
        assert len(corpus.classes) == 20
        assert len(corpus) == 600


class TestSplitClasses:
    def test_exact_sizes(self, corpus):
        ds = Dataset(records=[(f"text {i}", f"c{i}") for i in range(10)])
        split = split_classes(ds, (0.5, 0.2, 0.3), seed=0)
        assert (len(split.train_classes), len(split.valid_classes), len(split.test_classes)) == (5, 2, 3)

    def test_deterministic(self, corpus):
        a = split_classes(corpus, (0.5, 0.25, 0.25), seed=7)
        b = split_classes(corpus, (0.5, 0.25, 0.25), seed=7)
        assert a == b

    def test_parts_disjoint_and_cover(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=3)
        union = split.train_classes | split.valid_classes | split.test_classes
        assert union == set(corpus.classes)
        assert not split.train_classes & split.test_classes

    def test_group_by_domain_no_straddling(self, corpus):
        for seed in range(5):
            split = split_classes(corpus, (0.5, 0.25, 0.25), seed=seed, group_by_domain=True)
            for domain in set(corpus.domains.values()):
                classes = {c for c in corpus.classes if corpus.domains[c] == domain}
                parts_hit = sum(
                    bool(classes & part)
                    for part in (split.train_classes, split.valid_classes, split.test_classes)
                )
                assert parts_hit == 1

    def test_bad_ratios_rejected(self, corpus):
        with pytest.raises(ValueError):
            split_classes(corpus, (0.5, 0.2, 0.2), seed=0)

    def test_too_few_classes_rejected(self):
        ds = Dataset(records=[("one text", "only")])
        with pytest.raises(ValueError):
            split_classes(ds, (0.4, 0.3, 0.3), seed=0)

    @staticmethod
    def _split_without_domains(dataset, ratios, seed):
        """The split's old separate path for group_by_domain=False: one
        permutation of the sorted classes, cut at the part sizes."""
        classes = dataset.classes
        n_train, n_valid, _ = data._part_sizes(len(classes), ratios)
        order = [classes[i] for i in np.random.default_rng(seed).permutation(len(classes))]
        return ClassSplit(
            train_classes=frozenset(order[:n_train]),
            valid_classes=frozenset(order[n_train : n_train + n_valid]),
            test_classes=frozenset(order[n_train + n_valid :]),
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=39),
        st.sampled_from([(0.5, 0.25, 0.25), (0.6, 0.2, 0.2), (0.34, 0.33, 0.33), (0.8, 0.1, 0.1),
                         (0.4, 0.3, 0.3), (0.5, 0.2, 0.2)]),
        st.integers(min_value=0, max_value=29),
        st.booleans(),
    )
    def test_classes_as_their_own_domains_equal_old_path(self, n_classes, ratios, seed, tagged):
        # domain tags, when present, are ignored without group_by_domain
        names = [f"c{i:02d}" for i in range(n_classes)]
        ds = Dataset(records=[(f"text {c}", c) for c in names],
                     domains={c: f"d{i % 3}" for i, c in enumerate(names)} if tagged else {})
        try:
            expected = self._split_without_domains(ds, ratios, seed)
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                split_classes(ds, ratios, seed=seed)
        else:
            assert split_classes(ds, ratios, seed=seed) == expected


class TestRestrictLowProfile:
    """The low profile is a row array over the dataset: the rows it keeps,
    ascending, every training class capped at n_per_class."""

    def test_train_classes_capped(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        for n_per_class in (1, 10, 29, 30, 31):  # each class has 30 rows
            low = restrict_low_profile(corpus, split, n_per_class=n_per_class, seed=0)
            assert low.dtype.kind == "i"
            assert (np.diff(low) > 0).all() and 0 <= low[0] and low[-1] < len(corpus)
            kept = {label: [] for label in corpus.classes}
            for row in low.tolist():
                kept[corpus.records[row][1]].append(row)
            for label in split.train_classes:
                assert len(kept[label]) == min(n_per_class, class_size(corpus, label))
            for label in split.valid_classes | split.test_classes:
                assert kept[label] == [i for i, (_, record) in enumerate(corpus.records) if record == label]

    def test_cap_at_availability(self):
        ds = Dataset(records=[(f"text {i}", "small") for i in range(7)]
                     + [(f"other {i}", "c2") for i in range(12)]
                     + [(f"more {i}", "c3") for i in range(12)])
        split = split_classes(ds, (0.34, 0.33, 0.33), seed=1)
        low = restrict_low_profile(ds, split, n_per_class=10, seed=0)
        for label in split.train_classes:
            assert sum(ds.records[row][1] == label for row in low.tolist()) == min(10, class_size(ds, label))

    def test_same_draws_as_one_choice_per_capped_class(self, corpus):
        # one rng.choice per training class over its rows, in sorted class order
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rng = np.random.default_rng(3)
        expected = set()
        for label in corpus.classes:
            rows = [i for i, (_, record_label) in enumerate(corpus.records) if record_label == label]
            if label in split.train_classes:
                rows = [rows[j] for j in rng.choice(len(rows), size=10, replace=False).tolist()]
            expected.update(rows)
        assert restrict_low_profile(corpus, split, 10, seed=3).tolist() == sorted(expected)

    def test_deterministic(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        a = restrict_low_profile(corpus, split, 10, seed=5)
        np.testing.assert_array_equal(a, restrict_low_profile(corpus, split, 10, seed=5))
        assert a.tolist() != restrict_low_profile(corpus, split, 10, seed=6).tolist()


class TestSampleEpisode:
    def test_counts(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rng = np.random.default_rng(0)
        rows, unlabeled = sample_episode(corpus, split, "train", 5, 1, 5, 5, rng)
        assert (rows.shape, unlabeled.shape) == ((1, 30), (1, 5))
        support, query = episode_records(corpus, rows[0], 5, 1)
        assert len(support) == 5
        assert len(query) == 25
        assert len(unlabeled_texts(corpus, unlabeled[0])) == 5
        assert len(episode_labels(corpus, rows[0])) == 5

    def test_exact_shots_per_class(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rows, _ = sample_episode(corpus, split, "train", 3, 2, 4, 0, np.random.default_rng(1))
        support, query = episode_records(corpus, rows[0], 3, 2)
        for label in episode_labels(corpus, rows[0]):
            assert sum(1 for _, l in support if l == label) == 2
            assert sum(1 for _, l in query if l == label) == 4

    def test_support_then_query_in_one_class_order(self, corpus):
        # the losses read the layout, not the labels: support rows class by
        # class, then query rows in the same class order
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rows, _ = EpisodeSource(corpus, split, "train", 3, 2, 4).draw(20, np.random.default_rng(5))
        for episode in rows:
            support, query = episode_records(corpus, episode, 3, 2)
            order = [label for _, label in support[::2]]
            assert [label for _, label in support] == [label for label in order for _ in range(2)]
            assert [label for _, label in query] == [label for label in order for _ in range(4)]

    def test_support_query_disjoint(self):
        # unique texts make record identity observable from the outside
        ds = Dataset(
            records=[(f"utterance number {c} {i}", f"class{c}") for c in range(6) for i in range(12)]
        )
        split = split_classes(ds, (0.5, 0.25, 0.25), seed=0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            rows, _ = sample_episode(ds, split, "train", 3, 2, 5, 0, rng)
            support, query = episode_records(ds, rows[0], 3, 2)
            assert not set(support) & set(query)
            assert all(l in split.train_classes for _, l in support)
            assert all(l in split.train_classes for _, l in query)

    def test_monte_carlo_class_coverage(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(1000):
            rows, _ = sample_episode(corpus, split, "train", 5, 1, 1, 0, rng)
            seen.update(episode_labels(corpus, rows[0]))
        assert seen == set(split.train_classes)

    def test_unlabeled_spans_all_parts(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rng = np.random.default_rng(4)
        text_to_label = {t: l for t, l in corpus.records}
        hit_parts = set()
        for _ in range(200):
            _, unlabeled = sample_episode(corpus, split, "train", 5, 1, 5, 5, rng)
            for text in unlabeled_texts(corpus, unlabeled[0]):
                label = text_to_label[text]
                for name, part in (
                    ("train", split.train_classes),
                    ("valid", split.valid_classes),
                    ("test", split.test_classes),
                ):
                    if label in part:
                        hit_parts.add(name)
        assert hit_parts == {"train", "valid", "test"}

    def test_insufficient_records_error_names_class(self):
        # of the two training classes only c1 is short of records
        ds = Dataset(
            records=[("a a", "c1"), ("b b", "c1"), ("c c", "c3"), ("d d", "c4")]
            + [(f"e e {i}", "c2") for i in range(5)]
        )
        split = ClassSplit(frozenset({"c1", "c2"}), frozenset({"c3"}), frozenset({"c4"}))
        with pytest.raises(ValueError, match="c1"):
            sample_episode(ds, split, "train", 2, 2, 3, 0, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "n_way, k_shot, query_per_class, message",
        [
            (5, 0, 5, "has no support examples"),
            (5, -1, 5, "has no support examples"),
            (5, 1, 0, "query_per_class must be >= 1"),
            (1, 1, 5, "n_way must be >= 2"),
        ],
    )
    def test_degenerate_shape_rejected_before_any_draw(
        self, corpus, n_way, k_shot, query_per_class, message
    ):
        # a class with no support rows, or no query rows, gives a nan loss
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rng = np.random.default_rng(10)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            sample_episode(corpus, split, "train", n_way, k_shot, query_per_class, 5, rng)
        assert rng.bit_generator.state == before

    def test_seed_determinism(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        (rows_a, unlabeled_a), (rows_b, unlabeled_b) = (
            sample_episode(corpus, split, "train", 5, 1, 5, 5, np.random.default_rng(9)) for _ in range(2)
        )
        assert episode_records(corpus, rows_a[0], 5, 1) == episode_records(corpus, rows_b[0], 5, 1)
        assert unlabeled_texts(corpus, unlabeled_a[0]) == unlabeled_texts(corpus, unlabeled_b[0])


class TestSynthGenerator:
    def test_line_count(self, tmp_path):
        path = generate_synthetic_dataset(tmp_path / "s.jsonl", 20, 30, seed=0)
        assert len(path.read_text().splitlines()) == 600

    def test_deterministic(self, tmp_path):
        a = generate_synthetic_dataset(tmp_path / "a.jsonl", 10, 5, seed=4)
        b = generate_synthetic_dataset(tmp_path / "b.jsonl", 10, 5, seed=4)
        assert a.read_bytes() == b.read_bytes()

    def test_synonym_rate_zero_uses_canonical_surface_only(self, tmp_path):
        path = generate_synthetic_dataset(tmp_path / "c.jsonl", 20, 10, synonym_rate=0.0, seed=1)
        ds = load_dataset(path)
        from paraproto.synth import CLASS_POOL
        nouns = {label: noun for label, _, _, noun in CLASS_POOL}
        for text, label in ds.records:
            assert nouns[label] in text.split()

    def test_no_duplicate_words_across_synonym_groups(self):
        from paraproto.synth import SYNONYM_GROUPS
        seen = set()
        for group in SYNONYM_GROUPS:
            for word in group:
                assert word not in seen, word
                seen.add(word)

    def test_class_count_validation(self, tmp_path):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(tmp_path / "x.jsonl", 1, 5)
        with pytest.raises(ValueError):
            generate_synthetic_dataset(tmp_path / "x.jsonl", 99, 5)


def _key_sampler_reference(dataset, split, part, n_way, k_shot, query_per_class, n_unlabeled, rng, pool=None):
    """One episode of the uniform-key scheme in plain Python, the oracle for
    `EpisodeSource.draw` over the dataset rows in `pool` (every row when
    None): the same checks before any draw, then one row of keys; the
    smallest class keys pick the classes, each drawn class's W-wide key
    segment picks its k_shot + query_per_class rows among its pool rows
    (cells past its size would be +inf, so only its own cells are ranked),
    and the tail ranks every pool row. Returns the drawn class names, each
    class's rows in key order and the unlabeled rows."""
    check_episode_shape(n_way, k_shot, query_per_class)
    pool = list(range(len(dataset))) if pool is None else list(pool)
    per_class = k_shot + query_per_class
    names = sorted(split.part(part))
    if len(names) < n_way:
        raise ValueError(f"part {part!r} has {len(names)} classes, needs {n_way}")
    members = [[i for i in pool if dataset.records[i][1] == name] for name in names]
    for name, rows in zip(names, members):
        if len(rows) < per_class:
            raise ValueError(f"class {name!r} has {len(rows)} records, needs {per_class}")
    if n_unlabeled > len(pool):
        raise ValueError(f"cannot draw {n_unlabeled} unlabeled texts from {len(pool)} records")
    width = max(len(rows) for rows in members)
    n_keys = len(names) + n_way * width + (len(pool) if n_unlabeled else 0)
    keys = rng.random(n_keys).tolist()

    def smallest(segment, n):
        return sorted(range(len(segment)), key=segment.__getitem__)[:n]

    chosen = smallest(keys[: len(names)], n_way)
    rows = []
    for c, i in enumerate(chosen):
        start = len(names) + c * width
        cells = keys[start : start + len(members[i])]
        rows.append([members[i][j] for j in smallest(cells, per_class)])
    unlabeled = [pool[j] for j in smallest(keys[len(names) + n_way * width :], n_unlabeled)]
    return [names[i] for i in chosen], rows, unlabeled


def _ragged_dataset(sizes, order_seed):
    """Classes c0.. of the given sizes, rows interleaved so that dataset rows
    and class-local positions differ; the last two classes are the valid and
    test parts, the rest train."""
    records = [(f"text {c} {i}", f"c{c}") for c, size in enumerate(sizes) for i in range(size)]
    order = np.random.default_rng(order_seed).permutation(len(records))
    ds = Dataset(records=[records[i] for i in order])
    names = [f"c{c}" for c in range(len(sizes))]
    split = ClassSplit(
        train_classes=frozenset(names[:-2]),
        valid_classes=frozenset(names[-2:-1]),
        test_classes=frozenset(names[-1:]),
    )
    return ds, split


def _class_rows(dataset, split, part, n_way, k_shot, query_per_class, n_unlabeled, n_episodes, rng, pool=None):
    """`EpisodeSource.draw` with each drawn class's rows put back together,
    support then query: rows (E, n_way, k_shot + query_per_class) in key
    order, and the unlabeled rows."""
    source = EpisodeSource(dataset, split, part, n_way, k_shot, query_per_class, n_unlabeled, pool)
    rows, unlabeled = source.draw(n_episodes, rng)
    support = rows[:, : n_way * k_shot].reshape(n_episodes, n_way, k_shot)
    query = rows[:, n_way * k_shot :].reshape(n_episodes, n_way, query_per_class)
    return np.concatenate((support, query), axis=2), unlabeled


def _outcome(sample, *args):
    try:
        return sample(*args)
    except ValueError as exc:
        return ("error", str(exc))


def _failed(outcome) -> bool:
    """Whether `_outcome` caught an error; a draw's first item is an array."""
    return isinstance(outcome[0], str)


def _twelve_rows():
    """Training classes c1 (rows 0-4) and c2 (rows 5-9), then one valid row
    and one test row."""
    ds = Dataset(records=[(f"{label} {i}", label) for label, n in (("c1", 5), ("c2", 5), ("v", 1), ("t", 1))
                          for i in range(n)])
    return ds, ClassSplit(frozenset({"c1", "c2"}), frozenset({"v"}), frozenset({"t"}))


RAGGED = dict(
    sizes=st.lists(st.integers(1, 9), min_size=3, max_size=8),
    order_seed=st.integers(0, 2**16),
    part=st.sampled_from(["train", "valid", "test"]),
    n_way=st.integers(1, 5),
    per_class=st.integers(1, 5),
    n_unlabeled=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)

# RAGGED shapes that lean to ones that can draw (the train part, n_way >= 2, a
# query row, classes of 3+ rows): under RAGGED itself fewer than 1% of the
# examples draw, so a property of the drawn rows would go unchecked
DRAWABLE = {
    **RAGGED, "sizes": st.lists(st.integers(3, 9), min_size=4, max_size=8),
    "part": st.sampled_from(["train", "train", "valid", "test"]), "n_way": st.sampled_from([2, 3, 1]),
    "per_class": st.sampled_from([3, 2, 4, 1]),
}


class TestKeySampler:
    """`EpisodeSource.draw` draws one contiguous row of uniform keys per
    episode and ranks classes, rows and unlabeled rows by key. Where a test
    names a class's row count `per_class`, the source draws 1 support and
    per_class - 1 query rows of it."""

    @settings(max_examples=300, deadline=None)
    @given(n_episodes=st.integers(1, 4), dropped=st.none() | st.sets(st.integers(0, 71), max_size=12), **DRAWABLE)
    def test_matches_per_episode_reference(
        self, sizes, order_seed, part, n_way, per_class, n_unlabeled, seed, n_episodes, dropped
    ):
        # the pool is every row but the `dropped` ones, a subset of the rows
        # of every part, or None for every row; a pool draws in about one
        # example of ten
        ds, split = _ragged_dataset(sizes, order_seed)
        pool = None if dropped is None else np.array([i for i in range(len(ds)) if i not in dropped], dtype=np.intp)
        args = (ds, split, part, n_way, 1, per_class - 1, n_unlabeled)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _outcome(_class_rows, *args, n_episodes, rng, pool)
        expected = [_outcome(_key_sampler_reference, *args, rng_ref, pool) for _ in range(n_episodes)]
        if _failed(got):
            assert [got] * n_episodes == expected
        else:
            rows, unlabeled = got
            assert (rows.shape, unlabeled.shape) == (
                (n_episodes, n_way, per_class), (n_episodes, n_unlabeled)
            )
            assert unlabeled.dtype == np.intp
            for e, (classes, class_rows, unlabeled_rows) in enumerate(expected):
                assert [ds.records[r][1] for r in rows[e, :, 0]] == classes
                assert rows[e].tolist() == class_rows
                assert unlabeled[e].tolist() == unlabeled_rows
            if pool is not None:
                assert np.isin(rows, pool).all() and np.isin(unlabeled, pool).all()
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(
        lead=st.lists(st.integers(0, 4), min_size=1, max_size=2),
        width=st.integers(0, 12),
        m=st.sampled_from(["zero", "one", "full", "any"]),
        drawn=st.data(),
    )
    def test_smallest_equals_stable_argsort_prefix(self, lead, width, m, drawn):
        # a few distinct values and +inf, so most rows hold ties, some of
        # them at the m-th smallest key
        size = math.prod(lead) * width
        keys = np.array(drawn.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, np.inf]), min_size=size,
                                            max_size=size)), dtype=np.float64).reshape(*lead, width)
        m = {"zero": 0, "one": min(1, width), "full": width, "any": None}[m]
        if m is None:
            m = drawn.draw(st.integers(0, width))
        got = data._smallest(keys, m)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, keys.argsort(axis=-1, kind="stable")[..., :m])

    @settings(max_examples=60, deadline=None)
    @given(**DRAWABLE)
    def test_no_padding_row_and_distinct_rows(
        self, sizes, order_seed, part, n_way, per_class, n_unlabeled, seed
    ):
        ds, split = _ragged_dataset(sizes, order_seed)
        rng = np.random.default_rng(seed)
        outcome = _outcome(
            _class_rows, ds, split, part, n_way, 1, per_class - 1, n_unlabeled, 30, rng
        )
        if _failed(outcome):
            return
        rows, unlabeled = outcome
        assert rows.min() >= 0
        for e in range(30):
            for class_rows in rows[e]:
                assert len(episode_labels(ds, class_rows)) == 1
                assert episode_labels(ds, class_rows) <= split.part(part)
            assert len(set(rows[e].ravel().tolist())) == n_way * per_class
            assert len(episode_labels(ds, rows[e, :, 0])) == n_way
            assert len(set(unlabeled[e].tolist())) == n_unlabeled

    @pytest.mark.parametrize("cap", [SAMPLE_BLOCK_BYTES, 1])
    @pytest.mark.parametrize("part, n_unlabeled", [("train", 5), ("valid", 0), ("test", 3)])
    def test_block_equals_single_episode_calls(self, corpus, monkeypatch, cap, part, n_unlabeled):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        source = EpisodeSource(corpus, split, part, 5, 1, 5, n_unlabeled)
        rng, rng_one = np.random.default_rng(12), np.random.default_rng(12)
        monkeypatch.setattr(data, "SAMPLE_BLOCK_BYTES", cap)
        rows, unlabeled = source.draw(60, rng)
        monkeypatch.undo()
        for e in range(60):
            one = source.draw(1, rng_one)
            np.testing.assert_array_equal(one[0][0], rows[e])
            np.testing.assert_array_equal(one[1][0], unlabeled[e])
        assert rng.bit_generator.state == rng_one.bit_generator.state

    def test_episodes_equal_single_episode_calls(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        args = (corpus, split, "train", 3, 2, 4, 5)
        rng, rng_one = np.random.default_rng(13), np.random.default_rng(13)
        rows, unlabeled = EpisodeSource(*args).draw(25, rng)
        assert (rows.shape, unlabeled.shape) == ((25, 3 * (2 + 4)), (25, 5))
        for e in range(25):
            one_rows, one_unlabeled = sample_episode(*args, rng_one)
            np.testing.assert_array_equal(one_rows, rows[e : e + 1])
            np.testing.assert_array_equal(one_unlabeled, unlabeled[e : e + 1])
        assert rng.bit_generator.state == rng_one.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(k_shot=st.integers(1, 2), n_episodes=st.integers(1, 4), **{
        **RAGGED, "sizes": st.lists(st.integers(1, 9), min_size=4, max_size=8),
        "part": st.just("train"), "n_way": st.integers(2, 3), "per_class": st.integers(1, 3),
    })
    def test_episodes_are_key_sampler_rows_support_then_query(
        self, sizes, order_seed, part, n_way, per_class, n_unlabeled, seed, k_shot, n_episodes
    ):
        # per_class plays query_per_class here: an episode draws k_shot + it
        # rows of each class, of which the first k_shot are support. The
        # train part and small shapes let about a third of the draws succeed.
        ds, split = _ragged_dataset(sizes, order_seed)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        args = (ds, split, part, n_way, k_shot, per_class, n_unlabeled)
        got = _outcome(lambda *a: EpisodeSource(*a).draw(n_episodes, rng), *args)
        expected = [_outcome(_key_sampler_reference, *args, rng_ref) for _ in range(n_episodes)]
        if _failed(got):
            assert [got] * n_episodes == expected
        else:
            rows, unlabeled = got
            for e, (_, class_rows, unlabeled_rows) in enumerate(expected):
                support = [row for rows_of_class in class_rows for row in rows_of_class[:k_shot]]
                query = [row for rows_of_class in class_rows for row in rows_of_class[k_shot:]]
                assert rows[e].tolist() == support + query
                assert unlabeled[e].tolist() == unlabeled_rows
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize(
        "train, per_class, n_unlabeled, message",
        [
            ({"c1": 5, "c2": 2, "c3": 1}, 3, 0, r"^class 'c2' has 2 records, needs 3$"),
            ({"c1": 5, "c2": 5}, 3, 40, r"^cannot draw 40 unlabeled texts from 12 records$"),
            ({"c1": 5}, 3, 0, r"^part 'train' has 1 classes, needs 2$"),
        ],
    )
    def test_errors_raised_before_any_draw(self, train, per_class, n_unlabeled, message):
        sizes = {**train, "v": 1, "t": 1}
        ds = Dataset(records=[(f"{label} {i}", label) for label, n in sizes.items() for i in range(n)])
        split = ClassSplit(frozenset(train), frozenset({"v"}), frozenset({"t"}))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            EpisodeSource(ds, split, "train", 2, 1, per_class - 1, n_unlabeled).draw(5, rng)
        assert rng.bit_generator.state == before

    def test_unlabeled_error_counts_pool_rows(self):
        # the pool keeps two rows of each training class and the valid and
        # test rows, 6 of 12
        ds, split = _twelve_rows()
        pool = np.array([0, 1, 5, 6, 10, 11])
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^cannot draw 7 unlabeled texts from 6 records$"):
            EpisodeSource(ds, split, "train", 2, 1, 1, 7, pool)
        assert rng.bit_generator.state == before
        _, unlabeled = EpisodeSource(ds, split, "train", 2, 1, 1, 6, pool).draw(3, rng)
        assert [sorted(row) for row in unlabeled.tolist()] == [pool.tolist()] * 3
        EpisodeSource(ds, split, "train", 2, 1, 1, 7)  # every row: 12 records

    @pytest.mark.parametrize("pool", [[1, 0], [0, 0, 1], [-1, 0, 1], [0, 1, 12], [[0, 1, 5, 6]]])
    def test_pool_must_be_ascending_distinct_dataset_rows(self, pool):
        ds, split = _twelve_rows()
        with pytest.raises(ValueError, match=r"^pool must be ascending, distinct rows of the 12-record dataset$"):
            EpisodeSource(ds, split, "train", 2, 1, 1, 0, np.array(pool))

    def test_class_and_row_draw_rates(self, corpus):
        # each of the P train classes is drawn with probability n_way / P, and
        # each of a drawn class's 30 rows with probability per_class / 30;
        # binomial standard deviations over 20,000 episodes are below 0.004
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rows, _ = _class_rows(corpus, split, "train", 5, 1, 5, 0, 20_000, np.random.default_rng(14))
        pool = sorted(split.train_classes)
        # each drawn class's index into the sorted train classes, read from its first row
        class_index = np.array([pool.index(label) if label in pool else -1 for _, label in corpus.records])
        chosen = class_index[rows[:, :, 0]]
        class_rate = np.bincount(chosen.ravel(), minlength=len(pool)) / 20_000
        np.testing.assert_allclose(class_rate, 5 / len(pool), atol=0.02)
        row_counts = np.bincount(rows.ravel(), minlength=len(corpus))
        by_class = EpisodeSource(corpus, split, "train", 5, 1, 5).rows.reshape(len(pool), 30)
        for i, members in enumerate(by_class):
            row_rate = row_counts[members] / np.count_nonzero(chosen == i)
            np.testing.assert_allclose(row_rate, 6 / 30, atol=0.03)

    def test_peak_memory_is_output_plus_capped_chunks(self, corpus):
        # the bench's train source: low profile, 5-way, 1 + 5 rows per class,
        # 5 unlabeled rows ranked over its 400 pool rows of 600
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        pool = restrict_low_profile(corpus, split, 10, seed=0)
        rng = np.random.default_rng(15)
        tracemalloc.start()
        try:
            rows, unlabeled = EpisodeSource(corpus, split, "train", 5, 1, 5, 5, pool).draw(10_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = rows.nbytes + unlabeled.nbytes
        assert peak < output + 4 * SAMPLE_BLOCK_BYTES

    def test_error_messages_unchanged(self):
        ds = Dataset(records=[("a a", "c1"), ("b b", "c1"), ("c c", "c2"), ("d d", "c2"),
                              ("e e", "c3"), ("f f", "c3")])
        split = ClassSplit(frozenset({"c1"}), frozenset({"c2"}), frozenset({"c3"}))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"^part 'train' has 1 classes, needs 2$"):
            sample_episode(ds, split, "train", 2, 1, 1, 0, rng)
        # two training classes, since an episode needs n_way >= 2
        split = ClassSplit(frozenset({"c1", "c2"}), frozenset(), frozenset({"c3"}))
        with pytest.raises(ValueError, match=r"^class 'c1' has 2 records, needs 3$"):
            sample_episode(ds, split, "train", 2, 1, 2, 0, rng)
        with pytest.raises(ValueError, match=r"^cannot draw 7 unlabeled texts from 6 records$"):
            sample_episode(ds, split, "train", 2, 1, 1, 7, rng)
