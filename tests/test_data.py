import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraproto.data import (
    ClassSplit,
    Dataset,
    check_episode_shape,
    load_dataset,
    restrict_low_profile,
    sample_episode,
    sample_episode_rows,
    split_classes,
)
from paraproto.synth import generate_synthetic_dataset


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


class TestRestrictLowProfile:
    def test_train_classes_capped(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        low = restrict_low_profile(corpus, split, n_per_class=10, seed=0)
        for label in split.train_classes:
            assert class_size(low, label) == 10
        for label in split.valid_classes | split.test_classes:
            assert class_size(low, label) == class_size(corpus, label)

    def test_cap_at_availability(self):
        ds = Dataset(records=[(f"text {i}", "small") for i in range(7)]
                     + [(f"other {i}", "c2") for i in range(12)]
                     + [(f"more {i}", "c3") for i in range(12)])
        split = split_classes(ds, (0.34, 0.33, 0.33), seed=1)
        low = restrict_low_profile(ds, split, n_per_class=10, seed=0)
        for label in split.train_classes:
            assert class_size(low, label) == min(10, class_size(ds, label))

    def test_deterministic(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        a = restrict_low_profile(corpus, split, 10, seed=5)
        b = restrict_low_profile(corpus, split, 10, seed=5)
        assert a.records == b.records


class TestSampleEpisode:
    def test_counts(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rng = np.random.default_rng(0)
        ep = sample_episode(corpus, split, "train", 5, 1, 5, 5, rng)
        assert len(ep.support) == 5
        assert len(ep.query) == 25
        assert len(ep.unlabeled) == 5
        assert len(ep.episode_classes) == 5

    def test_exact_shots_per_class(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        ep = sample_episode(corpus, split, "train", 3, 2, 4, 0, np.random.default_rng(1))
        for label in ep.episode_classes:
            assert sum(1 for _, l in ep.support if l == label) == 2
            assert sum(1 for _, l in ep.query if l == label) == 4

    def test_support_query_disjoint(self):
        # unique texts make record identity observable from the outside
        ds = Dataset(
            records=[(f"utterance number {c} {i}", f"class{c}") for c in range(6) for i in range(12)]
        )
        split = split_classes(ds, (0.5, 0.25, 0.25), seed=0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            ep = sample_episode(ds, split, "train", 3, 2, 5, 0, rng)
            assert not set(ep.support) & set(ep.query)
            assert all(l in ep.episode_classes for _, l in ep.support)
            assert all(l in ep.episode_classes for _, l in ep.query)

    def test_monte_carlo_class_coverage(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(1000):
            ep = sample_episode(corpus, split, "train", 5, 1, 1, 0, rng)
            seen.update(ep.episode_classes)
        assert seen == set(split.train_classes)

    def test_unlabeled_spans_all_parts(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rng = np.random.default_rng(4)
        text_to_label = {t: l for t, l in corpus.records}
        hit_parts = set()
        for _ in range(200):
            ep = sample_episode(corpus, split, "train", 5, 1, 5, 5, rng)
            for text in ep.unlabeled:
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
        a = sample_episode(corpus, split, "train", 5, 1, 5, 5, np.random.default_rng(9))
        b = sample_episode(corpus, split, "train", 5, 1, 5, 5, np.random.default_rng(9))
        assert a.support == b.support and a.query == b.query and a.unlabeled == b.unlabeled


class TestSynthGenerator:
    def test_line_count(self, tmp_path):
        path = generate_synthetic_dataset(tmp_path / "s.jsonl", 20, 30, seed=0)
        assert sum(1 for _ in open(path)) == 600

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


def _record_copying_sample_episode(dataset, split, part, n_way, k_shot, query_per_class,
                                   n_unlabeled, rng):
    """The sampler as it was when it copied each chosen class's records,
    after the shape check that rejects degenerate episodes before any draw:
    the oracle for the row-index sampler's draws."""
    check_episode_shape(n_way, k_shot, query_per_class)
    pool = sorted(split.part(part))
    if len(pool) < n_way:
        raise ValueError(f"part {part!r} has {len(pool)} classes, needs {n_way}")
    chosen = [pool[i] for i in rng.choice(len(pool), size=n_way, replace=False)]
    support, query = [], []
    per_class = k_shot + query_per_class
    for label in chosen:
        records = [record for record in dataset.records if record[1] == label]
        if len(records) < per_class:
            raise ValueError(f"class {label!r} has {len(records)} records, needs {per_class}")
        picks = rng.choice(len(records), size=per_class, replace=False)
        support.extend(records[i] for i in picks[:k_shot])
        query.extend(records[i] for i in picks[k_shot:])
    if n_unlabeled > len(dataset):
        raise ValueError(f"cannot draw {n_unlabeled} unlabeled texts from {len(dataset)} records")
    unlabeled_ids = rng.choice(len(dataset), size=n_unlabeled, replace=False)
    unlabeled = [dataset.records[i][0] for i in unlabeled_ids]
    return support, query, unlabeled, chosen


def _outcome(sample, *args):
    try:
        return sample(*args)
    except ValueError as exc:
        return ("error", str(exc))


class TestSamplerEquivalence:
    """sample_episode draws exactly what the record-copying sampler drew,
    and leaves the generator in the same state after every call."""

    @settings(max_examples=120, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=3, max_size=8),
        order_seed=st.integers(0, 2**16),
        part=st.sampled_from(["train", "valid", "test"]),
        n_way=st.integers(1, 5),
        k_shot=st.integers(0, 3),
        query_per_class=st.integers(0, 4),
        n_unlabeled=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_draws_and_generator_state(
        self, sizes, order_seed, part, n_way, k_shot, query_per_class, n_unlabeled, seed
    ):
        records = [(f"text {c} {i}", f"c{c}") for c, size in enumerate(sizes) for i in range(size)]
        # interleave classes so dataset rows and class-local positions differ
        order = np.random.default_rng(order_seed).permutation(len(records))
        ds = Dataset(records=[records[i] for i in order])
        n = len(sizes)
        names = [f"c{c}" for c in range(n)]
        split = ClassSplit(
            train_classes=frozenset(names[: n - 2]),
            valid_classes=frozenset(names[n - 2 : n - 1]),
            test_classes=frozenset(names[n - 1 :]),
        )
        args = (ds, split, part, n_way, k_shot, query_per_class, n_unlabeled)
        rng_old, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            old = _outcome(_record_copying_sample_episode, *args, rng_old)
            new = _outcome(sample_episode, *args, rng_new)
            if old[0] == "error":
                assert new == old
            else:
                support, query, unlabeled, chosen = old
                assert new.support == support
                assert new.query == query
                assert new.unlabeled == unlabeled
                assert new.episode_classes == chosen
            assert rng_new.bit_generator.state == rng_old.bit_generator.state

    @pytest.mark.parametrize("n_way, k_shot, query_per_class", [(5, 1, 5), (3, 2, 4), (2, 1, 1)])
    def test_no_unlabeled_draw_when_none_requested(self, corpus, n_way, k_shot, query_per_class):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        args = (corpus, split, "train", n_way, k_shot, query_per_class, 0)
        rng, rng_old = np.random.default_rng(11), np.random.default_rng(11)
        calls = []

        class CountingRng:
            def choice(self, *a, **kw):
                calls.append(kw["size"])
                return rng.choice(*a, **kw)

        for _ in range(3):
            calls.clear()
            new = sample_episode(*args, CountingRng())
            support, query, _, chosen = _record_copying_sample_episode(*args, rng_old)
            assert (new.support, new.query, new.episode_classes) == (support, query, chosen)
            assert rng.bit_generator.state == rng_old.bit_generator.state
            assert new.unlabeled_rows.dtype == np.intp and new.unlabeled_rows.shape == (0,)
            assert calls == [n_way] + [k_shot + query_per_class] * n_way

    def test_episode_rows_equal_consecutive_episodes(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        rng, rng_old = np.random.default_rng(12), np.random.default_rng(12)
        pool, chosen, rows, unlabeled = sample_episode_rows(corpus, split, "valid", 3, 4, 2, 6, rng)
        assert (chosen.shape, rows.shape, unlabeled.shape) == ((6, 3), (6, 3, 4), (6, 2))
        for e in range(6):
            support, query, texts, classes = _record_copying_sample_episode(
                corpus, split, "valid", 3, 1, 3, 2, rng_old
            )
            assert [pool[i] for i in chosen[e]] == classes
            picked = rows[e]
            assert [corpus.records[i] for i in picked[:, :1].ravel()] == support
            assert [corpus.records[i] for i in picked[:, 1:].ravel()] == query
            assert [corpus.records[i][0] for i in unlabeled[e]] == texts
        assert rng.bit_generator.state == rng_old.bit_generator.state

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
