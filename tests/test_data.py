import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paraproto import data
from paraproto.data import (
    SAMPLE_BLOCK_BYTES,
    ClassSplit,
    Dataset,
    load_dataset,
    restrict_low_profile,
    sample_episode,
    sample_episode_rows,
    sample_episodes,
    split_classes,
)
from paraproto.synth import generate_synthetic_dataset
from rowstub import episode_records, unlabeled_texts


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
        support, query = episode_records(ep)
        assert len(support) == 5
        assert len(query) == 25
        assert len(unlabeled_texts(ep)) == 5
        assert len(ep.episode_classes) == 5

    def test_exact_shots_per_class(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        ep = sample_episode(corpus, split, "train", 3, 2, 4, 0, np.random.default_rng(1))
        support, query = episode_records(ep)
        for label in ep.episode_classes:
            assert sum(1 for _, l in support if l == label) == 2
            assert sum(1 for _, l in query if l == label) == 4

    def test_support_query_disjoint(self):
        # unique texts make record identity observable from the outside
        ds = Dataset(
            records=[(f"utterance number {c} {i}", f"class{c}") for c in range(6) for i in range(12)]
        )
        split = split_classes(ds, (0.5, 0.25, 0.25), seed=0)
        rng = np.random.default_rng(2)
        for _ in range(50):
            ep = sample_episode(ds, split, "train", 3, 2, 5, 0, rng)
            support, query = episode_records(ep)
            assert not set(support) & set(query)
            assert all(l in ep.episode_classes for _, l in support)
            assert all(l in ep.episode_classes for _, l in query)

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
            for text in unlabeled_texts(ep):
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
        assert episode_records(a) == episode_records(b) and unlabeled_texts(a) == unlabeled_texts(b)


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


def _key_sampler_reference(dataset, split, part, n_way, per_class, n_unlabeled, rng):
    """One episode of the uniform-key scheme in plain Python, the oracle for
    `sample_episode_rows`: the same checks before any draw, then one row of
    keys; the smallest class keys pick the classes, each drawn class's W-wide
    key segment picks its rows (cells past its size would be +inf, so only
    its own cells are ranked), and the tail ranks every dataset row.
    Returns the drawn class names, each class's rows and the unlabeled rows."""
    pool = sorted(split.part(part))
    if len(pool) < n_way:
        raise ValueError(f"part {part!r} has {len(pool)} classes, needs {n_way}")
    members = [[i for i, (_, label) in enumerate(dataset.records) if label == name] for name in pool]
    for name, rows in zip(pool, members):
        if len(rows) < per_class:
            raise ValueError(f"class {name!r} has {len(rows)} records, needs {per_class}")
    if n_unlabeled > len(dataset):
        raise ValueError(f"cannot draw {n_unlabeled} unlabeled texts from {len(dataset)} records")
    width = max(len(rows) for rows in members)
    n_keys = len(pool) + n_way * width + (len(dataset) if n_unlabeled else 0)
    keys = rng.random(n_keys).tolist()

    def smallest(segment, n):
        return sorted(range(len(segment)), key=segment.__getitem__)[:n]

    chosen = smallest(keys[: len(pool)], n_way)
    rows = []
    for c, i in enumerate(chosen):
        start = len(pool) + c * width
        cells = keys[start : start + len(members[i])]
        rows.append([members[i][j] for j in smallest(cells, per_class)])
    unlabeled = smallest(keys[len(pool) + n_way * width :], n_unlabeled)
    return [pool[i] for i in chosen], rows, unlabeled


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


def _outcome(sample, *args):
    try:
        return sample(*args)
    except ValueError as exc:
        return ("error", str(exc))


RAGGED = dict(
    sizes=st.lists(st.integers(1, 9), min_size=3, max_size=8),
    order_seed=st.integers(0, 2**16),
    part=st.sampled_from(["train", "valid", "test"]),
    n_way=st.integers(1, 5),
    per_class=st.integers(1, 5),
    n_unlabeled=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
)


class TestKeySampler:
    """`sample_episode_rows` draws one contiguous row of uniform keys per
    episode and ranks classes, rows and unlabeled rows by key."""

    @settings(max_examples=150, deadline=None)
    @given(n_episodes=st.integers(1, 4), **RAGGED)
    def test_matches_per_episode_reference(
        self, sizes, order_seed, part, n_way, per_class, n_unlabeled, seed, n_episodes
    ):
        ds, split = _ragged_dataset(sizes, order_seed)
        args = (ds, split, part, n_way, per_class, n_unlabeled)
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _outcome(sample_episode_rows, *args, n_episodes, rng)
        expected = [_outcome(_key_sampler_reference, *args, rng_ref) for _ in range(n_episodes)]
        if got[0] == "error":
            assert [got] * n_episodes == expected
        else:
            pool, chosen, rows, unlabeled = got
            assert (chosen.shape, rows.shape, unlabeled.shape) == (
                (n_episodes, n_way), (n_episodes, n_way, per_class), (n_episodes, n_unlabeled)
            )
            assert unlabeled.dtype == np.intp
            for e, (classes, class_rows, unlabeled_rows) in enumerate(expected):
                assert [pool[i] for i in chosen[e]] == classes
                assert rows[e].tolist() == class_rows
                assert unlabeled[e].tolist() == unlabeled_rows
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(**RAGGED)
    def test_no_padding_row_and_distinct_rows(
        self, sizes, order_seed, part, n_way, per_class, n_unlabeled, seed
    ):
        ds, split = _ragged_dataset(sizes, order_seed)
        rng = np.random.default_rng(seed)
        outcome = _outcome(
            sample_episode_rows, ds, split, part, n_way, per_class, n_unlabeled, 30, rng
        )
        if outcome[0] == "error":
            return
        pool, chosen, rows, unlabeled = outcome
        assert rows.min() >= 0
        for e in range(30):
            for c, i in enumerate(chosen[e]):
                assert {ds.records[r][1] for r in rows[e, c]} == {pool[i]}
            assert len(set(rows[e].ravel().tolist())) == n_way * per_class
            assert len(set(chosen[e].tolist())) == n_way
            assert len(set(unlabeled[e].tolist())) == n_unlabeled

    @pytest.mark.parametrize("cap", [SAMPLE_BLOCK_BYTES, 1])
    @pytest.mark.parametrize("part, n_unlabeled", [("train", 5), ("valid", 0), ("test", 3)])
    def test_block_equals_single_episode_calls(self, corpus, monkeypatch, cap, part, n_unlabeled):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        args = (corpus, split, part, 5, 6, n_unlabeled)
        rng, rng_one = np.random.default_rng(12), np.random.default_rng(12)
        monkeypatch.setattr(data, "SAMPLE_BLOCK_BYTES", cap)
        pool, chosen, rows, unlabeled = sample_episode_rows(*args, 60, rng)
        monkeypatch.undo()
        for e in range(60):
            one = sample_episode_rows(*args, 1, rng_one)
            assert one[0] == pool
            np.testing.assert_array_equal(one[1][0], chosen[e])
            np.testing.assert_array_equal(one[2][0], rows[e])
            np.testing.assert_array_equal(one[3][0], unlabeled[e])
        assert rng.bit_generator.state == rng_one.bit_generator.state

    def test_episodes_equal_single_episode_calls(self, corpus):
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        args = (corpus, split, "train", 3, 2, 4, 5)
        rng, rng_one = np.random.default_rng(13), np.random.default_rng(13)
        block = sample_episodes(*args, 25, rng)
        for episode in block:
            one = sample_episode(*args, rng_one)
            np.testing.assert_array_equal(one.rows, episode.rows)
            np.testing.assert_array_equal(one.classes, episode.classes)
            np.testing.assert_array_equal(one.unlabeled_rows, episode.unlabeled_rows)
            assert (one.n_support, one.episode_classes) == (episode.n_support, episode.episode_classes)
        assert rng.bit_generator.state == rng_one.bit_generator.state

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
            sample_episode_rows(ds, split, "train", 2, per_class, n_unlabeled, 5, rng)
        assert rng.bit_generator.state == before

    def test_class_and_row_draw_rates(self, corpus):
        # each of the P train classes is drawn with probability n_way / P, and
        # each of a drawn class's 30 rows with probability per_class / 30;
        # binomial standard deviations over 20,000 episodes are below 0.004
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        pool, chosen, rows, _ = sample_episode_rows(
            corpus, split, "train", 5, 6, 0, 20_000, np.random.default_rng(14)
        )
        class_rate = np.bincount(chosen.ravel(), minlength=len(pool)) / 20_000
        np.testing.assert_allclose(class_rate, 5 / len(pool), atol=0.02)
        row_counts = np.bincount(rows.ravel(), minlength=len(corpus))
        for i, label in enumerate(pool):
            members = corpus.class_rows([label])
            row_rate = row_counts[members] / np.count_nonzero(chosen == i)
            np.testing.assert_allclose(row_rate, 6 / 30, atol=0.03)

    def test_peak_memory_is_output_plus_capped_chunks(self, corpus):
        # the bench's working set: low profile, 5-way, 1 + 5 rows per class,
        # 5 unlabeled rows ranked over all 400 working rows
        split = split_classes(corpus, (0.5, 0.25, 0.25), seed=0)
        working = restrict_low_profile(corpus, split, 10, seed=0)
        rng = np.random.default_rng(15)
        tracemalloc.start()
        try:
            _, chosen, rows, unlabeled = sample_episode_rows(
                working, split, "train", 5, 6, 5, 10_000, rng
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = chosen.nbytes + rows.nbytes + unlabeled.nbytes
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
