"""Tests of the benchmark's own logic: span self time, the percentile rule,
the rescaling to reference speed, and that every output check fires on a
corrupted output.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import measure
import tracing
import workloads

pkg = workloads.import_paraproto()


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children [1, 3] and [4, 8]; [5, 6] is a grandchild
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    parent = np.array([-1, 0, 0, 2])
    assert tracing.self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_self_time_clips_children_to_the_parent_interval():
    start = np.array([0.0, 8.0])
    end = np.array([10.0, 12.0])
    parent = np.array([-1, 0])
    assert tracing.self_times(start, end, parent).tolist() == [8.0, 4.0]


def test_tracer_records_nesting_and_requests():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.set_request("a")
    assert outer(1) == 4
    tracer.set_request("b")
    assert inner(5) == 6
    spans = tracer.spans()
    assert [spans.names[i] for i in spans.name] == ["outer", "inner", "inner"]
    assert spans.parent.tolist() == [-1, 0, -1]
    assert [spans.requests[i] for i in spans.request] == ["a", "a", "b"]
    assert np.all(spans.end >= spans.start)
    totals = tracing.layer_totals(spans, {"a"})
    assert totals["inner"].calls == 1 and totals["outer"].calls == 1
    assert math.isclose(totals["outer"].self_s, totals["outer"].s - totals["inner"].s)


def test_installed_patches_every_namespace_and_restores():
    original = pkg.encoder.encode
    tracer = tracing.Tracer()
    with tracer.installed():
        for module in (pkg.protonet, pkg.consistency, pkg.metrics, pkg.encoder):
            assert module.encode is not original
        tracer.set_request("r")
        vocab = pkg.Vocabulary(["play", "music"])
        params = pkg.EncoderParams.init(len(vocab), 4, 4)
        pkg.protonet.encode(params, ["play"], vocab)
    for module in (pkg.protonet, pkg.consistency, pkg.metrics, pkg.encoder):
        assert module.encode is original
    assert isinstance(pkg.Vocabulary.__dict__["from_texts"], classmethod)
    totals = tracing.layer_totals(tracer.spans(), {"r"})
    assert totals["encoder.encode"].calls == 1


@pytest.mark.parametrize(
    "n, q, ok",
    [(999, 99, False), (1000, 99, True), (19, 50, False), (20, 50, True), (0, 50, False)],
)
def test_percentile_needs_ten_samples_beyond_it(n, q, ok):
    value = measure.tail_percentile(list(range(n)), q)
    assert (value is not None) == ok


def test_p99_of_1000_samples_leaves_ten_above():
    values = list(range(1000))
    p99 = measure.tail_percentile(values, 99)
    assert sum(v > p99 for v in values) == 10


def test_reference_speed_scales_by_the_nearby_calibrations():
    ref = measure.CALIBRATION_S
    assert measure.at_reference_speed(2.0, [ref, ref], 0) == pytest.approx(2.0)
    # A machine running at half speed doubles both the calibrations and the
    # work; the scaled time stays where it was.
    assert measure.at_reference_speed(4.0, [1.5 * ref, 2.5 * ref], 0) == pytest.approx(2.0)
    # The unit between calibrations 2 and 3 uses calibrations 1 to 4 only.
    cal = [9.0, ref, ref, 3 * ref, 3 * ref, 9.0]
    assert measure.at_reference_speed(4.0, cal, 2) == pytest.approx(2.0)


def test_calibration_takes_a_positive_time():
    assert measure.calibrate() > 0


SOURCE = "can you play the music".split()


def _check(outputs, strategy, banned=frozenset(), n=3):
    return checks.check_paraphrases(outputs, n, SOURCE, [o.split() for o in outputs], strategy, banned)


def test_paraphrase_checks_pass_on_good_output():
    good = ["could you start some tunes", "put on songs please", "start music for me"]
    assert _check(good, "dbs") == []
    assert _check(good, "dbs_bigram") == []
    assert _check(good, "dbs_unigram", frozenset({"play"})) == []


def test_paraphrase_check_fires_on_missing_or_empty_outputs():
    assert _check(["a b", "c d"], "dbs")
    assert _check(["a b", "", "c d"], "dbs")


def test_bigram_check_fires_on_a_source_bigram():
    assert _check(["could you start", "put on songs", "play the tunes"], "dbs_bigram")


def test_unigram_check_fires_on_a_banned_token():
    outputs = ["could you start", "put on songs", "start music"]
    assert _check(outputs, "dbs_unigram", frozenset({"music"}))


def test_replayed_unigram_bans_pass_real_output_and_catch_a_corrupt_one():
    """Bans replayed from the rng state before each call find nothing in the
    decoder's real output, and catch a banned token put into it; the pass
    also no longer matches the first pass."""
    dataset, lm = workloads.prepare("paraphrase", workloads.write_corpus(0, _tmp()))
    work = workloads.ParaphraseWorkload(pkg, lm, dataset.texts()[:3], 0)
    _, records = work.run_unit(0)
    assert all(problems == [] for problems in work.check_unit(records)[0])
    # corrupt one dbs_unigram output with a token its own ban set holds
    for i, (strategy, sentence, state, outputs, dt) in enumerate(records):
        if strategy != "dbs_unigram":
            continue
        replay = np.random.Generator(np.random.PCG64())
        replay.bit_generator.state = state
        banned = pkg.build_unigram_constraints(
            pkg.tokenize(sentence), work.decode.p_mask, work.decode.curve, replay
        ).banned_unigrams
        if banned:
            bad = [f"{outputs[0]} {sorted(banned)[0]}", *outputs[1:]]
            records[i] = (strategy, sentence, state, bad, dt)
            break
    else:
        pytest.fail("no dbs_unigram call banned anything")
    problems = [" ".join(p) for p in work.check_unit(records)[0]]
    assert any("banned unigram" in p and "differs from the first pass" in p for p in problems)


def test_digest_changes_with_any_output():
    outputs = [["a b", "c d"], ["e f", "g h"]]
    corrupted = [["a b", "c d"], ["e f", "g x"]]
    assert checks.digest(outputs) == checks.digest([list(o) for o in outputs])
    assert checks.digest(outputs) != checks.digest(corrupted)


def test_golden_digests_match_the_committed_file():
    import run

    golden = json.loads(run.GOLDEN.read_text())["digests"]
    assert run.golden_digests(pkg) == golden


def _seed_result(**overrides):
    base = pkg.SeedResult(
        seed=0,
        test_accuracy=0.6,
        best_val_accuracy=0.6,
        best_eval_index=1,
        episodes_run=200,
        n_evaluations=4,
        eval_episode_count=200,
        stopped_early=False,
        loss_curve=[(i, 1.0, 0.0, 0.0, 1.0) for i in range(1, 201)],
        val_curve=[(50, 0.6), (100, 0.6), (150, 0.6), (200, 0.6)],
    )
    return replace(base, **overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"episodes_run": 150},
        {"n_evaluations": 3},
        {"eval_episode_count": 100},
        {"loss_curve": [(1, float("nan"), 0.0, 0.0, 1.0)] + [(i, 1.0, 0.0, 0.0, 1.0) for i in range(2, 201)]},
        {"loss_curve": [(i, 1.0, 0.0, 0.0, 1.0) for i in range(1, 100)]},
    ],
)
def test_training_check_fires_on_each_corruption(overrides):
    problems = checks.check_training(_seed_result(**overrides), 200, 50, 200)
    assert bool(problems) == bool(overrides)


def test_accuracy_check_fires_when_the_mean_is_at_chance():
    assert checks.check_accuracy([0.19, 0.45, 0.5], 5) == []
    assert checks.check_accuracy([0.2, 0.2], 5)
    assert checks.check_accuracy([0.1, 0.25], 5)


def _tmp() -> Path:
    out = workloads.ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    return out
