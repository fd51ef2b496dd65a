import json
from dataclasses import fields

import numpy as np
import pytest

from paraproto.cli import build_parser, main, resolve_data_path
from paraproto.decoding import DecodeConfig
from paraproto.experiment import RunConfig, RunReport
from paraproto.synth import generate_synthetic_dataset
from test_experiment import rejects


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-data") / "synth.jsonl"
    generate_synthetic_dataset(path, n_classes=12, sentences_per_class=14, seed=0)
    return str(path)


TINY_TRAIN = [
    "--n-way", "3", "--k-shot", "1", "--query-per-class", "3",
    "--max-episodes", "20", "--eval-every", "10", "--patience", "2",
    "--eval-episodes", "6", "--seeds", "0",
]


class TestSynthData:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        code = main(["synth-data", "--out", str(out), "--classes", "10",
                     "--per-class", "5", "--seed", "1"])
        assert code == 0
        assert out.exists()
        assert len(out.read_text().splitlines()) == 50

    def test_bad_args_nonzero_exit(self, tmp_path, capsys):
        code = main(["synth-data", "--out", str(tmp_path / "x.jsonl"), "--classes", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("per_class", ["0", "-3"])
    def test_no_sentences_per_class_exits_nonzero_writing_nothing(self, tmp_path, capsys, per_class):
        # the file came out empty, and training on it failed later
        out = tmp_path / "corpus.jsonl"
        code = main(["synth-data", "--out", str(out), "--per-class", per_class])
        assert code == 1
        assert capsys.readouterr().err == f"error: need at least 1 sentence per class, got {per_class}\n"
        assert not out.exists()


class TestTrain:
    def test_baseline_run_writes_reports(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--dataset", corpus_path, "--strategy", "none",
                     "--out", str(out), "--save-checkpoints", *TINY_TRAIN])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "results.csv").exists()
        assert (out / "seed0_best.npz").exists()
        assert "mean test accuracy" in capsys.readouterr().out

    def test_config_file_plus_overrides(self, corpus_path, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            f"dataset_path={corpus_path}\nn_way=3\nk_shot=1\nquery_per_class=3\n"
            "max_episodes=20\neval_every=10\npatience=2\nn_eval_episodes=6\n"
            "seeds=0\nstrategy=none\n"
        )
        out = tmp_path / "run2"
        code = main(["train", "--config", str(config), "--strategy", "stub_bt",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "stub_bt"

    def test_config_file_without_dataset_takes_flag(self, corpus_path, tmp_path):
        config = tmp_path / "nods.conf"
        config.write_text(
            "n_way=3\nk_shot=1\nquery_per_class=3\nmax_episodes=20\neval_every=10\n"
            "patience=2\nn_eval_episodes=6\nseeds=0\nstrategy=none\n"
        )
        out = tmp_path / "run3"
        code = main(["train", "--config", str(config), "--dataset", corpus_path,
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["method"], report["n_way"]) == ("none", 3)

    def test_negative_seed_fails_before_any_training(self, corpus_path, tmp_path, capsys, monkeypatch):
        import paraproto.experiment as experiment

        trained = []
        monkeypatch.setattr(experiment, "train_plan", lambda *args: trained.append(args))
        out = tmp_path / "neg"
        code = main(["train", "--dataset", corpus_path, "--out", str(out), *TINY_TRAIN, "--seeds", "0,-1"])
        assert code == 1
        assert "seeds" in capsys.readouterr().err
        assert trained == [] and not (out / "report.json").exists()

    def test_sweep_with_checkpoints_fails_before_any_training(self, corpus_path, tmp_path, capsys, monkeypatch):
        import paraproto.experiment as experiment

        trained = []
        monkeypatch.setattr(experiment, "train_plan", lambda *args: trained.append(args))
        out = tmp_path / "sweep"
        code = main(["train", "--dataset", corpus_path, "--out", str(out), "--pmask-sweep",
                     "--save-checkpoints", *TINY_TRAIN])
        assert code == 1
        assert "--save-checkpoints does not apply to --pmask-sweep" in capsys.readouterr().err
        assert trained == [] and not out.exists()

    @pytest.mark.parametrize("classes, flags, message", [
        # 6 classes split 3/2/1, so the test part has one class; the run once
        # trained every block before its test episodes found that out
        pytest.param(6, ["--n-way", "2", "--max-episodes", "200", "--eval-every", "100", "--seeds", "0"],
                     "seed 0: part 'test' has 1 classes, needs 2", id="one-test-class"),
        # domain splits give 6/4/4 classes at seed 0 and 8/2/4 at seed 2; the
        # run once trained all of seed 0 before it split seed 2's classes
        pytest.param(14, ["--group-by-domain", "--n-way", "3", "--max-episodes", "20", "--eval-every", "10",
                          "--seeds", "0,2"], "seed 2: part 'valid' has 2 classes, needs 3",
                     id="later-seed-valid-part"),
    ])
    def test_part_too_small_for_an_episode_fails_before_any_episode(
        self, tmp_path, capsys, monkeypatch, classes, flags, message
    ):
        import paraproto.experiment as experiment

        steps = []
        monkeypatch.setattr(experiment, "combined_training_step", lambda *args: steps.append(args))
        data, out = tmp_path / "small.jsonl", tmp_path / "run"
        assert main(["synth-data", "--out", str(data), "--classes", str(classes), "--per-class", "10"]) == 0
        code = main(["train", "--dataset", str(data), "--out", str(out), "--strategy", "none",
                     "--eval-episodes", "5", *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert steps == [] and not out.exists()

    @pytest.mark.parametrize("flags, config_text", [
        (["--strategy", "none"], None),
        (["--strategy", "dbs"], None),
        ([], "strategy=dbs\n"),
    ])
    def test_sweep_of_another_strategy_fails_before_any_training(
        self, corpus_path, tmp_path, capsys, monkeypatch, flags, config_text
    ):
        # the sweep trains dbs_unigram at every p_mask; it once replaced any
        # other strategy, from a flag or a config file, without a word
        import paraproto.experiment as experiment

        trained = []
        monkeypatch.setattr(experiment, "train_plan", lambda *args: trained.append(args))
        if config_text is not None:
            (tmp_path / "run.conf").write_text(config_text)
            flags = ["--config", str(tmp_path / "run.conf")]
        out = tmp_path / "sweep"
        code = main(["train", "--dataset", corpus_path, "--out", str(out), "--pmask-sweep", *flags, *TINY_TRAIN])
        err = capsys.readouterr().err
        assert code == 1
        assert "--pmask-sweep" in err and "dbs_unigram" in err
        assert trained == [] and not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--strategy", "dbs_unigram"]])
    def test_sweep_without_another_strategy_trains_dbs_unigram(self, corpus_path, tmp_path, flags):
        out = tmp_path / "sweep"
        code = main(["train", "--dataset", corpus_path, "--out", str(out), "--pmask-sweep", *flags,
                     *TINY_TRAIN, "--max-episodes", "10", "--eval-episodes", "2", "--unlabeled", "2"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "dbs_unigram"
        assert [point[0] for point in report["pmask_series"]] == [round(0.1 * i, 1) for i in range(11)]

    def test_missing_dataset_fails(self, tmp_path, capsys):
        code = main(["train", "--dataset", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "r"), *TINY_TRAIN])
        assert code == 1
        assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_run(corpus_path, tmp_path_factory):
    """A tiny run's checkpoints of seeds 0 and 1."""
    out = tmp_path_factory.mktemp("cli-run")
    assert main(["train", "--dataset", corpus_path, "--strategy", "none", "--out", str(out),
                 "--save-checkpoints", *TINY_TRAIN, "--seeds", "0,1"]) == 0
    return out


def capture_evaluate(monkeypatch):
    """Swap the CLI's `evaluate` for one that records its inputs; returns the records."""
    import paraproto.cli as cli
    from paraproto.protonet import EvalResult

    seen = []

    def fake_evaluate(params, tokens, source, n_episodes, rng, distance):
        shape = (source.n_way, source.k_shot, source.query_per_class, n_episodes)
        seen.append({"split": source.split, "part": source.part, "shape": shape,
                     "distance": distance, "tokens": len(tokens), "records": len(source.dataset)})
        return EvalResult(mean_accuracy=0.0, per_episode_accuracies=[], episode_count=0)

    monkeypatch.setattr(cli, "evaluate", fake_evaluate)
    return seen


class TestEvaluate:
    def test_checkpoint_evaluation(self, corpus_path, trained_run, capsys):
        code = main(["evaluate", "--checkpoint", str(trained_run / "seed0_best.npz"),
                     "--dataset", corpus_path, "--part", "test", "--n-way", "3",
                     "--k-shot", "1", "--query-per-class", "3", "--episodes", "10"])
        assert code == 0
        assert "test accuracy over 10 episodes" in capsys.readouterr().out

    def test_scores_the_split_its_seed_trained_on(self, corpus_path, trained_run, monkeypatch):
        # seed s trains on split_classes(..., seed=s); evaluate once rebuilt
        # the split from --split-seed 0, and so scored seed 1's checkpoint
        # on classes it had trained on
        from paraproto.data import load_dataset, split_classes

        seen = capture_evaluate(monkeypatch)
        assert main(["evaluate", "--checkpoint", str(trained_run / "seed1_best.npz"),
                     "--dataset", corpus_path]) == 0
        dataset = load_dataset(corpus_path)
        ratios = RunConfig(dataset_path=corpus_path).split_ratios
        assert split_classes(dataset, ratios, seed=1) != split_classes(dataset, ratios, seed=0)
        assert seen == [{"split": split_classes(dataset, ratios, seed=1), "part": "test",
                         "shape": (3, 1, 3, 6), "distance": "sqeuclidean",
                         "tokens": len(dataset), "records": len(dataset)}]

    def test_flags_override_the_runs_episode_shape(self, corpus_path, trained_run, monkeypatch):
        seen = capture_evaluate(monkeypatch)
        assert main(["evaluate", "--checkpoint", str(trained_run / "seed0_best.npz"),
                     "--dataset", corpus_path, "--part", "valid", "--n-way", "2",
                     "--query-per-class", "4", "--episodes", "9"]) == 0
        assert (seen[0]["part"], seen[0]["shape"]) == ("valid", (2, 1, 4, 9))

    def test_scores_with_the_trained_distance(self, corpus_path, tmp_path, monkeypatch):
        out = tmp_path / "cosine"
        assert main(["train", "--dataset", corpus_path, "--strategy", "none", "--out", str(out),
                     "--save-checkpoints", "--distance", "cosine", *TINY_TRAIN]) == 0
        seen = capture_evaluate(monkeypatch)
        assert main(["evaluate", "--checkpoint", str(out / "seed0_best.npz"), "--dataset", corpus_path]) == 0
        assert seen[0]["distance"] == "cosine"

    def test_checkpoint_without_run_refused(self, corpus_path, tmp_path, capsys):
        from paraproto.data import load_dataset
        from paraproto.encoder import EncoderParams, Vocabulary, save_checkpoint

        vocab = Vocabulary.from_texts(load_dataset(corpus_path).texts())
        save_checkpoint(tmp_path / "old.npz", EncoderParams.init(len(vocab), 4, 4), vocab)
        code = main(["evaluate", "--checkpoint", str(tmp_path / "old.npz"), "--dataset", corpus_path])
        captured = capsys.readouterr()
        assert code == 1
        assert "records no run" in captured.err and "retrain" in captured.err
        assert "accuracy" not in captured.out

    @pytest.mark.parametrize("field", ["dataset_sha256", "valid_classes"])
    def test_checkpoint_run_missing_a_field_named(self, corpus_path, trained_run, tmp_path, capsys, field):
        from paraproto.encoder import load_checkpoint, save_checkpoint

        params, vocab, run = load_checkpoint(trained_run / "seed0_best.npz")
        del run[field]
        save_checkpoint(tmp_path / "partial.npz", params, vocab, run)
        code = main(["evaluate", "--checkpoint", str(tmp_path / "partial.npz"), "--dataset", corpus_path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {tmp_path / 'partial.npz'} records a run with no {field!r}\n"
        assert "accuracy" not in captured.out

    def test_other_dataset_refused(self, trained_run, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        generate_synthetic_dataset(other, n_classes=12, sentences_per_class=14, seed=1)
        code = main(["evaluate", "--checkpoint", str(trained_run / "seed0_best.npz"), "--dataset", str(other)])
        captured = capsys.readouterr()
        assert code == 1
        assert "SHA-256 differs" in captured.err and "accuracy" not in captured.out

    @pytest.mark.parametrize("flags, message", [
        (["--episodes", "0"], "n_episodes must be >= 1"),
        (["--query-per-class", "0"], "query_per_class must be >= 1"),
    ])
    def test_degenerate_episodes_exit_nonzero(self, corpus_path, trained_run, capsys, flags, message):
        code = main(["evaluate", "--checkpoint", str(trained_run / "seed0_best.npz"),
                     "--dataset", corpus_path, *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err and "accuracy" not in captured.out

    def test_run_settings_are_not_flags(self):
        # they come from the checkpoint; `--group-by-domain` and `--distance`
        # are RunConfig fields, so the dest guard below would let them back
        subparsers = build_parser()._subparsers._group_actions[0]
        flags = {flag for action in subparsers.choices["evaluate"]._actions for flag in action.option_strings}
        assert not flags & {"--split-seed", "--ratios", "--group-by-domain", "--distance"}

    def test_checkpoint_with_mismatched_vocabulary_exits_nonzero(self, corpus_path, tmp_path, capsys):
        from paraproto.data import load_dataset
        from paraproto.encoder import EncoderParams, Vocabulary, save_checkpoint

        vocab = Vocabulary.from_texts(load_dataset(corpus_path).texts())
        save_checkpoint(tmp_path / "ckpt.npz", EncoderParams.init(len(vocab) - 1, 4, 4), vocab)
        code = main(["evaluate", "--checkpoint", str(tmp_path / "ckpt.npz"),
                     "--dataset", corpus_path])
        captured = capsys.readouterr()
        assert code == 1
        assert "corrupt checkpoint" in captured.err and "accuracy" not in captured.out


class TestParaphrase:
    def test_jsonl_output(self, corpus_path, tmp_path):
        sentences = tmp_path / "sents.txt"
        sentences.write_text("can you play the music\nplease check my balance\n")
        out = tmp_path / "para.jsonl"
        code = main(["paraphrase", "--corpus", corpus_path, "--sentences",
                     str(sentences), "--out", str(out), "--strategy", "dbs_unigram",
                     "--seed", "3"])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {"source", "paraphrases"}
            assert len(row["paraphrases"]) == 5

    def test_stub_bt_strategy(self, corpus_path, tmp_path):
        sentences = tmp_path / "sents.txt"
        sentences.write_text("book the flight now\n")
        out = tmp_path / "para.jsonl"
        code = main(["paraphrase", "--corpus", corpus_path, "--sentences",
                     str(sentences), "--out", str(out), "--strategy", "stub_bt",
                     "--paraphrases", "4"])
        assert code == 0
        row = json.loads(out.read_text())
        assert len(row["paraphrases"]) == 4

    def test_paraphrase_count_defaults_to_num_groups(self, corpus_path, tmp_path):
        sentences = tmp_path / "sents.txt"
        sentences.write_text("book the flight now\n")
        out = tmp_path / "para.jsonl"
        code = main(["paraphrase", "--corpus", corpus_path, "--sentences", str(sentences),
                     "--out", str(out), "--strategy", "stub_bt", "--num-beams", "6", "--num-groups", "3"])
        assert code == 0
        assert len(json.loads(out.read_text())["paraphrases"]) == 3

    @pytest.mark.parametrize("strategy", ["dbs", "stub_bt"])
    @pytest.mark.parametrize("n", ["-1", "1", "3", "5", "7"])
    def test_paraphrase_count_checked_as_the_decoder_checks_it(self, corpus_path, tmp_path, capsys, strategy, n):
        # `--strategy dbs --paraphrases 3` once wrote 5 paraphrases per
        # sentence, while `train` and the decoder reject 3 != num_groups
        from paraproto.data import load_dataset
        from paraproto.decoding import SynonymBigramLM, generate_paraphrase_batch
        from paraproto.synth import default_synonym_table

        lm = SynonymBigramLM(load_dataset(corpus_path).texts(), default_synonym_table())
        decoder_rejects = rejects(lambda: generate_paraphrase_batch(
            lm, ["book the flight"], int(n), strategy, DecodeConfig(), np.random.default_rng(0)
        ))
        sentences = tmp_path / "sents.txt"
        sentences.write_text("book the flight\n")
        out = tmp_path / "para.jsonl"
        code = main(["paraphrase", "--corpus", corpus_path, "--sentences", str(sentences),
                     "--out", str(out), "--strategy", strategy, "--paraphrases", n])
        assert code == (1 if decoder_rejects else 0)
        if decoder_rejects:
            assert "n_paraphrases" in capsys.readouterr().err and not out.exists()
        else:
            assert len(json.loads(out.read_text())["paraphrases"]) == int(n)

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_stub_bt_without_paraphrases_exits_nonzero(self, corpus_path, tmp_path, capsys, n):
        sentences = tmp_path / "sents.txt"
        sentences.write_text("book the flight\n")
        out = tmp_path / "para.jsonl"
        code = main(["paraphrase", "--corpus", corpus_path, "--sentences", str(sentences),
                     "--out", str(out), "--strategy", "stub_bt", "--paraphrases", n])
        assert code == 1
        assert "n_paraphrases must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestDiversity:
    def test_json_summary(self, corpus_path, tmp_path):
        out = tmp_path / "div.json"
        code = main(["diversity", "--dataset", corpus_path, "--strategies",
                     "stub_bt,dbs", "--n-sentences", "5", "--out", str(out),
                     "--num-beams", "6", "--num-groups", "3"])
        assert code == 0
        summary = json.loads(out.read_text())
        assert set(summary) == {"stub_bt", "dbs"}

    @pytest.mark.parametrize("strategies, message", [
        ("dbs,dbs_unigram,zzz", "unknown strategy 'zzz'"),
        (",", "no strategy given"),
        ("dbs,dbs", "strategies must be distinct"),
    ])
    def test_bad_strategy_list_exits_nonzero(self, corpus_path, tmp_path, capsys, strategies, message):
        out = tmp_path / "div.json"
        code = main(["diversity", "--dataset", corpus_path, "--strategies", strategies,
                     "--n-sentences", "5", "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_no_sentences_exits_nonzero(self, corpus_path, tmp_path, capsys):
        # the means over zero sentences were NaN, which is not JSON
        out = tmp_path / "div.json"
        code = main(["diversity", "--dataset", corpus_path, "--strategies", "stub_bt",
                     "--n-sentences", "0", "--out", str(out)])
        assert code == 1
        assert "n_sentences must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def _seed_result(edit=None):
    """A seed result as report.json holds it; an `edit` value of None drops that key."""
    from dataclasses import asdict

    from paraproto.experiment import SeedResult

    result = asdict(SeedResult(seed=0, test_accuracy=0.5, best_val_accuracy=0.5, best_eval_index=1,
                               episodes_run=1, n_evaluations=1, eval_episode_count=1, stopped_early=False,
                               loss_curve=[(1, 0.1, 0.0, 0.0, 0.1)], val_curve=[(1, 0.5)]))
    result.update(edit or {})
    return {k: v for k, v in result.items() if v is not None}


class TestReport:
    def test_reemission_is_identical(self, corpus_path, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--dataset", corpus_path, "--strategy", "none",
                     "--out", str(out), *TINY_TRAIN]) == 0
        out2 = tmp_path / "run-copy"
        code = main(["report", "--report", str(out / "report.json"),
                     "--out", str(out2)])
        assert code == 0
        assert (out2 / "report.json").read_bytes() == (out / "report.json").read_bytes()
        assert (out2 / "results.csv").read_bytes() == (out / "results.csv").read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda report: [report], "a report must be a JSON object, got list"),
        (lambda report: {k: v for k, v in report.items() if k != "mean_accuracy"},
         "report is missing key 'mean_accuracy'"),
        (lambda report: {**report, "extra": 1}, "report has unknown key 'extra'"),
        (lambda report: {**report, "seed_results": [_seed_result({"loss_curve": None})]},
         "seed result 0 is missing key 'loss_curve'"),
        (lambda report: {**report, "seed_results": [_seed_result(), _seed_result(), _seed_result({"extra": 1})]},
         "seed result 2 has unknown key 'extra'"),
        (lambda report: {**report, "seed_results": [[]]}, "a seed result 0 must be a JSON object, got list"),
        # once loaded, then failed with numpy's message when its mean was
        # taken; the output directory once was made before that
        pytest.param(lambda report: {**report, "seed_results": [_seed_result({"test_accuracy": "x"})]},
                     "seed result 0 field 'test_accuracy' must be a number, got str", id="non-numeric-test-accuracy"),
        pytest.param(lambda report: {**report, "seed_results": [_seed_result({"seed": True})]},
                     "seed result 0 field 'seed' must be an integer, got bool", id="boolean-seed"),
        pytest.param(lambda report: {**report, "seed_results": [_seed_result(), _seed_result({"stopped_early": 0})]},
                     "seed result 1 field 'stopped_early' must be a boolean, got int", id="integer-stopped-early"),
        pytest.param(lambda report: {**report, "seed_results": [_seed_result({"val_curve": [[1, 0.5, 0.5]]})]},
                     "seed result 0 field 'val_curve' must be a list of [integer, number] rows, got list",
                     id="val-curve-row-too-long"),
        # the report's own fields: a string integer and a numeric method once
        # loaded; a non-numeric p_mask row was written to pmask_series.csv;
        # a non-list series or seed list failed with "'int' object is not iterable"
        pytest.param(lambda report: {**report, "n_way": "x"},
                     "report field 'n_way' must be an integer, got str", id="string-n-way"),
        pytest.param(lambda report: {**report, "k_shot": 1.0},
                     "report field 'k_shot' must be an integer, got float", id="float-k-shot"),
        pytest.param(lambda report: {**report, "method": 7},
                     "report field 'method' must be a string, got int", id="integer-method"),
        pytest.param(lambda report: {**report, "profile": None},
                     "report field 'profile' must be a string, got NoneType", id="null-profile"),
        pytest.param(lambda report: {**report, "pmask_series": [[0.1, "a", 0.2]]},
                     "report field 'pmask_series' must be a list of [number, number, number] rows or null, got list",
                     id="non-numeric-pmask-row"),
        pytest.param(lambda report: {**report, "pmask_series": 5},
                     "report field 'pmask_series' must be a list of [number, number, number] rows or null, got int",
                     id="integer-pmask-series"),
        pytest.param(lambda report: {**report, "seed_results": 5},
                     "report field 'seed_results' must be a list of SeedResult objects, got int",
                     id="integer-seed-results"),
        # the stored summary once was dropped unread, and the CSV written
        # from the seeds alone
        pytest.param(lambda report: {**report, "mean_accuracy": "x", "std_accuracy": [1],
                                     "seed_results": [_seed_result()]},
                     'report field \'mean_accuracy\' must be 0.5 (recomputed from its seed results), got "x"',
                     id="non-numeric-summary"),
        pytest.param(lambda report: {**report, "mean_accuracy": 0.5, "std_accuracy": [1],
                                     "seed_results": [_seed_result()]},
                     "report field 'std_accuracy' must be 0.0 (recomputed from its seed results), got [1]",
                     id="list-std"),
        pytest.param(lambda report: {**report, "mean_accuracy": 0.4, "std_accuracy": 0.0,
                                     "seed_results": [_seed_result()]},
                     "report field 'mean_accuracy' must be 0.5 (recomputed from its seed results), got 0.4",
                     id="mean-disagrees-with-seeds"),
        pytest.param(lambda report: {**report, "mean_accuracy": 1, "std_accuracy": 0.0,
                                     "seed_results": [_seed_result({"test_accuracy": 1.0})]},
                     "report field 'mean_accuracy' must be 1.0 (recomputed from its seed results), got 1",
                     id="integer-mean"),
        pytest.param(lambda report: {**report, "std_accuracy": 0.0},
                     "report field 'std_accuracy' must be null (recomputed from its seed results), got 0.0",
                     id="summary-without-seeds"),
    ])
    def test_malformed_report_exits_nonzero_naming_the_problem(self, tmp_path, capsys, edit, message):
        report = RunReport(method="none", profile="full", n_way=3, k_shot=1, seed_results=[])
        path = tmp_path / "report.json"
        path.write_text(json.dumps(edit(json.loads(report.to_json()))))
        code = main(["report", "--report", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()


class TestDataDirEnv:
    def test_relative_path_resolves_through_env(self, corpus_path, tmp_path, monkeypatch):
        import shutil

        data_dir = tmp_path / "data-home"
        data_dir.mkdir()
        shutil.copy(corpus_path, data_dir / "corpus.jsonl")
        monkeypatch.setenv("PARAPROTO_DATA_DIR", str(data_dir))
        monkeypatch.chdir(tmp_path)
        assert resolve_data_path("corpus.jsonl") == str(data_dir / "corpus.jsonl")

    def test_config_file_path_resolves_through_env(self, corpus_path, tmp_path, monkeypatch):
        import shutil

        data_dir = tmp_path / "data-home"
        data_dir.mkdir()
        shutil.copy(corpus_path, data_dir / "corpus.jsonl")
        (tmp_path / "run.conf").write_text(
            "dataset_path=corpus.jsonl\nn_way=3\nk_shot=1\nquery_per_class=3\n"
            "max_episodes=20\neval_every=10\npatience=2\nn_eval_episodes=6\nseeds=0\n"
        )
        monkeypatch.setenv("PARAPROTO_DATA_DIR", str(data_dir))
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", "run.conf", "--out", "run"]) == 0
        assert (tmp_path / "run" / "report.json").exists()

    def test_absolute_path_wins(self, corpus_path, monkeypatch):
        monkeypatch.setenv("PARAPROTO_DATA_DIR", "/nonexistent")
        assert resolve_data_path(corpus_path) == corpus_path


# dests of options that configure the command itself rather than a run or decode
NON_CONFIG_DESTS = {
    "help", "config", "out", "pmask_sweep", "save_checkpoints", "seed", "corpus",
    "sentences", "strategies", "n_sentences", "checkpoint", "dataset", "part",
}


@pytest.mark.parametrize("command", ["train", "evaluate", "paraphrase", "diversity"])
def test_option_dests_are_config_fields(command):
    """Overrides are read by field name, so a flag whose dest is not a
    RunConfig or DecodeConfig field would be dropped without a word."""
    subparsers = build_parser()._subparsers._group_actions[0]
    known = {f.name for f in fields(RunConfig) + fields(DecodeConfig)} | NON_CONFIG_DESTS
    dests = {action.dest for action in subparsers.choices[command]._actions}
    assert dests <= known, f"{command} options with no config field: {sorted(dests - known)}"
