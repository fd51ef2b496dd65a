import json
from dataclasses import fields

import numpy as np
import pytest

from paraproto.cli import build_parser, main, resolve_data_path
from paraproto.decoding import DecodeConfig
from paraproto.experiment import RunConfig
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
        monkeypatch.setattr(experiment, "train_single_seed", lambda *args: trained.append(args))
        out = tmp_path / "neg"
        code = main(["train", "--dataset", corpus_path, "--out", str(out), *TINY_TRAIN, "--seeds", "0,-1"])
        assert code == 1
        assert "seeds" in capsys.readouterr().err
        assert trained == [] and not (out / "report.json").exists()

    def test_sweep_with_checkpoints_fails_before_any_training(self, corpus_path, tmp_path, capsys, monkeypatch):
        import paraproto.experiment as experiment

        trained = []
        monkeypatch.setattr(experiment, "train_single_seed", lambda *args: trained.append(args))
        out = tmp_path / "sweep"
        code = main(["train", "--dataset", corpus_path, "--out", str(out), "--pmask-sweep",
                     "--save-checkpoints", *TINY_TRAIN])
        assert code == 1
        assert "--save-checkpoints does not apply to --pmask-sweep" in capsys.readouterr().err
        assert trained == [] and not out.exists()

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

    def fake_evaluate(params, vocab, dataset, split, part, n_way, k_shot, query_per_class, n_episodes, rng,
                      distance):
        seen.append({"split": split, "part": part, "shape": (n_way, k_shot, query_per_class, n_episodes),
                     "distance": distance})
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
                         "shape": (3, 1, 3, 6), "distance": "sqeuclidean"}]

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
