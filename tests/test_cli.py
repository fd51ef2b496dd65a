import json
from dataclasses import fields

import pytest

from paraproto.cli import build_parser, main, resolve_data_path
from paraproto.decoding import DecodeConfig
from paraproto.experiment import RunConfig
from paraproto.synth import generate_synthetic_dataset


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
        assert sum(1 for _ in open(out)) == 50

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

    def test_missing_dataset_fails(self, tmp_path, capsys):
        code = main(["train", "--dataset", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "r"), *TINY_TRAIN])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_checkpoint_evaluation(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--dataset", corpus_path, "--strategy", "none",
                     "--out", str(out), "--save-checkpoints", *TINY_TRAIN]) == 0
        code = main(["evaluate", "--checkpoint", str(out / "seed0_best.npz"),
                     "--dataset", corpus_path, "--part", "test", "--n-way", "3",
                     "--k-shot", "1", "--query-per-class", "3", "--episodes", "10",
                     "--split-seed", "0"])
        assert code == 0
        assert "test accuracy over 10 episodes" in capsys.readouterr().out


    def test_default_ratios_are_training_split(self, corpus_path, tmp_path, monkeypatch):
        import paraproto.cli as cli
        from paraproto.data import load_dataset, split_classes
        from paraproto.encoder import EncoderParams, Vocabulary, save_checkpoint
        from paraproto.experiment import RunConfig
        from paraproto.protonet import EvalResult

        dataset = load_dataset(corpus_path)
        vocab = Vocabulary.from_texts(dataset.texts())
        save_checkpoint(tmp_path / "ckpt.npz", EncoderParams.init(len(vocab), 4, 4), vocab)
        seen = []

        def fake_evaluate(params, vocab, ds, split, *args):
            seen.append(split)
            return EvalResult(mean_accuracy=0.0, per_episode_accuracies=[], episode_count=0)

        monkeypatch.setattr(cli, "evaluate", fake_evaluate)
        assert cli.main(["evaluate", "--checkpoint", str(tmp_path / "ckpt.npz"),
                         "--dataset", corpus_path]) == 0
        trained = RunConfig(dataset_path=corpus_path).split_ratios
        assert seen == [split_classes(dataset, trained, seed=0)]


    @pytest.mark.parametrize("flags, message", [
        (["--episodes", "0"], "n_episodes must be >= 1"),
        (["--query-per-class", "0"], "query_per_class must be >= 1"),
    ])
    def test_degenerate_episodes_exit_nonzero(self, corpus_path, tmp_path, capsys, flags, message):
        from paraproto.data import load_dataset
        from paraproto.encoder import EncoderParams, Vocabulary, save_checkpoint

        vocab = Vocabulary.from_texts(load_dataset(corpus_path).texts())
        save_checkpoint(tmp_path / "ckpt.npz", EncoderParams.init(len(vocab), 4, 4), vocab)
        code = main(["evaluate", "--checkpoint", str(tmp_path / "ckpt.npz"),
                     "--dataset", corpus_path, *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err and "accuracy" not in captured.out

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
        rows = [json.loads(line) for line in open(out)]
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
    "sentences", "strategies", "n_sentences",
}


@pytest.mark.parametrize("command", ["train", "paraphrase", "diversity"])
def test_option_dests_are_config_fields(command):
    """Overrides are read by field name, so a flag whose dest is not a
    RunConfig or DecodeConfig field would be dropped without a word."""
    subparsers = build_parser()._subparsers._group_actions[0]
    known = {f.name for f in fields(RunConfig) + fields(DecodeConfig)} | NON_CONFIG_DESTS
    dests = {action.dest for action in subparsers.choices[command]._actions}
    assert dests <= known, f"{command} options with no config field: {sorted(dests - known)}"
