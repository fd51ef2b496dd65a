"""Command-line entry points: train, evaluate, paraphrase, diversity,
synth-data, and report. Relative dataset paths resolve against
$PARAPROTO_DATA_DIR when set."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import numerics
from .configio import dataclass_from_kv, parse_kv_text
from .data import PARTS, ClassSplit, load_dataset
from .decoding import (
    CURVES, STRATEGIES, DecodeConfig, SynonymBigramLM, check_paraphrase_count, generate_paraphrase_batch,
)
from .encoder import load_checkpoint
from .experiment import (
    METHODS,
    PROFILES,
    RunConfig,
    RunReport,
    diversity_by_strategy,
    emit_report,
    run_experiment,
    run_pmask_sweep,
)
from .protonet import evaluate
from .synth import default_synonym_table, generate_synthetic_dataset

DATA_DIR_ENV = "PARAPROTO_DATA_DIR"


def resolve_data_path(path: str) -> str:
    candidate = Path(path)
    if candidate.is_absolute() or candidate.exists():
        return str(candidate)
    base = os.environ.get(DATA_DIR_ENV)
    if base and (Path(base) / candidate).exists():
        return str(Path(base) / candidate)
    return str(candidate)


def _add_decode_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--num-beams", type=int, default=None)
    parser.add_argument("--num-groups", type=int, default=None)
    parser.add_argument("--diversity-penalty", type=float, default=None)
    parser.add_argument("--p-mask", type=float, default=None)
    parser.add_argument("--curve", choices=CURVES, default=None)
    parser.add_argument("--max-len", type=int, default=None)


def _overrides(args: argparse.Namespace, cls, prefix: str = "") -> dict[str, str]:
    """The flags set on the command line whose dest is a field of `cls`, as
    `prefix + field` string pairs."""
    values = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return {prefix + name: str(v) for name, v in values.items() if v is not None}


def cmd_train(args: argparse.Namespace) -> int:
    if args.pmask_sweep and args.save_checkpoints:
        raise ValueError("--save-checkpoints does not apply to --pmask-sweep, which keeps no checkpoint")
    # the flags complete the file before either is checked, so a file may
    # leave out what the command line gives, such as dataset_path
    pairs = parse_kv_text(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    pairs.update(_overrides(args, RunConfig))
    pairs.update(_overrides(args, DecodeConfig, "decode."))
    config = dataclass_from_kv(RunConfig, pairs)
    config = replace(config, dataset_path=resolve_data_path(config.dataset_path))

    out_dir = Path(args.out)
    if args.pmask_sweep:
        report = run_pmask_sweep(config)
    else:
        report = run_experiment(
            config, checkpoint_dir=out_dir if args.save_checkpoints else None
        )
    written = emit_report(report, out_dir)
    if report.seed_results:
        print(f"{report.method}: mean test accuracy {report.mean_accuracy:.4f} "
              f"± {report.std_accuracy:.4f} over {len(report.seed_results)} seeds")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    params, vocab, run = load_checkpoint(args.checkpoint)
    if "config" not in run:
        raise ValueError(f"{args.checkpoint} records no run to evaluate against; retrain it")
    dataset = load_dataset(resolve_data_path(args.dataset))
    if dataset.digest() != run["dataset_sha256"]:
        raise ValueError(f"{args.dataset} is not the dataset {args.checkpoint} was trained on: the SHA-256 differs")
    config = RunConfig.from_text(run["config"])
    split = ClassSplit(*(frozenset(run[f"{part}_classes"]) for part in PARTS))
    shape = [getattr(config, name) if getattr(args, name) is None else getattr(args, name)
             for name in ("n_way", "k_shot", "query_per_class", "n_eval_episodes")]
    result = evaluate(
        params, vocab, dataset, split, args.part, *shape, np.random.default_rng(args.seed), config.distance
    )
    print(f"{args.part} accuracy over {result.episode_count} episodes: {result.mean_accuracy:.4f}")
    return 0


def cmd_paraphrase(args: argparse.Namespace) -> int:
    decode = dataclass_from_kv(DecodeConfig, _overrides(args, DecodeConfig))
    n = decode.num_groups if args.n_paraphrases is None else args.n_paraphrases
    check_paraphrase_count(n, args.strategy, decode.num_groups)
    corpus = load_dataset(resolve_data_path(args.corpus))
    lm = SynonymBigramLM(corpus.texts(), default_synonym_table())
    if args.sentences == "-":
        lines = [line.strip() for line in sys.stdin if line.strip()]
    else:
        lines = [
            line.strip()
            for line in Path(args.sentences).read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
    decoded = generate_paraphrase_batch(
        lm, lines, n, args.strategy, decode, np.random.default_rng(args.seed)
    )
    out = open(args.out, "w", encoding="utf-8") if args.out != "-" else sys.stdout
    try:
        for sentence, paraphrases in zip(lines, decoded):
            out.write(json.dumps({"source": sentence, "paraphrases": paraphrases}) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_diversity(args: argparse.Namespace) -> int:
    dataset = load_dataset(resolve_data_path(args.dataset_path))
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    decode = dataclass_from_kv(DecodeConfig, _overrides(args, DecodeConfig))
    summary = diversity_by_strategy(
        dataset, strategies, n_sentences=args.n_sentences, decode=decode, seed=args.seed
    )
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out == "-":
        print(text)
    else:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def cmd_synth_data(args: argparse.Namespace) -> int:
    path = generate_synthetic_dataset(
        args.out,
        n_classes=args.classes,
        sentences_per_class=args.per_class,
        synonym_rate=args.synonym_rate,
        seed=args.seed,
    )
    print(f"wrote {path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    report = RunReport.from_json(Path(args.report).read_text(encoding="utf-8"))
    written = emit_report(report, args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paraproto",
        description="Few-shot intent classification with paraphrase-consistency training.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a multi-seed training experiment")
    p_train.add_argument("--dataset", dest="dataset_path", default=None)
    p_train.add_argument("--config", default=None, help="key=value config file")
    p_train.add_argument("--strategy", choices=METHODS, default=None)
    p_train.add_argument("--profile", choices=PROFILES, default=None)
    p_train.add_argument("--n-way", type=int, default=None)
    p_train.add_argument("--k-shot", type=int, default=None)
    p_train.add_argument("--query-per-class", type=int, default=None)
    p_train.add_argument("--unlabeled", dest="n_unlabeled", type=int, default=None)
    p_train.add_argument("--paraphrases", dest="n_paraphrases", type=int, default=None)
    p_train.add_argument("--alpha", dest="anneal_alpha", type=float, default=None)
    p_train.add_argument("--max-episodes", type=int, default=None)
    p_train.add_argument("--eval-every", type=int, default=None)
    p_train.add_argument("--patience", type=int, default=None)
    p_train.add_argument("--eval-episodes", dest="n_eval_episodes", type=int, default=None)
    p_train.add_argument("--seeds", default=None, help="comma-separated seed list")
    p_train.add_argument("--distance", choices=numerics.DISTANCE_KINDS, default=None)
    p_train.add_argument("--learning-rate", type=float, default=None)
    p_train.add_argument("--group-by-domain", action="store_const", const=True, default=None,
                         help="keep each domain's classes within one split part")
    p_train.add_argument("--cache", dest="paraphrase_cache", action="store_const", const=True,
                         default=None, help="cache paraphrases per sentence within a run")
    p_train.add_argument("--pmask-sweep", action="store_true",
                         help="sweep p_mask over 0.0..1.0 instead of a single run")
    p_train.add_argument("--save-checkpoints", action="store_true")
    p_train.add_argument("--out", default="runs/latest")
    _add_decode_args(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="episodic evaluation of a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--part", choices=PARTS, default="test")
    # the episode shape defaults to the checkpoint's run
    p_eval.add_argument("--n-way", type=int, default=None)
    p_eval.add_argument("--k-shot", type=int, default=None)
    p_eval.add_argument("--query-per-class", type=int, default=None)
    p_eval.add_argument("--episodes", dest="n_eval_episodes", metavar="EPISODES", type=int, default=None)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=cmd_evaluate)

    p_para = sub.add_parser("paraphrase", help="batch-paraphrase sentences to JSONL")
    p_para.add_argument("--corpus", required=True, help="JSONL dataset used to build the LM")
    p_para.add_argument("--sentences", default="-", help="file of sentences, one per line (- for stdin)")
    p_para.add_argument("--out", default="-")
    p_para.add_argument("--strategy", choices=STRATEGIES, default="dbs_unigram")
    p_para.add_argument("--paraphrases", dest="n_paraphrases", type=int, help="default: --num-groups")
    p_para.add_argument("--seed", type=int, default=0)
    _add_decode_args(p_para)
    p_para.set_defaults(func=cmd_paraphrase)

    p_div = sub.add_parser("diversity", help="per-strategy paraphrase diversity summary")
    p_div.add_argument("--dataset", dest="dataset_path", required=True)
    p_div.add_argument("--strategies", default=",".join(STRATEGIES))
    p_div.add_argument("--n-sentences", type=int, default=200)
    p_div.add_argument("--seed", type=int, default=0)
    p_div.add_argument("--out", default="-")
    _add_decode_args(p_div)
    p_div.set_defaults(func=cmd_diversity)

    p_synth = sub.add_parser("synth-data", help="generate the synthetic intent corpus")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--classes", type=int, default=20)
    p_synth.add_argument("--per-class", type=int, default=30)
    p_synth.add_argument("--synonym-rate", type=float, default=0.5)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth_data)

    p_rep = sub.add_parser("report", help="re-emit CSV/plot files from a report.json")
    p_rep.add_argument("--report", required=True)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(level=level, format="%(message)s")
    try:
        return args.func(args)
    except Exception as exc:  # surface a diagnostic, exit nonzero
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
