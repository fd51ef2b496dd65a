"""paraproto benchmark.

    python3 bench/run.py --workload {supervised,consistency,paraphrase} \
        --seed N --seconds S --trace {0,1}

Runs one workload in a closed loop with one caller, on one thread, for S
seconds, checks every output, and prints a summary followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 each unit of work also runs
a second time under the span tracer, and the metrics are per layer. See
bench/README.md.
"""

from __future__ import annotations

import os

import measure

# One BLAS/OpenMP thread, pinned before anything loads numpy.
for _var in measure.BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
OUT = workloads.ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
GOLDEN_SEED, GOLDEN_SIZE = 0, 200
SETUP_REPS = 9
END_TO_END = ("setup_s", "peak_rss_mb", "run_s")
# Unlabeled sentences one consistency-training seed draws: the cache's base.
UNLABELED_PER_SEED = workloads.EPISODES * workloads.N_UNLABELED

# Stats reported per traced layer, as `<label>.<stat>`.
LAYER_STATS = {
    "numerics.softmax_over_neg_distances": ("calls", "s"),
    "encoder.tokenize": ("calls", "s"),
    "encoder.encode": ("calls", "s"),
    "encoder.encode_backward": ("calls", "s"),
    "encoder.optimizer_step": ("calls", "s"),
    "encoder.Vocabulary.from_texts": ("s",),
    "data.load_dataset": ("s",),
    "data.sample_episode": ("calls", "s"),
    "data.restrict_low_profile": ("s",),
    "protonet.evaluate": ("calls", "s", "self_s"),
    "protonet.classify": ("calls", "s"),
    "protonet.supervised_episode_loss": ("calls", "self_s"),
    "protonet.softmax_cross_entropy_episode": ("calls", "s"),
    "consistency.combined_training_step": ("self_s",),
    "consistency.unsupervised_loss": ("calls", "self_s"),
    "decoding.generate_paraphrases": ("calls", "s", "self_s"),
    "decoding.diverse_beam_search": ("self_s",),
    "decoding.SynonymBigramLM.next_logprobs": ("calls", "s"),
    "decoding.select_most_diverse": ("self_s",),
    "decoding.build_unigram_constraints": ("s",),
    "decoding.SynonymBigramLM.__init__": ("s",),
    "metrics.bleu": ("calls", "s"),
    "experiment.train_single_seed": ("self_s",),
    "synth.generate_synthetic_dataset": ("s",),
}


def golden_digests(pkg) -> dict[str, str]:
    """Digest per strategy of the paraphrase pass over the fixed golden set:
    GOLDEN_SIZE sentences sampled as in the paraphrase workload at seed 0."""
    dataset, lm = workloads.prepare("paraphrase", workloads.write_corpus(GOLDEN_SEED, OUT))
    sample = workloads.sentence_sample(dataset.texts(), GOLDEN_SIZE, GOLDEN_SEED)
    _, records = workloads.ParaphraseWorkload(pkg, lm, sample, GOLDEN_SEED).run_unit(0)
    return {
        strategy: checks.digest([r[3] for r in records if r[0] == strategy])
        for strategy in workloads.STRATEGIES
    }


def probe_setup(workload: str, corpus: Path) -> tuple[list[float], list[float]]:
    """Set-up seconds from SETUP_REPS fresh interpreters, one after another,
    each between two calibrations. Returns (wall seconds, seconds at
    reference speed)."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), workload, str(corpus)]
    wall = []
    cal = [measure.calibrate()]
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        cal.append(measure.calibrate())
        wall.append(float(proc.stdout.split()[-1]))
    return wall, [measure.at_reference_speed(t, cal, i) for i, t in enumerate(wall)]


class Tally:
    """Operations attempted and failed; a failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems_per_op: list[list[str]], where: str) -> None:
        for problems in problems_per_op:
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"check failed ({where}): {'; '.join(problems)}", file=sys.stderr)

    def raised(self, where: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"operation raised ({where}):\n{traceback.format_exc()}", file=sys.stderr)


def run_loop(workload, seconds: float, tally: Tally, tracer=None):
    """Closed loop over units of work until `seconds` have passed (at least
    one unit). Without a tracer, a calibration runs before the first unit
    and after each one. With a tracer, each unit runs twice, untraced and
    traced, in alternating order, and nothing is calibrated. Returns
    ([(unit, traced, seconds, checked output, seconds at reference speed or
    None)], [calibration seconds])."""
    done = []
    cal = [] if tracer else [measure.calibrate()]
    started = time.perf_counter()
    unit = 0
    while not done or time.perf_counter() - started < seconds:
        order = (False,) if tracer is None else ((False, True) if unit % 2 == 0 else (True, False))
        for traced in order:
            where = f"unit {unit}{' traced' if traced else ''}"
            try:
                if traced:
                    with tracer.installed():
                        elapsed, output = workload.run_unit(unit, tag=tracer.set_request)
                else:
                    elapsed, output = workload.run_unit(unit)
            except Exception:
                tally.raised(where)
                output = None
            if tracer is None:
                cal.append(measure.calibrate())
            if output is None:
                continue
            problems, kept = workload.check_unit(output)
            tally.record(problems, where)
            done.append((unit, traced, elapsed, kept, None if tracer else len(cal) - 2))
        unit += 1
    if tracer is None:
        done = [(*u[:4], measure.at_reference_speed(u[2], cal, u[4])) for u in done]
    return done, cal


def layer_metrics(workload_name: str, spans, units) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: set-up spans once, plus unit spans averaged per
    traced unit of work."""
    traced = [u for u in units if u[1]]
    plain = {u[0]: u[2] for u in units if not u[1]}
    n = max(len(traced), 1)
    setup = tracing.layer_totals(spans, {"setup"})
    per_unit = tracing.layer_totals(spans, set(spans.requests) - {"setup"})

    out: dict[str, tuple[float, str]] = {}
    for label, kinds in LAYER_STATS.items():
        for kind in kinds:
            value = getattr(setup[label], kind) + getattr(per_unit[label], kind) / n
            out[f"{label}.{kind}"] = (value, "count" if kind == "calls" else "s")

    decodes = per_unit["decoding.generate_paraphrases"].calls / n
    lm_calls = out["decoding.SynonymBigramLM.next_logprobs.calls"][0]
    out["decoding.next_logprobs.per_sentence"] = (lm_calls / decodes if decodes else 0.0, "count")
    drawn = UNLABELED_PER_SEED if workload_name == "consistency" else 0
    out["experiment.cache.unlabeled_drawn"] = (float(drawn), "count")
    out["experiment.cache.hit_ratio"] = (1.0 - decodes / drawn if drawn else 0.0, "ratio")

    traced_s = [u[2] for u in traced]
    out["bench.unit.s"] = (sum(traced_s) / n, "s")
    deltas = [u[2] - plain[u[0]] for u in traced if u[0] in plain]
    out["bench.trace_overhead.run_s"] = (statistics.median(deltas) if deltas else 0.0, "s")
    pps = 0.0
    untraced_s = [u[2] for u in units if not u[1]]
    if workload_name == "paraphrase" and untraced_s:
        per_pass = traced[0][3][1]
        pps = per_pass * (n / sum(traced_s) - len(untraced_s) / sum(untraced_s))
    out["bench.trace_overhead.paraphrases_per_s"] = (pps, "1/s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help=f"rewrite {GOLDEN.name} from this checkout's decoder and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")

    try:
        pkg = workloads.import_paraproto()
    except ImportError as exc:
        print(f"cannot import paraproto from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    if args.write_golden:
        GOLDEN.write_text(json.dumps(
            {"seed": GOLDEN_SEED, "sentences": GOLDEN_SIZE, "digests": golden_digests(pkg)},
            indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0

    strategy = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.set_request("setup")
    with tracer.installed() if tracer else contextlib.nullcontext():
        path = workloads.write_corpus(args.seed, OUT)
        setup_wall, setup_times = ([], []) if tracer else probe_setup(args.workload, path)
        dataset, lm = workloads.prepare(args.workload, path)

    if strategy is None:
        sample = workloads.sentence_sample(dataset.texts(), workloads.SAMPLE_SIZE, args.seed)
        workload = workloads.ParaphraseWorkload(pkg, lm, sample, args.seed)
    else:
        workload = workloads.TrainingWorkload(pkg, strategy, args.seed, path, dataset)

    tally = Tally()
    units, calibrations = run_loop(workload, args.seconds, tally, tracer)
    rss = measure.peak_rss_mb()

    if strategy is not None and units:
        accuracies = [u[3].test_accuracy for u in units]
        tally.record([checks.check_accuracy(accuracies, workloads.N_WAY)], "mean test accuracy")
    if strategy is None and not args.trace:
        try:
            golden = json.loads(GOLDEN.read_text())["digests"]
            found = golden_digests(pkg)
            tally.record(
                [[] if found[s] == golden.get(s) else [f"golden digest of {s} changed"] for s in workloads.STRATEGIES],
                "golden set",
            )
        except Exception:
            tally.raised("golden set")

    untraced = [u for u in units if not u[1]]
    summary: dict[str, tuple[float, str]] = {}
    if setup_times:
        summary["setup_s"] = (statistics.median(setup_times), "s")
        summary["setup_wall_s"] = (statistics.median(setup_wall), "s")
    summary["peak_rss_mb"] = (rss, "MB")
    if untraced:
        if not tracer:
            summary["run_s"] = (statistics.median([u[4] for u in untraced]), "s")
        summary["run_wall_s"] = (statistics.median([u[2] for u in untraced]), "s")
        summary.update(workload.summary([u[3] for u in untraced]))
    summary["fail_rate"] = (tally.failed / max(tally.attempted, 1), "ratio")

    env = measure.environment(workloads.ROOT, args.seed)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: {len(untraced)} units in {args.seconds:g} s window, "
          f"{tally.attempted} operations, {tally.failed} failed")
    for name, (value, unit) in summary.items():
        print(f"  {name:22s} {value:14.6g} {unit}")

    if tracer:
        spans = tracer.spans()
        spans.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        layers = layer_metrics(args.workload, spans, units) if any(u[1] for u in units) else {}
        unit_s = layers.get("bench.unit.s", (0.0, "s"))[0]
        print(f"per layer, per unit of work ({sum(u[1] for u in units)} traced units, "
              f"{len(spans.start)} spans):")
        for name, (value, unit) in layers.items():
            share = f"{100 * value / unit_s:6.1f}% of unit" if unit == "s" and unit_s else ""
            print(f"  {name:48s} {value:14.6g} {unit:6s} {share}")
        metrics = layers
    else:
        metrics = {k: summary[k] for k in END_TO_END if k in summary}

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "summary": summary, "unit_seconds": [[u[1], u[2], u[4]] for u in units],
                    "calibration_seconds": calibrations, **result},
                   indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
