"""Few-shot intent classification: episodic prototypical-network training with
an annealed paraphrase-consistency loss, where paraphrases come from
constrained diverse beam search over a pluggable conditional LM."""

from .consistency import (
    AnnealSchedule,
    StepLosses,
    anneal_weight,
    combined_training_step,
    unsupervised_loss,
)
from .data import ClassSplit, Dataset, EpisodeSource, load_dataset, restrict_low_profile, sample_episode, split_classes
from .decoding import (
    Beam,
    ConditionalLM,
    ConstraintSet,
    DecodeConfig,
    SynonymBigramLM,
    build_bigram_constraints,
    build_unigram_constraints,
    diverse_beam_search,
    generate_paraphrase_batch,
    generate_paraphrases,
    select_most_diverse,
)
from .encoder import (
    AdamState,
    EncoderParams,
    Forward,
    TokenRows,
    Vocabulary,
    encode,
    encode_backward,
    encode_batch_backward,
    forward,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
    tokenize,
)
from .experiment import (
    RunConfig,
    RunReport,
    SeedResult,
    diversity_by_strategy,
    emit_report,
    run_experiment,
    run_pmask_sweep,
    train_single_seed,
)
from .metrics import DiversityReport, bleu, distinct_2, diversity_report, mean_pairwise_similarity
from .numerics import softmax_over_neg_distances
from .protonet import EvalResult, classify, evaluate, prototypical_loss, supervised_episode_loss
from .synth import default_synonym_table, generate_synthetic_dataset

__version__ = "0.1.0"
