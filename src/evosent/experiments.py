"""Experiment protocols: word-level cross-validation, holdout accuracy,
instance-level cross-validation and the synthetic planted-lexicon generator
used as the verifiable oracle for the whole pipeline. Both word-level
protocols run through `run_word_cv` and differ only in their `WORD_CHECKS`.
The generator labels its sentences on the scoring kernel that training and
prediction use, `gasa.scores`, a block of candidates at a time.
"""

from __future__ import annotations

import enum
import random
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .cagasa import CagasaProblem
from .corpus import (
    Corpus,
    SplitError,
    build_unknown_index,
    make_folds,
    split_holdout,
    word_frequencies,
)
from .evaluator import Semantics
from .ga_engine import GAConfig, RunStats, config_records, run_ga
from .gasa import SLICE_CELLS, GasaProblem, compile_ids, scores
from .lexicon import NEUTRAL_PAIR, ClassificationValuePair, Dictionary, Kind, check_disjoint
from .model import TrainedModel


class Protocol(enum.Enum):
    SENT_VS_AMP = "sent-vs-amp"
    POLARITY_VALUE = "polarity-value"
    HOLDOUT_ACCURACY = "holdout-accuracy"
    GASA_VS_CAGASA = "gasa-vs-cagasa"


class Algo(enum.Enum):
    GASA = "gasa"
    CAGASA = "cagasa"


@dataclass
class ExperimentReport:
    protocol: Protocol
    fold_accuracies: Tuple[float, ...]
    mean_accuracy: float
    config: GAConfig
    semantics: Semantics
    freq_threshold: Optional[int] = None
    words_considered: Optional[int] = None
    fold_word_counts: Tuple[int, ...] = ()
    extras: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PlantedLexicon:
    """Ground-truth word -> pair assignment; fillers are all neutral."""

    entries: dict
    fillers: frozenset

    def resolve(self, word: str) -> ClassificationValuePair:
        pair = self.entries.get(word)
        if pair is not None:
            return pair
        if word in self.fillers:
            return NEUTRAL_PAIR
        raise KeyError(f"word {word!r} is not in the planted lexicon")


class GenerationError(RuntimeError):
    """The synthetic generator exhausted its retry budget."""


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def train(
    corpus: Corpus,
    sentiment_dict: Dictionary,
    amplifier_dict: Dictionary,
    config: GAConfig,
    semantics: Semantics = Semantics.LITERAL,
    algo: Algo = Algo.GASA,
) -> Tuple[TrainedModel, RunStats]:
    """Evolve one gene per corpus word that is in neither dictionary; the
    model holds the best genome found."""
    index = build_unknown_index(corpus, sentiment_dict, amplifier_dict)
    problem_class = GasaProblem if algo is Algo.GASA else CagasaProblem
    problem = problem_class(corpus, index, sentiment_dict, amplifier_dict, semantics)
    best, stats = run_ga(problem, config)
    model = TrainedModel(
        algo=algo.value,
        semantics=semantics,
        config=config,
        sentiment_dict=sentiment_dict,
        amplifier_dict=amplifier_dict,
        index=index,
        chromosome=best.genome,
        best_fitness=best.fitness,
        train_instances=len(corpus),
    )
    return model, stats


def _filtered_dictionary_words(
    corpus: Corpus, sentiment_dict: Dictionary, freq_threshold: int
) -> list:
    """Dictionary words occurring at least `freq_threshold` times (at least
    once when the threshold is zero), in sorted order."""
    freqs = word_frequencies(corpus)
    minimum = max(freq_threshold, 1)
    return sorted(w for w in sentiment_dict.entries if freqs.get(w, 0) >= minimum)


def _learned_as_sentiment(gene, truth) -> bool:
    """Every sentiment-dictionary word is a sentiment word."""
    return gene.kind is Kind.SENTIMENT


def _learned_with_sign(gene, truth) -> bool:
    """A sentiment pair whose sign matches the dictionary polarity; amplifier
    or zero-valued genes are errors."""
    if gene.kind is not Kind.SENTIMENT or gene.value == 0.0:
        return False
    return (gene.value > 0.0) == (truth.value > 0.0)


# The word-CV protocols: whether a held-out word's learned gene (a pair) is
# correct, given the word's dictionary pair.
WORD_CHECKS = {
    Protocol.SENT_VS_AMP: _learned_as_sentiment,
    Protocol.POLARITY_VALUE: _learned_with_sign,
}


def run_word_cv(
    protocol: Protocol,
    corpus: Corpus,
    sentiment_dict: Dictionary,
    amplifier_dict: Dictionary,
    freq_threshold: int,
    k: int,
    config: GAConfig,
    semantics: Semantics = Semantics.LITERAL,
) -> ExperimentReport:
    """k-fold cross-validation over the dictionary words that pass the
    frequency threshold: each fold trains without its words, then checks
    their genes. Fewer words than folds raise SplitError up front."""
    word_correct = WORD_CHECKS.get(protocol)
    if word_correct is None:
        raise ValueError(f"{protocol.value} is not a word-CV protocol")
    check_disjoint(sentiment_dict, amplifier_dict)
    words = _filtered_dictionary_words(corpus, sentiment_dict, freq_threshold)
    if len(words) < k:
        raise SplitError(
            f"cannot split the {len(words)} dictionary words that pass the "
            f"frequency threshold {freq_threshold} into {k} folds"
        )
    folds = make_folds(words, k, config.seed)
    fold_accuracies = []
    for fold_idx, test_words in enumerate(folds):
        fold_dict = sentiment_dict.without(test_words)
        fold_config = replace(config, seed=config.seed + fold_idx)
        model, _ = train(corpus, fold_dict, amplifier_dict, fold_config, semantics)
        genes = dict(zip(model.index.words, model.gene_pairs()))
        correct = sum(word_correct(genes[w], sentiment_dict.get(w)) for w in test_words)
        fold_accuracies.append(correct / len(test_words))
    return ExperimentReport(
        protocol=protocol,
        fold_accuracies=tuple(fold_accuracies),
        mean_accuracy=_mean(fold_accuracies),
        config=config,
        semantics=semantics,
        freq_threshold=freq_threshold,
        words_considered=len(words),
        fold_word_counts=tuple(len(test_words) for test_words in folds),
    )


def _test_accuracy(model: TrainedModel, test: Corpus) -> Tuple[float, Dict[str, float]]:
    score, positive = model.sentence_scores(test.words, test.ids, test.lengths), test.positive
    counts = {
        "true_positive": np.count_nonzero(positive & (score > 0.0)),
        "true_negative": np.count_nonzero(~positive & (score < 0.0)),
        "false_positive": np.count_nonzero(~positive & (score > 0.0)),
        "false_negative": np.count_nonzero(positive & (score < 0.0)),
    }
    counts["ties"] = len(score) - sum(counts.values())
    accuracy = (counts["true_positive"] + counts["true_negative"]) / len(score)
    return accuracy, {k: float(v) for k, v in counts.items()}


def run_holdout_accuracy(
    corpus: Corpus,
    sentiment_dict: Dictionary,
    amplifier_dict: Dictionary,
    config: GAConfig,
    semantics: Semantics = Semantics.LITERAL,
    algo: Algo = Algo.GASA,
    train_fraction: float = 0.7,
) -> ExperimentReport:
    check_disjoint(sentiment_dict, amplifier_dict)
    train_corpus, test = split_holdout(corpus, train_fraction, config.seed)
    for side, part in (("train", train_corpus), ("test", test)):
        if len(part) == 0:
            raise SplitError(f"train fraction {train_fraction} leaves the {side} side empty")
    model, stats = train(train_corpus, sentiment_dict, amplifier_dict, config, semantics, algo)
    accuracy, counts = _test_accuracy(model, test)
    extras = dict(counts)
    extras["train_fitness"] = float(model.best_fitness)
    extras["train_instances"] = float(len(train_corpus))
    extras["test_instances"] = float(len(test))
    extras["generations_executed"] = float(stats.generations_executed)
    return ExperimentReport(
        protocol=Protocol.HOLDOUT_ACCURACY,
        fold_accuracies=(accuracy,),
        mean_accuracy=accuracy,
        config=config,
        semantics=semantics,
        extras=extras,
    )


def run_instance_cv(
    corpus: Corpus,
    sentiment_dict: Dictionary,
    amplifier_dict: Dictionary,
    k: int,
    config: GAConfig,
    semantics: Semantics = Semantics.LITERAL,
    algo: Algo = Algo.GASA,
) -> ExperimentReport:
    """k-fold cross-validation over instances (the GASA vs CA-GASA protocol)."""
    check_disjoint(sentiment_dict, amplifier_dict)
    folds = make_folds(range(len(corpus)), k, config.seed)
    fold_accuracies = []
    for fold_idx, test_rows in enumerate(folds):
        train_corpus = corpus.take(np.setdiff1d(np.arange(len(corpus)), test_rows))
        fold_config = replace(config, seed=config.seed + fold_idx)
        model, _ = train(
            train_corpus, sentiment_dict, amplifier_dict, fold_config, semantics, algo
        )
        accuracy, _counts = _test_accuracy(model, corpus.take(test_rows))
        fold_accuracies.append(accuracy)
    return ExperimentReport(
        protocol=Protocol.GASA_VS_CAGASA,
        fold_accuracies=tuple(fold_accuracies),
        mean_accuracy=_mean(fold_accuracies),
        config=config,
        semantics=semantics,
    )


def random_planted_lexicon(
    n_sentiment: int, n_fillers: int, rng: random.Random
) -> PlantedLexicon:
    """Planted sentiment words with alternating polarity plus neutral fillers."""
    entries = {}
    for i in range(n_sentiment):
        value = 1.0 if i % 2 == 0 else -1.0
        entries[f"pw{i:03d}"] = ClassificationValuePair(Kind.SENTIMENT, value)
    fillers = frozenset(f"fw{i:03d}" for i in range(n_fillers))
    return PlantedLexicon(entries, fillers)


def generate_synthetic_corpus(
    lexicon: PlantedLexicon,
    n_instances: int,
    length_range: Tuple[int, int],
    semantics: Semantics,
    rng: random.Random,
) -> Corpus:
    """Sample label-balanced sentences from the planted vocabulary; sentences
    scoring zero under the ground truth are resampled. Candidates are scored in
    blocks that fit SLICE_CELLS, the draws left and the open slots; each fills
    at most one slot, so the draws are those of one candidate at a time."""
    if not lexicon.entries:
        raise ValueError("planted lexicon is empty")
    if n_instances % 2 != 0:
        raise ValueError("n_instances must be even for a balanced corpus")
    lo, hi = length_range
    if not 1 <= lo <= hi:
        raise ValueError(f"bad length range {length_range}")
    words = tuple(sorted(lexicon.entries) + sorted(lexicon.fillers))
    table = lexicon.entries  # fillers are missing, so they compile as neutral
    half = n_instances // 2
    positives, negatives = [], []  # each accepted sentence's ids
    budget = 10 * n_instances
    draws = 0
    while (len(positives) < half or len(negatives) < half) and draws < budget:
        open_slots = n_instances - len(positives) - len(negatives)
        block = []
        for _ in range(min(open_slots, budget - draws, max(SLICE_CELLS // hi, 1))):
            length = rng.randint(lo, hi)
            block.append(array("i", [rng.randrange(len(words)) for _ in range(length)]))
        draws += len(block)
        ids = np.frombuffer(b"".join(block), dtype=np.int32)
        compiled = compile_ids(words, ids, list(map(len, block)), table)
        block_scores = scores(compiled, np.zeros((0, 1), np.int8), semantics)
        for sentence, score in zip(block, block_scores[0].tolist()):
            if score > 0.0 and len(positives) < half:
                positives.append(sentence)
            elif score < 0.0 and len(negatives) < half:
                negatives.append(sentence)
    if len(positives) < half or len(negatives) < half:
        raise GenerationError(f"could not balance {n_instances} instances within {budget} draws")
    sentences = list(chain.from_iterable(zip(positives, negatives)))
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=n_instances)
    ids = np.frombuffer(b"".join(sentences), dtype=np.int32)
    return Corpus(words, ids, lengths, np.arange(n_instances) % 2 == 0)


def report_records(report: ExperimentReport):
    yield "protocol", report.protocol.value
    yield "semantics", report.semantics.value
    for key, value in config_records(report.config):
        yield key, value
    if report.freq_threshold is not None:
        yield "freq_threshold", str(report.freq_threshold)
    if report.words_considered is not None:
        yield "words_considered", str(report.words_considered)
    for i, count in enumerate(report.fold_word_counts):
        yield f"fold_{i}_words", str(count)
    for i, accuracy in enumerate(report.fold_accuracies):
        yield f"fold_{i}_accuracy", f"{accuracy:.6f}"
    yield "mean_accuracy", f"{report.mean_accuracy:.6f}"
    for key in sorted(report.extras):
        yield key, f"{report.extras[key]:.6f}"


def write_report(report: ExperimentReport, sink: Union[str, Path]) -> None:
    with open(sink, "w", encoding="utf-8") as fh:
        for key, value in report_records(report):
            fh.write(f"{key}\t{value}\n")


def format_report(report: ExperimentReport) -> str:
    """Human-readable aligned table of the report fields."""
    records = list(report_records(report))
    width = max(len(key) for key, _ in records)
    return "\n".join(f"{key:<{width}}  {value}" for key, value in records)
