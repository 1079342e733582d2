#!/usr/bin/env python3
"""Word-frequency trend experiment.

Builds corpora where half the dictionary words are frequent and half are
rare, then compares sentiment-vs-amplifier cross-validation accuracy with
and without a frequency threshold. Frequent words should be easier to
re-classify correctly.
"""

import argparse
import random

from evosent.corpus import concat_corpora
from evosent.evaluator import Semantics
from evosent.experiments import (
    PlantedLexicon,
    Protocol,
    generate_synthetic_corpus,
    random_planted_lexicon,
    run_word_cv,
)
from evosent.ga_engine import GAConfig
from evosent.lexicon import Dictionary, Kind, seed_amplifier_dictionary


def run_seed(seed: int, folds: int = 5, threshold: int = 20) -> tuple:
    """Mean sentiment-vs-amplifier CV accuracy without a frequency threshold
    and with `threshold`, for one seed."""
    rng = random.Random(7000 + seed)
    lexicon = random_planted_lexicon(20, 6, rng)
    words = sorted(lexicon.entries)
    frequent = PlantedLexicon({w: lexicon.entries[w] for w in words[:10]}, lexicon.fillers)
    rare = PlantedLexicon({w: lexicon.entries[w] for w in words[10:]}, lexicon.fillers)
    corpus = concat_corpora(
        [
            generate_synthetic_corpus(frequent, 240, (3, 7), Semantics.LITERAL, rng),
            generate_synthetic_corpus(rare, 10, (2, 4), Semantics.LITERAL, rng),
        ]
    )
    sentiment_dict = Dictionary(dict(lexicon.entries), Kind.SENTIMENT)
    amplifier_dict = seed_amplifier_dictionary()
    config = GAConfig(population_size=60, tournament_size=7, max_generations=60, seed=seed)
    return tuple(
        run_word_cv(
            Protocol.SENT_VS_AMP, corpus, sentiment_dict, amplifier_dict, t, folds, config
        ).mean_accuracy
        for t in (0, threshold)
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--threshold", type=int, default=20)
    args = parser.parse_args()

    print(f"{'seed':>4}  {'acc@0':>7}  {'acc@' + str(args.threshold):>7}")
    base, filtered = [], []
    for seed in range(args.seeds):
        acc0, acc = run_seed(seed, args.folds, args.threshold)
        base.append(acc0)
        filtered.append(acc)
        print(f"{seed:>4}  {acc0:>7.3f}  {acc:>7.3f}")
    print(
        f"mean  {sum(base) / len(base):>7.3f}  {sum(filtered) / len(filtered):>7.3f}"
    )


if __name__ == "__main__":
    main()
