#!/usr/bin/env python3
"""Planted-lexicon recovery experiment.

Generates balanced synthetic corpora from a hidden word->polarity assignment,
trains GASA, and reports training accuracy and how many planted polarity
signs the evolved chromosome recovered.
"""

import argparse
import random

from evosent.corpus import word_frequencies
from evosent.evaluator import Semantics
from evosent.experiments import (
    WORD_CHECKS,
    Protocol,
    generate_synthetic_corpus,
    random_planted_lexicon,
    train,
)
from evosent.ga_engine import GAConfig
from evosent.lexicon import Dictionary, Kind, seed_amplifier_dictionary


def run_seed(
    seed: int,
    data_seed_base: int = 1000,
    instances: int = 500,
    planted_words: int = 30,
    filler_words: int = 10,
    min_length: int = 3,
    max_length: int = 8,
    semantics: Semantics = Semantics.LITERAL,
) -> tuple:
    """(training accuracy, share of planted signs recovered, generations run,
    fewest occurrences of a planted word) for one GA seed."""
    data_rng = random.Random(data_seed_base + seed)
    lexicon = random_planted_lexicon(planted_words, filler_words, data_rng)
    corpus = generate_synthetic_corpus(
        lexicon, instances, (min_length, max_length), semantics, data_rng
    )
    model, stats = train(
        corpus,
        Dictionary({}, Kind.SENTIMENT),
        seed_amplifier_dictionary(),
        GAConfig(seed=seed),
        semantics,
    )
    planted = sorted(lexicon.entries)
    genes = dict(zip(model.index.words, model.gene_pairs()))
    has_sign = WORD_CHECKS[Protocol.POLARITY_VALUE]
    recovered = sum(has_sign(genes[word], lexicon.entries[word]) for word in planted)
    min_freq = min(word_frequencies(corpus)[w] for w in planted)
    return (
        model.best_fitness / len(corpus),
        recovered / len(planted),
        stats.generations_executed,
        min_freq,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--data-seed-base", type=int, default=1000)
    parser.add_argument("--instances", type=int, default=500)
    parser.add_argument("--planted-words", type=int, default=30)
    parser.add_argument("--filler-words", type=int, default=10)
    parser.add_argument("--min-length", type=int, default=3)
    parser.add_argument("--max-length", type=int, default=8)
    parser.add_argument(
        "--semantics", choices=[s.value for s in Semantics], default="literal"
    )
    options = vars(parser.parse_args())
    seeds = options.pop("seeds")
    options["semantics"] = Semantics(options["semantics"])

    print(f"{'seed':>4}  {'train_acc':>9}  {'sign_rec':>8}  {'gens':>5}  {'min_freq':>8}")
    accs, recs = [], []
    for seed in range(seeds):
        acc, rec, gens, min_freq = run_seed(seed, **options)
        accs.append(acc)
        recs.append(rec)
        print(f"{seed:>4}  {acc:>9.3f}  {rec:>8.3f}  {gens:>5}  {min_freq:>8}")
    print(f"mean  {sum(accs) / len(accs):>9.3f}  {sum(recs) / len(recs):>8.3f}")


if __name__ == "__main__":
    main()
