"""GASA: one classification-value gene per unknown word.

The chromosome is an ordered gene sequence aligned to the unknown-word
index. Fitness is the number of training instances whose evaluated polarity
matches the true label. `CompiledCorpus`/`fitness_population` evaluate whole
populations at once; the test suite asserts them equal to the plain
reference implementation in `tests/oracles.py`. `accumulate`, the column
loop over the slot matrix, is the scoring kernel of CA-GASA too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .corpus import Corpus, Label, UnknownWordIndex
from .evaluator import Semantics, SlotTable, slot_table
from .lexicon import (
    AMPLIFIER_VALUES,
    EVOLVABLE_PAIRS,
    SENTIMENT_VALUES,
    NEUTRAL_PAIR,
    ClassificationValuePair,
    Dictionary,
    Kind,
)


@dataclass(frozen=True)
class GasaChromosome:
    genes: tuple

    def __len__(self) -> int:
        return len(self.genes)

    def pair_at(self, gene: int, tokens, position: int) -> ClassificationValuePair:
        return self.genes[gene]


def random_gene(rng: random.Random) -> ClassificationValuePair:
    """Uniform over the six evolvable pairs: kind first, then its value."""
    kind = Kind.SENTIMENT if rng.randrange(2) == 0 else Kind.AMPLIFIER
    values = SENTIMENT_VALUES if kind is Kind.SENTIMENT else AMPLIFIER_VALUES
    return ClassificationValuePair(kind, values[rng.randrange(3)])


def random_chromosome(n: int, rng: random.Random) -> GasaChromosome:
    if n < 0:
        raise ValueError("chromosome length must be non-negative")
    return GasaChromosome(tuple(random_gene(rng) for _ in range(n)))


def forced_new_pair(
    current: ClassificationValuePair, rng: random.Random
) -> ClassificationValuePair:
    """Uniform over the five evolvable pairs other than `current`."""
    candidates = [p for p in EVOLVABLE_PAIRS if p != current]
    return candidates[rng.randrange(len(candidates))]


def mutate(parent: GasaChromosome, rng: random.Random) -> GasaChromosome:
    """Replace one uniformly chosen gene with a different pair."""
    n = len(parent)
    if n == 0:
        raise ValueError("cannot mutate an empty chromosome")
    position = rng.randrange(n)
    genes = list(parent.genes)
    genes[position] = forced_new_pair(genes[position], rng)
    return GasaChromosome(tuple(genes))


def crossover(p1, p2, rng: random.Random) -> Tuple:
    """Swap the genes at one uniformly chosen position; the children have
    the parents' chromosome type (GASA or CA-GASA)."""
    n = len(p1)
    if n != len(p2):
        raise ValueError(f"parent lengths differ: {n} vs {len(p2)}")
    if n == 0:
        raise ValueError("cannot cross over empty chromosomes")
    position = rng.randrange(n)
    g1 = list(p1.genes)
    g2 = list(p2.genes)
    g1[position], g2[position] = g2[position], g1[position]
    return type(p1)(tuple(g1)), type(p2)(tuple(g2))


def extract_classifications(
    chromosome: GasaChromosome,
    query_words: Sequence[str],
    index: UnknownWordIndex,
) -> list:
    pairs = []
    for word in query_words:
        position = index.position_of.get(word)
        if position is None:
            raise ValueError(f"word {word!r} is not in the unknown-word index")
        pairs.append(chromosome.genes[position])
    return pairs


@dataclass(frozen=True)
class CompiledCorpus:
    """A corpus as slots into each genome's value table: the genome's genes,
    then `fixed_pairs`. Gene slots are gene positions; fixed slots count back
    from the end of the table, so they do not depend on the genome's length.

    Sentences are padded on the left with the neutral pair, the last fixed
    pair. A leading neutral sentiment word adds nothing to the sentiment and
    leaves the amplifier accumulator at zero under both semantics, so the
    padding changes no score and every sentence ends in the last column.
    """

    slots: np.ndarray  # (instances, width) int32
    fixed_pairs: tuple  # the dictionary pairs the corpus uses, then NEUTRAL_PAIR
    label_positive: np.ndarray  # (instances,) bool


def compile_corpus(corpus: Corpus, table: SlotTable) -> CompiledCorpus:
    """A word missing from the table is neutral, as in `evaluator.resolve`."""
    instances = corpus.instances
    word_slots = {
        word: table.get(word, NEUTRAL_PAIR) for inst in instances for word in inst.tokens
    }
    dictionary_pairs = dict.fromkeys(s for s in word_slots.values() if not isinstance(s, int))
    fixed_pairs = (*dictionary_pairs, NEUTRAL_PAIR)
    fixed_slot = {pair: k - len(fixed_pairs) for k, pair in enumerate(dictionary_pairs)}
    word_slots = {w: s if isinstance(s, int) else fixed_slot[s] for w, s in word_slots.items()}
    width = max((len(inst.tokens) for inst in instances), default=0)
    rows = [
        [-1] * (width - len(inst.tokens)) + [word_slots[w] for w in inst.tokens]
        for inst in instances
    ]
    slots = np.array(rows, dtype=np.int32).reshape(len(instances), width)
    label_positive = np.array([inst.label is Label.POSITIVE for inst in instances])
    return CompiledCorpus(slots, fixed_pairs, label_positive)


def score_population(
    chromosomes: Sequence[GasaChromosome],
    compiled: CompiledCorpus,
    semantics: Semantics = Semantics.LITERAL,
) -> np.ndarray:
    """Sentence scores for every (chromosome, instance), shape (pop, instances)."""
    if not chromosomes:
        return np.zeros((0, len(compiled.label_positive)))
    amplifier_kind = Kind.AMPLIFIER
    # The value tables, one row per slot and one column per genome.
    pairs = [(*chrom.genes, *compiled.fixed_pairs) for chrom in chromosomes]
    values = np.array([[p.value for p in row] for row in pairs], dtype=np.float64).T.copy()
    is_amp = np.array([[p.kind is amplifier_kind for p in row] for row in pairs]).T.copy()
    return accumulate(compiled.slots, values, is_amp, semantics)


def accumulate(
    slots: np.ndarray, values: np.ndarray, is_amp: np.ndarray, semantics: Semantics
) -> np.ndarray:
    """Sentence scores, shape (genomes, instances), of a left-padded slot
    matrix read through value tables with one row per slot and one column
    per genome (`values` and `is_amp`, the pair's value and whether it is an
    amplifier). GASA and CA-GASA share this loop."""
    sentiment = np.zeros((len(slots), values.shape[1]))
    amplifier = np.zeros_like(sentiment)
    for column in slots.T:
        # `take` along the slots is faster than indexing with `column`
        v = values.take(column, axis=0)
        amp = is_amp.take(column, axis=0)
        contrib = np.where(amplifier != 0.0, amplifier * v, v)
        sentiment += np.where(amp, 0.0, contrib)
        if semantics is Semantics.LITERAL:
            amplifier += np.where(amp, v, 0.0)
        else:  # PROSE: a sentiment word consumes the accumulator
            amplifier = np.where(amp, amplifier + v, 0.0)
    # LITERAL adds the accumulator whenever it is nonzero; under PROSE it is
    # nonzero only when the sentence ends in an amplifier.
    return (sentiment + amplifier).T


def count_correct(scores: np.ndarray, label_positive: np.ndarray) -> np.ndarray:
    """Per genome, the instances whose score has the sign of their label."""
    correct = np.where(label_positive, scores > 0.0, scores < 0.0)
    return correct.sum(axis=1)


def fitness_population(
    chromosomes: Sequence[GasaChromosome],
    compiled: CompiledCorpus,
    semantics: Semantics = Semantics.LITERAL,
) -> np.ndarray:
    scores = score_population(chromosomes, compiled, semantics)
    return count_correct(scores, compiled.label_positive)


class WordGeneProblem:
    """What GASA and CA-GASA share as GA-engine problems: one gene per
    unknown word, resolved through one slot table. A subclass supplies
    `_compile(corpus, table)`, which compiles the corpus, and
    `_score(genomes, compiled, semantics)`, which counts each genome's
    correctly labelled instances on it."""

    def __init__(
        self,
        corpus: Corpus,
        index: UnknownWordIndex,
        sentiment_dict: Dictionary,
        amplifier_dict: Dictionary,
        semantics: Semantics = Semantics.LITERAL,
    ):
        self.corpus = corpus
        self.index = index
        self.sentiment_dict = sentiment_dict
        self.amplifier_dict = amplifier_dict
        self.semantics = semantics
        self.max_fitness = len(corpus.instances)
        self.table = slot_table(index, sentiment_dict, amplifier_dict)

    @cached_property
    def _compiled(self):
        """Built on first use, so that building the problem stays cheap."""
        return self._compile(self.corpus, self.table)

    def fitness(self, genome) -> int:
        return int(self._score([genome], self._compiled, self.semantics)[0])

    def mutate(self, genome, rng: random.Random):
        if len(genome) == 0:  # nothing to evolve on a fully covered corpus
            return genome
        return self.mutate_genes(genome, rng)

    def crossover(self, g1, g2, rng: random.Random):
        if len(g1) == 0:
            return g1, g2
        return crossover(g1, g2, rng)


class GasaProblem(WordGeneProblem):
    """Adapter exposing GASA to the GA engine with batched fitness."""

    _compile = staticmethod(compile_corpus)
    _score = staticmethod(fitness_population)

    def random_genome(self, rng: random.Random) -> GasaChromosome:
        return random_chromosome(len(self.index), rng)

    def fitness_many(self, genomes) -> list:
        return [int(f) for f in self._score(genomes, self._compiled, self.semantics)]

    def mutate_genes(self, genome: GasaChromosome, rng: random.Random) -> GasaChromosome:
        return mutate(genome, rng)
