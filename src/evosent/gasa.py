"""GASA: one classification-value gene per unknown word.

The chromosome is an ordered gene sequence aligned to the unknown-word
index. Fitness is the number of training instances whose evaluated polarity
matches the true label. `CompiledCorpus`/`fitness_population` evaluate whole
populations at once; the test suite asserts them equal to the plain
reference implementation in `tests/oracles.py`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .corpus import Corpus, Label, UnknownWordIndex
from .evaluator import Semantics, SlotTable, slot_table
from .lexicon import (
    AMPLIFIER_VALUES,
    EVOLVABLE_PAIRS,
    SENTIMENT_VALUES,
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
    """Padded array form of a corpus against a fixed index and dictionaries."""

    gene_index: np.ndarray  # (instances, width) int32; -1 = dictionary word / pad
    dict_value: np.ndarray  # (instances, width) float64
    dict_amplifier: np.ndarray  # (instances, width) bool
    active: np.ndarray  # (instances, width) bool
    label_positive: np.ndarray  # (instances,) bool

    @property
    def n_instances(self) -> int:
        return self.gene_index.shape[0]


def compile_corpus(corpus: Corpus, table: SlotTable) -> CompiledCorpus:
    """Every corpus word must be in the table (true of the corpus the table's
    unknown-word index was built from)."""
    n_inst = len(corpus.instances)
    width = max((len(i.tokens) for i in corpus.instances), default=0)
    width = max(width, 1)
    gene_index = np.full((n_inst, width), -1, dtype=np.int32)
    dict_value = np.zeros((n_inst, width), dtype=np.float64)
    dict_amplifier = np.zeros((n_inst, width), dtype=bool)
    active = np.zeros((n_inst, width), dtype=bool)
    label_positive = np.zeros(n_inst, dtype=bool)
    for i, inst in enumerate(corpus.instances):
        label_positive[i] = inst.label is Label.POSITIVE
        for t, word in enumerate(inst.tokens):
            active[i, t] = True
            slot = table[word]
            if isinstance(slot, int):
                gene_index[i, t] = slot
            else:
                dict_value[i, t] = slot.value
                dict_amplifier[i, t] = slot.kind is Kind.AMPLIFIER
    return CompiledCorpus(gene_index, dict_value, dict_amplifier, active, label_positive)


def _chromosome_arrays(chromosomes) -> Tuple[np.ndarray, np.ndarray]:
    pop = len(chromosomes)
    n = len(chromosomes[0]) if pop else 0
    width = max(n, 1)
    values = np.zeros((pop, width), dtype=np.float64)
    amplifier = np.zeros((pop, width), dtype=bool)
    for i, chrom in enumerate(chromosomes):
        for j, gene in enumerate(chrom.genes):
            values[i, j] = gene.value
            amplifier[i, j] = gene.kind is Kind.AMPLIFIER
    return values, amplifier


def score_population(
    chromosomes: Sequence[GasaChromosome],
    compiled: CompiledCorpus,
    semantics: Semantics = Semantics.LITERAL,
) -> np.ndarray:
    """Sentence scores for every (chromosome, instance), shape (pop, instances)."""
    pop = len(chromosomes)
    values, amp_kind = _chromosome_arrays(chromosomes)
    n_inst, width = compiled.gene_index.shape
    sentiment = np.zeros((pop, n_inst), dtype=np.float64)
    amplifier = np.zeros((pop, n_inst), dtype=np.float64)
    last_amp = np.zeros((pop, n_inst), dtype=bool)
    for t in range(width):
        gi = compiled.gene_index[:, t]
        act = compiled.active[:, t]
        unknown = gi >= 0
        gi_safe = np.where(unknown, gi, 0)
        v = np.where(unknown, values[:, gi_safe], compiled.dict_value[:, t])
        amp = np.where(unknown, amp_kind[:, gi_safe], compiled.dict_amplifier[:, t])
        amp &= act
        sent = act & ~amp
        contrib = np.where(amplifier != 0.0, amplifier * v, v)
        sentiment += np.where(sent, contrib, 0.0)
        if semantics is Semantics.LITERAL:
            amplifier = amplifier + np.where(amp, v, 0.0)
        else:
            amplifier = np.where(amp, amplifier + v, np.where(sent, 0.0, amplifier))
        last_amp = np.where(act, amp, last_amp)
    if semantics is Semantics.LITERAL:
        sentiment += amplifier
    else:
        sentiment += np.where(last_amp, amplifier, 0.0)
    return sentiment


def fitness_population(
    chromosomes: Sequence[GasaChromosome],
    compiled: CompiledCorpus,
    semantics: Semantics = Semantics.LITERAL,
) -> np.ndarray:
    scores = score_population(chromosomes, compiled, semantics)
    correct = np.where(compiled.label_positive, scores > 0.0, scores < 0.0)
    return correct.sum(axis=1)


class GasaProblem:
    """Adapter exposing GASA to the GA engine with batched fitness."""

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
        self._compiled = compile_corpus(corpus, self.table)

    def random_genome(self, rng: random.Random) -> GasaChromosome:
        return random_chromosome(len(self.index), rng)

    def fitness(self, genome: GasaChromosome) -> int:
        return int(fitness_population([genome], self._compiled, self.semantics)[0])

    def fitness_many(self, genomes) -> list:
        return [int(f) for f in fitness_population(genomes, self._compiled, self.semantics)]

    def mutate(self, genome: GasaChromosome, rng: random.Random) -> GasaChromosome:
        if len(genome) == 0:  # nothing to evolve on a fully covered corpus
            return genome
        return mutate(genome, rng)

    def crossover(self, g1, g2, rng):
        if len(g1) == 0:
            return g1, g2
        return crossover(g1, g2, rng)
