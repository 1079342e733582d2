"""GASA: one classification-value gene per unknown word.

The chromosome is an ordered gene sequence aligned to the unknown-word
index. Fitness is the number of training instances whose evaluated polarity
matches the true label. `CompiledCorpus`/`fitness_population` evaluate whole
populations at once; the test suite asserts them equal to the plain
reference implementation in `tests/oracles.py`. `accumulate`, the column
loop over the slot matrix, is the scoring kernel of CA-GASA too.

Each GASA child differs from its parent in at most one gene: a mutation
replaces one, a crossover swaps one position. `GasaProblem.fitness_many`
therefore scores a child of a genome it scored in its previous call from
the parent's per-instance correctness: a child whose changed gene equals
the parent's takes the parent's fitness, and any other child re-scores only
the instances that contain its changed gene's word. A sentence's score
depends on its own tokens alone, and the re-scored rows go through the same
kernel, so the fitness is exactly that of a full pass. Initial genomes and
children of genomes not scored in the previous call get the full pass.
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

# Pair codes: the index of a gene's pair in EVOLVABLE_PAIRS.
PAIR_CODES = {pair: code for code, pair in enumerate(EVOLVABLE_PAIRS)}
CODE_VALUES = np.array([p.value for p in EVOLVABLE_PAIRS])
CODE_IS_AMP = np.array([p.kind is Kind.AMPLIFIER for p in EVOLVABLE_PAIRS])


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
    return mutate_at(parent, rng)[0]


def mutate_at(parent: GasaChromosome, rng: random.Random) -> Tuple[GasaChromosome, int]:
    """`mutate`, and the position it changed."""
    n = len(parent)
    if n == 0:
        raise ValueError("cannot mutate an empty chromosome")
    position = rng.randrange(n)
    genes = list(parent.genes)
    genes[position] = forced_new_pair(genes[position], rng)
    return GasaChromosome(tuple(genes)), position


def crossover(p1, p2, rng: random.Random) -> Tuple:
    """Swap the genes at one uniformly chosen position; the children have
    the parents' chromosome type (GASA or CA-GASA)."""
    return crossover_at(p1, p2, rng)[:2]


def crossover_at(p1, p2, rng: random.Random) -> Tuple:
    """`crossover`'s two children, and the position it swapped."""
    n = len(p1)
    if n != len(p2):
        raise ValueError(f"parent lengths differ: {n} vs {len(p2)}")
    if n == 0:
        raise ValueError("cannot cross over empty chromosomes")
    position = rng.randrange(n)
    g1 = list(p1.genes)
    g2 = list(p2.genes)
    g1[position], g2[position] = g2[position], g1[position]
    return type(p1)(tuple(g1)), type(p2)(tuple(g2)), position


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


def value_tables(chromosomes: Sequence, fixed_pairs: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """The value tables of `accumulate`, one column per chromosome: its
    genes' pairs, then `fixed_pairs`."""
    amplifier_kind = Kind.AMPLIFIER
    pairs = [(*chrom.genes, *fixed_pairs) for chrom in chromosomes]
    values = np.array([[p.value for p in row] for row in pairs], dtype=np.float64).T.copy()
    is_amp = np.array([[p.kind is amplifier_kind for p in row] for row in pairs]).T.copy()
    return values, is_amp


def score_population(
    chromosomes: Sequence[GasaChromosome],
    compiled: CompiledCorpus,
    semantics: Semantics = Semantics.LITERAL,
) -> np.ndarray:
    """Sentence scores for every (chromosome, instance), shape (pop, instances)."""
    if not chromosomes:
        return np.zeros((0, len(compiled.label_positive)))
    values, is_amp = value_tables(chromosomes, compiled.fixed_pairs)
    return accumulate(compiled.slots, values, is_amp, semantics)


def accumulate(
    slots: np.ndarray, values: np.ndarray, is_amp: np.ndarray, semantics: Semantics
) -> np.ndarray:
    """Sentence scores, shape (genomes, instances), of a left-padded slot
    matrix read through value tables with one row per slot and one column
    per genome (`values` and `is_amp`, the pair's value and whether it is an
    amplifier). GASA and CA-GASA share this loop. Each sentence's score
    depends on its own row alone."""
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


def labelled_correctly(scores: np.ndarray, label_positive: np.ndarray) -> np.ndarray:
    """Per genome and instance, whether the score has the sign of the label."""
    return np.where(label_positive, scores > 0.0, scores < 0.0)


def count_correct(scores: np.ndarray, label_positive: np.ndarray) -> np.ndarray:
    """Per genome, the instances whose score has the sign of their label."""
    return labelled_correctly(scores, label_positive).sum(axis=1)


def fitness_population(
    chromosomes: Sequence[GasaChromosome],
    compiled: CompiledCorpus,
    semantics: Semantics = Semantics.LITERAL,
) -> np.ndarray:
    scores = score_population(chromosomes, compiled, semantics)
    return count_correct(scores, compiled.label_positive)


def pair_codes(values: np.ndarray, is_amp: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(codes, encodable) of gene tables shaped (genomes, genes): each
    gene's index into EVOLVABLE_PAIRS, and per genome whether every gene is
    evolvable (the codes of one that is not are meaningless)."""
    match = (values[..., None] == CODE_VALUES) & (is_amp[..., None] == CODE_IS_AMP)
    return match.argmax(axis=2), match.any(axis=2).all(axis=1)


def gene_rows(slots: np.ndarray, genes: int) -> Tuple[np.ndarray, np.ndarray]:
    """(starts, rows): the rows of a slot matrix that hold gene g are
    rows[starts[g]:starts[g + 1]], ascending and each once."""
    instances = max(len(slots), 1)
    rows, columns = np.nonzero(slots >= 0)
    keys = np.unique(slots[rows, columns].astype(np.int64) * instances + rows)
    starts = np.searchsorted(keys // instances, np.arange(genes + 1))
    return starts, keys % instances


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
    """Adapter exposing GASA to the GA engine with batched delta fitness.

    `fitness_many` keeps, for each genome of its last batch, the genome's
    pair codes and which instances it labels correctly; each call replaces
    them. `mutate` and `crossover` record each child's parent and the one
    position they changed, until the next `fitness_many` call. A child of a
    genome in the last batch starts from the parent's vector and re-scores
    only the instances that hold its changed gene's word, if that gene
    differs from the parent's; a genome of the last batch keeps its vector.
    Every other genome is scored in full. Both are keyed by object identity
    and hold their genomes, so an id is never reused while it is a key.
    """

    _compile = staticmethod(compile_corpus)
    _score = staticmethod(fitness_population)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lineage: dict = {}  # id(child) -> (child, parent, changed position)
        self._rows: dict = {}  # id(genome) -> (genome, its row of the two below)
        self._codes = np.zeros((0, len(self.index)), dtype=np.int8)
        self._correct = np.zeros((0, self.max_fitness), dtype=bool)

    @cached_property
    def _gene_rows(self):
        return gene_rows(self._compiled.slots, len(self.index))

    def random_genome(self, rng: random.Random) -> GasaChromosome:
        return random_chromosome(len(self.index), rng)

    def mutate_genes(self, genome: GasaChromosome, rng: random.Random) -> GasaChromosome:
        child, position = mutate_at(genome, rng)
        self._lineage[id(child)] = child, genome, position
        return child

    def crossover(self, g1, g2, rng: random.Random):
        if len(g1) == 0:
            return g1, g2
        c1, c2, position = crossover_at(g1, g2, rng)
        self._lineage[id(c1)] = c1, g1, position
        self._lineage[id(c2)] = c2, g2, position
        return c1, c2

    def fitness_many(self, genomes) -> list:
        genomes = list(genomes)
        compiled = self._compiled
        lineage, self._lineage = self._lineage, {}
        # Per genome: the row of the last batch it starts from (-1: none),
        # and for a child the position it changed there and its new code.
        k = len(genomes)
        source, changed, new_codes = [-1] * k, [-1] * k, [0] * k
        for j, genome in enumerate(genomes):
            kept = self._rows.get(id(genome))
            if kept is not None:
                source[j] = kept[1]
                continue
            link = lineage.get(id(genome))
            if link is None:
                continue
            _, parent, position = link
            kept = self._rows.get(id(parent))
            code = PAIR_CODES.get(genome.genes[position])
            if kept is not None and code is not None:
                source[j], changed[j], new_codes[j] = kept[1], position, code
        source, changed, new_codes = np.array([source, changed, new_codes], dtype=np.intp)

        codes = np.zeros((k, len(self.index)), dtype=np.int8)
        correct = np.zeros((k, self.max_fitness), dtype=bool)
        copied = np.flatnonzero(source >= 0)
        codes[copied] = self._codes[source[copied]]
        correct[copied] = self._correct[source[copied]]
        children = copied[changed[copied] >= 0]
        positions = changed[children]
        differs = codes[children, positions] != new_codes[children]
        children, positions = children[differs], positions[differs]
        codes[children, positions] = new_codes[children]
        if len(children):
            owners, rows, row_correct = self._rescore(codes, children, positions)
            correct[owners, rows] = row_correct

        encodable = np.ones(k, dtype=bool)
        full = np.flatnonzero(source < 0)
        if len(full):
            values, is_amp = value_tables([genomes[j] for j in full], compiled.fixed_pairs)
            scores = accumulate(compiled.slots, values, is_amp, self.semantics)
            correct[full] = labelled_correctly(scores, compiled.label_positive)
            genes = len(self.index)
            codes[full], encodable[full] = pair_codes(values[:genes].T, is_amp[:genes].T)

        self._rows = {id(g): (g, j) for j, g in enumerate(genomes) if encodable[j]}
        self._codes, self._correct = codes, correct
        return correct.sum(axis=1).tolist()

    def _rescore(self, codes: np.ndarray, children: np.ndarray, positions: np.ndarray):
        """(owners, rows, correct): every instance that holds a child's
        changed gene, re-scored with the child's codes in one `accumulate`
        call. The rows are stacked, and each child's genes are offset into
        one flat value table that ends with the fixed pairs."""
        compiled = self._compiled
        starts, holding = self._gene_rows
        counts = starts[positions + 1] - starts[positions]
        firsts = np.cumsum(counts) - counts  # of each child's rows in the stack
        owner = np.repeat(np.arange(len(children)), counts)
        rows = holding[np.arange(len(owner)) + np.repeat(starts[positions] - firsts, counts)]
        slots = compiled.slots[rows]
        slots = np.where(slots >= 0, slots + (owner * codes.shape[1])[:, None], slots)
        table = codes[children].ravel()
        fixed = compiled.fixed_pairs
        values = np.concatenate([CODE_VALUES[table], [p.value for p in fixed]])
        is_amp = np.concatenate([CODE_IS_AMP[table], [p.kind is Kind.AMPLIFIER for p in fixed]])
        scores = accumulate(slots, values[:, None], is_amp[:, None], self.semantics)[0]
        return children[owner], rows, labelled_correctly(scores, compiled.label_positive[rows])
