"""GASA: one classification-value gene per unknown word.

The chromosome is an ordered gene sequence aligned to the unknown-word
index. Each gene is a pair code: a byte that indexes `EVOLVABLE_PAIRS`, the
six classification-value pairs a gene may hold. Fitness is the number of
training instances whose evaluated polarity matches the true label; the
test suite asserts it equal to the plain reference implementation in
`tests/oracles.py`. `compile_tokens` turns token sequences into a slot
matrix, and `scores` scores columns of pair codes on it through
`accumulate`, the column loop over the slot matrix. `labelled_correctly`
wraps `scores` for training; both algorithms train and predict on them.

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
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import chain
from typing import Optional, Sequence, Tuple

import numpy as np

from .corpus import Corpus, Label, UnknownWordIndex
from .evaluator import Semantics, SlotTable, slot_table
from .lexicon import EVOLVABLE_PAIRS, NEUTRAL_PAIR, Dictionary, Kind

# Pair codes: the index of a gene's pair in EVOLVABLE_PAIRS.
PAIR_CODES = {pair: code for code, pair in enumerate(EVOLVABLE_PAIRS)}
CODE_VALUES = np.array([p.value for p in EVOLVABLE_PAIRS])
CODE_IS_AMP = np.array([p.kind is Kind.AMPLIFIER for p in EVOLVABLE_PAIRS])


@dataclass(frozen=True)
class GasaChromosome:
    codes: bytes  # one index into EVOLVABLE_PAIRS per gene

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def genes(self) -> tuple:
        """The genes' pairs, in gene order."""
        return tuple(EVOLVABLE_PAIRS[code] for code in self.codes)


def random_code(rng: random.Random) -> int:
    """Uniform over the six evolvable pairs: kind first, then its value."""
    return 3 * rng.randrange(2) + rng.randrange(3)


def forced_new_code(code: int, rng: random.Random) -> int:
    """Uniform over the five pair codes other than `code`."""
    r = rng.randrange(5)
    return r + (r >= code)


def random_chromosome(n: int, rng: random.Random) -> GasaChromosome:
    if n < 0:
        raise ValueError("chromosome length must be non-negative")
    return GasaChromosome(bytes([random_code(rng) for _ in range(n)]))


def mutate_at(parent: GasaChromosome, rng: random.Random) -> Tuple[GasaChromosome, int]:
    """The child with one uniformly chosen gene replaced by a different
    pair, and that gene's position."""
    n = len(parent)
    if n == 0:
        raise ValueError("cannot mutate an empty chromosome")
    position = rng.randrange(n)
    codes = bytearray(parent.codes)
    codes[position] = forced_new_code(codes[position], rng)
    return GasaChromosome(bytes(codes)), position


def crossover_at(p1, p2, rng: random.Random) -> Tuple:
    """The two children that swap the parents' genes at one uniformly chosen
    position, and that position. The children have the parents' chromosome
    type; either type holds its genes in its one field, bytes or a tuple."""
    n = len(p1)
    if n != len(p2):
        raise ValueError(f"parent lengths differ: {n} vs {len(p2)}")
    if n == 0:
        raise ValueError("cannot cross over empty chromosomes")
    position = rng.randrange(n)
    a, b = (getattr(p, fields(p)[0].name) for p in (p1, p2))
    end = position + 1
    c1 = type(p1)(a[:position] + b[position:end] + a[end:])
    c2 = type(p2)(b[:position] + a[position:end] + b[end:])
    return c1, c2, position


# The most slot-matrix elements one kernel call takes at once (a longer
# sentence, or a re-scored genome with more, takes a call of its own), and
# about the most elements the widest temporary of a CA-GASA context decision
# holds. It bounds the memory their temporaries hold, whatever the input's
# size.
SLICE_CELLS = 1 << 16


@dataclass(frozen=True)
class CompiledCorpus:
    """Token sequences as slots into each genome's value table: the genome's
    genes, then the fixed pairs, the dictionary pairs the text uses followed
    by the neutral pair. Gene slots are gene positions; fixed slots count
    back from the end of the table, so they do not depend on the genome's
    length. `words` holds each token's id in `vocabulary` in the same layout.

    Sentences are padded on the left with the neutral pair, the last fixed
    pair, and with word id -1. A leading neutral sentiment word adds nothing
    to the sentiment and leaves the amplifier accumulator at zero under both
    semantics, so the padding changes no score and every sentence ends in
    the last column.
    """

    slots: np.ndarray  # (instances, width) int32
    words: np.ndarray  # (instances, width) int32
    vocabulary: dict  # word -> id, in order of first occurrence
    fixed_values: np.ndarray  # (fixed pairs,) float64
    fixed_is_amp: np.ndarray  # (fixed pairs,) bool
    label_positive: Optional[np.ndarray] = None  # (instances,) bool; None for unlabelled text


def compile_tokens(token_lists: Sequence[Sequence[str]], table: SlotTable) -> CompiledCorpus:
    """The unlabelled `CompiledCorpus` of `token_lists`. A word missing from
    the table is neutral."""
    lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
    vocabulary = dict.fromkeys(chain.from_iterable(token_lists))
    vocabulary = {word: k for k, word in enumerate(vocabulary)}
    entries = [table.get(word, NEUTRAL_PAIR) for word in vocabulary]
    dictionary_pairs = dict.fromkeys(e for e in entries if not isinstance(e, int))
    fixed_pairs = (*dictionary_pairs, NEUTRAL_PAIR)
    fixed_slot = {pair: k - len(fixed_pairs) for k, pair in enumerate(dictionary_pairs)}
    # one slot per word id, and the pad's slot -1 last, where id -1 reads it
    word_slots = np.array(
        [e if isinstance(e, int) else fixed_slot[e] for e in entries] + [-1], dtype=np.int32
    )
    width = int(lengths.max(initial=0))
    words = np.full((len(lengths), width), -1, dtype=np.int32)
    # a row's tokens fill its last `length` columns; the mask's cells run row
    # by row, left to right, the order of the tokens
    tokens = chain.from_iterable(token_lists)
    words[np.arange(width) >= width - lengths[:, None]] = np.fromiter(
        map(vocabulary.__getitem__, tokens), dtype=np.int32, count=int(lengths.sum())
    )
    return CompiledCorpus(
        slots=word_slots[words],
        words=words,
        vocabulary=vocabulary,
        fixed_values=np.array([p.value for p in fixed_pairs], dtype=np.float64),
        fixed_is_amp=np.array([p.kind is Kind.AMPLIFIER for p in fixed_pairs]),
    )


def compile_corpus(corpus: Corpus, table: SlotTable) -> CompiledCorpus:
    compiled = compile_tokens([inst.tokens for inst in corpus.instances], table)
    labels = [inst.label is Label.POSITIVE for inst in corpus.instances]
    return replace(compiled, label_positive=np.array(labels, dtype=bool))


def scores(compiled: CompiledCorpus, codes: np.ndarray, semantics: Semantics) -> np.ndarray:
    """Sentence scores, shape (genomes, instances). `codes` holds one column
    of pair codes per genome, a row per gene slot; the fixed slots after
    them read `compiled`'s fixed pairs."""
    codes = np.ascontiguousarray(codes)
    fixed = (len(compiled.fixed_values), codes.shape[1])
    values = np.concatenate(
        [CODE_VALUES[codes], np.broadcast_to(compiled.fixed_values[:, None], fixed)]
    )
    is_amp = np.concatenate(
        [CODE_IS_AMP[codes], np.broadcast_to(compiled.fixed_is_amp[:, None], fixed)]
    )
    return accumulate(compiled.slots, values, is_amp, semantics)


def labelled_correctly(
    compiled: CompiledCorpus, codes: np.ndarray, semantics: Semantics
) -> np.ndarray:
    """Per genome and instance, whether the genome's sentence score has the
    sign of the label, shape (genomes, instances); `codes` as for `scores`."""
    score = scores(compiled, codes, semantics)
    return np.where(compiled.label_positive, score > 0.0, score < 0.0)


def labelled_correctly_at(
    compiled: CompiledCorpus, rows: Sequence[np.ndarray], codes: Sequence, semantics: Semantics
) -> np.ndarray:
    """Whether each owner's codes label the instances `rows[k]` correctly,
    the owners' rows concatenated in order, for at least one owner.
    `codes[k]` holds owner k's gene codes as bytes chunks to join in order,
    as many codes for every owner. Whole owners go through the kernel in
    slices of at most SLICE_CELLS elements, counting an owner's slot-matrix
    cells and its codes; a larger owner takes a slice of its own. Each slice
    offsets its owners' gene slots into one column of its owners' codes."""
    genes = sum(map(len, codes[0]))
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    elements = np.cumsum(counts * compiled.slots.shape[1] + genes)
    correct = []
    start = 0
    while start < len(rows):
        # the most owners from `start` on that fit, at least one
        budget = SLICE_CELLS + (elements[start - 1] if start else 0)
        end = max(start + 1, int(np.searchsorted(elements, budget, side="right")))
        part = np.concatenate(rows[start:end])
        offsets = np.repeat(np.arange(end - start, dtype=np.int32) * genes, counts[start:end])
        slots = compiled.slots[part]
        np.add(slots, offsets[:, None], out=slots, where=slots >= 0)
        sliced = replace(compiled, slots=slots, label_positive=compiled.label_positive[part])
        column = np.frombuffer(b"".join(chain.from_iterable(codes[start:end])), dtype=np.int8)
        correct.append(labelled_correctly(sliced, column[:, None], semantics)[0])
        start = end
    return np.concatenate(correct)


def accumulate(
    slots: np.ndarray, values: np.ndarray, is_amp: np.ndarray, semantics: Semantics
) -> np.ndarray:
    """Sentence scores, shape (genomes, instances), of a left-padded slot
    matrix read through value tables with one row per slot and one column
    per genome (`values` and `is_amp`, the pair's value and whether it is an
    amplifier). Each sentence's score depends on its own row alone."""
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


def code_matrix(genomes) -> np.ndarray:
    """The genomes' pair codes, one int8 row per genome."""
    codes = np.frombuffer(b"".join([g.codes for g in genomes]), dtype=np.int8)
    return codes.reshape(len(genomes), len(genomes[0]) if genomes else 0)


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
    `_compile(corpus, table)`, which compiles the corpus, and a way to
    score: GASA supplies `fitness_many`, CA-GASA `fitness`, which scores a
    generation's children together at its first call. Both score a child of
    a genome they scored in the last generation by delta, from state they
    keep for that genome, and record each child's lineage in `mutate` and
    `crossover`."""

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

    def mutate(self, genome, rng: random.Random):
        if len(genome) == 0:  # nothing to evolve on a fully covered corpus
            return genome
        return self.mutate_genes(genome, rng)

    def crossover(self, g1, g2, rng: random.Random):
        if len(g1) == 0:
            return g1, g2
        return crossover_at(g1, g2, rng)[:2]


class GasaProblem(WordGeneProblem):
    """Adapter exposing GASA to the GA engine with batched delta fitness.

    `fitness_many` keeps, for each genome of its last batch, which instances
    it labels correctly; each call replaces them. `mutate` and `crossover`
    record each child's parent and the one position they changed, until the
    next `fitness_many` call. A child of a genome in the last batch starts
    from the parent's vector and re-scores only the instances that hold its
    changed gene's word, if its code there differs from the parent's; a
    genome of the last batch keeps its vector. Every other genome is scored
    in full. Both are keyed by object identity and hold their genomes, so an
    id is never reused while it is a key.
    """

    _compile = staticmethod(compile_corpus)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lineage: dict = {}  # id(child) -> (child, parent, changed position)
        self._rows: dict = {}  # id(genome) -> (genome, its row of `_correct`)
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
        lineage, self._lineage = self._lineage, {}
        # Genomes that copy a row of the last batch, the rows they copy, the
        # children among them whose changed code differs from the parent's
        # with the positions changed, and the genomes scored in full.
        copies, sources, children, positions, full = [], [], [], [], []
        for j, genome in enumerate(genomes):
            kept = self._rows.get(id(genome))
            link = lineage.get(id(genome)) if kept is None else None
            if link is not None:
                _, parent, position = link
                kept = self._rows.get(id(parent))
                if kept is not None and genome.codes[position] != parent.codes[position]:
                    children.append(j)
                    positions.append(position)
            if kept is None:
                full.append(j)
            else:
                copies.append(j)
                sources.append(kept[1])

        correct = np.zeros((len(genomes), self.max_fitness), dtype=bool)
        correct[copies] = self._correct[sources]
        if children:
            starts, holding = self._gene_rows
            rows = [holding[starts[p] : starts[p + 1]] for p in positions]
            owners = np.repeat(children, [len(r) for r in rows])
            codes = [(genomes[j].codes,) for j in children]
            correct[owners, np.concatenate(rows)] = labelled_correctly_at(
                self._compiled, rows, codes, self.semantics
            )
        if full:
            codes = code_matrix([genomes[j] for j in full]).T
            correct[full] = labelled_correctly(self._compiled, codes, self.semantics)

        self._rows = {id(g): (g, j) for j, g in enumerate(genomes)}
        self._correct = correct
        return correct.sum(axis=1).tolist()
