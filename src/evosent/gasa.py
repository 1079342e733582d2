"""GASA: one classification-value gene per unknown word.

The chromosome is an ordered gene sequence aligned to the unknown-word
index. Each gene is a pair code: a byte that indexes `EVOLVABLE_PAIRS`, the
six classification-value pairs a gene may hold. Fitness is the number of
training instances whose evaluated polarity matches the true label; the
test suite asserts it equal to the plain reference implementation in
`tests/oracles.py`. `compiler` turns sentences of word ids into a slot
matrix, and `scores` scores columns of pair codes on it through
`accumulate`, the column loop over the slot matrix. `labelled_correctly`
wraps `scores` for training; both algorithms train and predict on them.

`WordGeneProblem` is the delta-fitness engine of both algorithms. A child
differs from its parent in at most one gene, so a child of a genome scored
in the last generation starts from the parent's per-instance correctness
and re-scores only the instances whose codes it changes. `GasaProblem`
supplies GASA's genomes and, for a child, the instances that hold its
changed gene's word.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, count
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .corpus import Corpus, UnknownWordIndex
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
    position, and that position. Either chromosome type holds its genes as
    rows of equal width in its first field, bytes; the children keep their
    parents' type and other fields."""
    n = len(p1)
    if n != len(p2):
        raise ValueError(f"parent lengths differ: {n} vs {len(p2)}")
    if n == 0:
        raise ValueError("cannot cross over empty chromosomes")
    position = rng.randrange(n)
    (a, *more1), (b, *more2) = vars(p1).values(), vars(p2).values()
    width = len(a) // n
    start, end = position * width, (position + 1) * width
    c1 = type(p1)(a[:start] + b[start:end] + a[end:], *more1)
    c2 = type(p2)(b[:start] + a[start:end] + b[end:], *more2)
    return c1, c2, position


# The most elements one kernel call takes at once: slot-matrix cells, and the
# fewer of each owner's cells and codes, for a re-score slice; instances and
# codes for each genome of a full pass (a sentence or a genome with more takes
# a call of its own); cells for a block of synthetic candidates; of the
# codes CA-GASA compares at once; and gene-word occurrences for a slice of a
# CA-GASA decision, the length of its temporaries. It bounds their memory.
SLICE_CELLS = 1 << 16


@dataclass(frozen=True)
class CompiledCorpus:
    """Token sequences as slots into each genome's value table: the genome's
    genes, then the fixed pairs, the vocabulary's dictionary pairs followed
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
    vocabulary: dict  # word -> id, in id order; read with .get
    fixed_values: np.ndarray  # (fixed pairs,) float64
    fixed_is_amp: np.ndarray  # (fixed pairs,) bool
    label_positive: Optional[np.ndarray] = None  # (instances,) bool; None for unlabelled text


def compiler(words, table: SlotTable) -> Callable[..., CompiledCorpus]:
    """The compile of sentences of ids into `words` (a vocabulary dict is kept
    as it is). It resolves each word once, so the slices of a block share one
    walk of its vocabulary; a word missing from the table is neutral. Called
    with one flat array of ids, sentence k the next lengths[k], and their
    labels if given, it returns a new `CompiledCorpus` of them."""
    vocabulary = words if isinstance(words, dict) else dict(zip(words, count()))
    # a word missing from the table reads -1, the neutral pair's slot, so
    # that no pair is hashed for it
    entries = [table.get(word, -1) for word in vocabulary]
    dictionary_pairs = dict.fromkeys(e for e in entries if not isinstance(e, int))
    fixed_pairs = (*dictionary_pairs, NEUTRAL_PAIR)
    fixed_slot = {pair: k - len(fixed_pairs) for k, pair in enumerate(dictionary_pairs)}
    # one slot per word id, and the pad's slot -1 last, where id -1 reads it
    word_slots = np.array(
        [e if isinstance(e, int) else fixed_slot[e] for e in entries] + [-1], dtype=np.int32
    )
    fixed_values = np.array([p.value for p in fixed_pairs], dtype=np.float64)
    fixed_is_amp = np.array([p.kind is Kind.AMPLIFIER for p in fixed_pairs])

    def compile_sentences(ids, lengths, label_positive=None) -> CompiledCorpus:
        lengths = np.asarray(lengths, dtype=np.int64)
        width = int(lengths.max(initial=0))
        padded = np.full((len(lengths), width), -1, dtype=np.int32)
        # the mask's cells run row by row, left to right, the order of `ids`
        padded[np.arange(width) >= width - lengths[:, None]] = ids
        return CompiledCorpus(
            word_slots[padded], padded, vocabulary, fixed_values, fixed_is_amp, label_positive
        )

    return compile_sentences


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


def slices(sizes: Sequence[int]):
    """(start, end) of the longest runs of owners whose `sizes` fit SLICE_CELLS, or of one."""
    before, start = np.r_[0, np.cumsum(sizes)], 0  # before[k]: the sizes of owners 0..k-1
    while start < len(sizes):
        end = max(start + 1, int(np.searchsorted(before, before[start] + SLICE_CELLS, "right")) - 1)
        yield start, end
        start = end


def labelled_correctly_at(
    compiled: CompiledCorpus, rows: np.ndarray, counts: np.ndarray, codes, semantics: Semantics
) -> np.ndarray:
    """Whether each owner's codes label its instances correctly, for at
    least one owner; owner k's are the next counts[k] of `rows`. `codes[k]`
    holds owner k's gene codes as bytes chunks to join in order, as many for
    every owner. Each slice reads one column of its owners' codes, or only
    the codes its gene cells read if those are fewer (CA-GASA rows read about
    a tenth of theirs; GASA's cells on long texts far outnumber its codes),
    so whole owners go through the kernel in `slices` of at most SLICE_CELLS
    cells plus the fewer of each owner's cells and codes. A slice joins the
    codes of at most SLICE_CELLS / (width + min(width, codes)) owners of rows."""
    genes = sum(map(len, codes[0]))
    cells, before = counts * compiled.slots.shape[1], np.r_[0, np.cumsum(counts)]
    correct = []
    for start, end in slices(cells + np.minimum(cells, genes)):
        part = rows[before[start] : before[end]]
        offsets = np.repeat(np.arange(end - start, dtype=np.int32) * genes, counts[start:end])
        slots = compiled.slots[part]
        gene = slots >= 0
        np.add(slots, offsets[:, None], out=slots, where=gene)
        column = np.frombuffer(b"".join(chain.from_iterable(codes[start:end])), dtype=np.int8)
        if np.count_nonzero(gene) < len(column):
            column = column[slots[gene]]
            slots[gene] = np.arange(len(column), dtype=np.int32)
        del gene  # before the kernel's temporaries
        sliced = replace(compiled, slots=slots, label_positive=compiled.label_positive[part])
        correct.append(labelled_correctly(sliced, column[:, None], semantics)[0])
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


def gene_rows(slots: np.ndarray, genes: int) -> Tuple[list, np.ndarray]:
    """(starts, rows): the rows of a slot matrix that hold gene g are
    rows[starts[g]:starts[g + 1]], ascending and each once."""
    instances = max(len(slots), 1)
    cells = np.flatnonzero(slots >= 0)
    rows = cells // max(slots.shape[1], 1)
    keys = np.sort(slots.ravel()[cells].astype(np.int64) * instances + rows)
    keys = keys[np.diff(keys, prepend=-1) != 0]  # each (gene, row) once
    return np.searchsorted(keys, np.arange(genes + 1) * instances).tolist(), keys % instances


class WordGeneProblem:
    """The delta-fitness engine that GASA and CA-GASA share as GA-engine
    problems: one gene per unknown word, resolved through one slot table.

    A genome's state is (genome, code chunks, the bytes the kernel reads
    for it joined in order; which instances it labels correctly; how many).
    A genome is kept while its state is in `_scored`, for the genomes asked
    for since the last variation, or in `_parents`, for the generation
    before. A genome scored in a batch before it is asked for waits in
    `_batched`. `mutate` and `crossover` record each child's parent, changed
    position and, for a crossover, donor, the other parent. The first
    variation after a scoring call makes `_scored` the parents' table, and
    drops the older table, `_batched` and the lineage of the children never
    scored.

    A child of a kept genome starts from its parent's state and re-scores
    only the rows its changed codes touch, all of a batch's children in one
    `labelled_correctly_at` call. Any other genome takes a full pass, in
    kernel calls of as many genomes as fit in SLICE_CELLS elements, counting
    a genome's instances and codes, and at least one. A sentence's score
    depends on its own tokens alone, so the fitness is exactly that of a
    full pass. The tables are keyed by object identity and hold their
    genomes, so an id is never reused while it is a key.

    A subclass supplies `random_genome(rng)`; `_mutate_at(genome, rng)`, a
    child and its changed position; `_codes(genomes)`, the code chunks of
    genomes scored in full; and `_deltas(children)`, for children given as
    (child, parent's state, position, donor's state or None), each child's
    code chunks, the rows each changes, ascending, joined child by child in
    one array, and how many rows each changes.
    """

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
        self.max_fitness = len(corpus)
        self.table = slot_table(index, sentiment_dict, amplifier_dict)
        self._lineage: dict = {}  # id(child) -> (child, parent, position, donor or None)
        self._parents: dict = {}  # id(genome) -> its state, for the last generation
        self._scored: dict = {}  # the same for the genomes asked for since the last variation
        self._batched: dict = {}  # the same for genomes scored before they are asked for

    @cached_property
    def _compiled(self) -> CompiledCorpus:
        """Built on first use, so that building the problem stays cheap."""
        c = self.corpus
        return compiler(c.words, self.table)(c.ids, c.lengths, c.positive)

    def _kept(self, genome):
        key = id(genome)
        return self._scored.get(key) or self._parents.get(key)

    def _vary(self) -> None:
        if self._scored:  # the first variation since a scoring call
            self._parents, self._scored, self._batched, self._lineage = self._scored, {}, {}, {}

    def mutate(self, genome, rng: random.Random):
        self._vary()
        if len(genome) == 0:  # nothing to evolve on a fully covered corpus
            return genome
        child, position = self._mutate_at(genome, rng)
        self._lineage[id(child)] = child, genome, position, None
        return child

    def crossover(self, g1, g2, rng: random.Random):
        self._vary()
        if len(g1) == 0:
            return g1, g2
        c1, c2, position = crossover_at(g1, g2, rng)
        self._lineage[id(c1)] = c1, g1, position, g2
        self._lineage[id(c2)] = c2, g2, position, g1
        return c1, c2

    def _score(self, genomes, ahead=()) -> list:
        """The fitness of each of `genomes`, whose states go in `_scored`.
        The genomes `ahead` are scored in the same batch, and their states
        wait in `_batched`. Each genome not kept is scored once, however
        often it appears."""
        scored, parents, batched = self._scored, self._parents, self._batched
        children, full, fresh = [], [], set()
        for genome in chain(genomes, ahead):
            key = id(genome)
            if key in scored or key in parents or key in batched or key in fresh:
                continue
            fresh.add(key)
            link = self._lineage.pop(key, None)
            parent = link and self._kept(link[1])
            if parent:
                children.append((genome, parent, link[2], self._kept(link[3])))
            else:
                full.append(genome)
        if fresh:
            codes, rows, counts = self._deltas(children)
            codes += self._codes(full)
            instances, genes = self.max_fitness, sum(map(len, codes[0]))
            vectors = [parent[2] for _, parent, _, _ in children]
            vectors += [np.zeros(instances, dtype=bool)] * len(full)
            correct = np.concatenate(vectors).reshape(len(codes), instances)
            fitness = np.array([parent[3] for _, parent, _, _ in children] + [0] * len(full))
            if len(rows):  # children whose codes change rows; a fitness moves by their change
                at = np.flatnonzero(counts)
                owners, counts = [codes[k] for k in at.tolist()], counts[at]
                where = np.repeat(at, counts), rows
                new = labelled_correctly_at(self._compiled, rows, counts, owners, self.semantics)
                np.add.at(fitness, where[0], np.subtract(new, correct[where], dtype=np.int64))
                correct[where] = new
            # full passes, of the most whole genomes that fit a call, at least one
            for start, end in slices([instances + genes] * len(full)):
                start, end = start + len(children), end + len(children)
                joined = np.frombuffer(b"".join(chain.from_iterable(codes[start:end])), np.int8)
                columns = joined.reshape(end - start, genes).T
                correct[start:end] = labelled_correctly(self._compiled, columns, self.semantics)
            fitness[len(children) :] = np.count_nonzero(correct[len(children) :], axis=1)
            made = [child for child, _, _, _ in children] + full
            for genome, chunks, vector, value in zip(made, codes, correct, fitness.tolist()):
                batched[id(genome)] = genome, chunks, vector, value
        for genome in genomes:
            key = id(genome)
            scored[key] = scored.get(key) or parents.get(key) or batched.pop(key)
        return [scored[id(genome)][3] for genome in genomes]


class GasaProblem(WordGeneProblem):
    """Adapter exposing GASA to the GA engine through `fitness_many`. A
    child re-scores the instances that hold its changed gene's word, or none
    when its code there equals the parent's."""

    _mutate_at = staticmethod(mutate_at)

    @cached_property
    def _gene_rows(self):
        return gene_rows(self._compiled.slots, len(self.index))

    def random_genome(self, rng: random.Random) -> GasaChromosome:
        return random_chromosome(len(self.index), rng)

    def _codes(self, genomes) -> list:
        return [(genome.codes,) for genome in genomes]

    def _deltas(self, children) -> tuple:
        starts, holding = self._gene_rows
        rows = [holding[:0]]
        for child, parent, position, _ in children:
            start = end = starts[position]
            if child.codes[position] != parent[0].codes[position]:
                end = starts[position + 1]
            rows.append(holding[start:end])
        counts = np.fromiter(map(len, rows[1:]), dtype=np.int64, count=len(children))
        return [(child.codes,) for child, *_ in children], np.concatenate(rows), counts

    def fitness_many(self, genomes) -> list:
        return self._score(list(genomes))
