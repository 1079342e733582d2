"""CA-GASA: context-aware genes with an intersection-ratio dispatch rule.

Each gene carries two classification-value pairs. At each occurrence of
its word, the neighborhood is the distinct words up to `number_ahead` after
and `number_behind` before it, cut at the sentence boundaries. The context
pair fires when at least half of the neighborhood is in the gene's lists
(`list_next` ahead, `list_previous` behind); otherwise, and always for an
empty neighborhood, the context-free pair applies.

`ContextCorpus.decide` applies the rule to every occurrence of a genome's
gene words at once in numpy, for training and for prediction alike, and
`ContextCorpus` scores on the GASA kernel. The rule for one word at a time
lives only in `tests/oracles.py` (`cagasa_verdict`), the plain reference the
test suite asserts this code equal to.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

import numpy as np

from .corpus import Corpus, UnknownWordIndex
from .evaluator import Semantics, SlotTable
from .gasa import (
    PAIR_CODES,
    SLICE_CELLS,
    CompiledCorpus,
    WordGeneProblem,
    compile_corpus,
    forced_new_code,
    labelled_correctly,
    random_code,
)
from .lexicon import EVOLVABLE_PAIRS, ClassificationValuePair

# A word's (preceding, following) corpus neighbours, each sorted.
Neighbors = Tuple[Tuple[str, ...], Tuple[str, ...]]
NO_NEIGHBORS: Neighbors = ((), ())

# Cap on context-list capacities and look-distances; bounds the search space.
MAX_CONTEXT = 3

# The id of a list word outside the corpus, and the pad of shorter lists:
# it equals no neighbor id, which is a word id or -1.
_NO_WORD = -2


@dataclass(frozen=True)
class ContextRule:
    next_size: int
    previous_size: int
    list_next: frozenset
    list_previous: frozenset
    number_ahead: int
    number_behind: int
    context_pair: ClassificationValuePair

    def __post_init__(self):
        if len(self.list_next) > self.next_size:
            raise ValueError("list_next exceeds its declared capacity")
        if len(self.list_previous) > self.previous_size:
            raise ValueError("list_previous exceeds its declared capacity")
        if self.number_ahead < 0 or self.number_behind < 0:
            raise ValueError("look distances must be non-negative")


@dataclass(frozen=True)
class CagasaGene:
    word: str
    rule: ContextRule
    context_free_pair: ClassificationValuePair


@dataclass(frozen=True)
class CagasaChromosome:
    genes: tuple

    def __len__(self) -> int:
        return len(self.genes)


def corpus_neighbors(corpus: Corpus) -> Dict[str, Neighbors]:
    """The (preceding, following) adjacent words of every corpus word."""
    neighbors: dict = {}
    for inst in corpus.instances:
        tokens = inst.tokens
        for i, word in enumerate(tokens):
            prev_set, next_set = neighbors.setdefault(word, (set(), set()))
            if i > 0:
                prev_set.add(tokens[i - 1])
            if i + 1 < len(tokens):
                next_set.add(tokens[i + 1])
    return {w: (tuple(sorted(p)), tuple(sorted(n))) for w, (p, n) in neighbors.items()}


def _sample_list(pool: Tuple[str, ...], capacity: int, rng: random.Random) -> frozenset:
    take = min(capacity, len(pool))
    if take == 0:
        return frozenset()
    return frozenset(rng.sample(pool, take))


def _new_pair(pair: ClassificationValuePair, rng: random.Random) -> ClassificationValuePair:
    """Uniform over the five evolvable pairs other than `pair`."""
    return EVOLVABLE_PAIRS[forced_new_code(PAIR_CODES[pair], rng)]


def random_cagasa_gene(word: str, neighbors: Neighbors, rng: random.Random) -> CagasaGene:
    preceding, following = neighbors
    next_size = rng.randint(1, MAX_CONTEXT)
    previous_size = rng.randint(1, MAX_CONTEXT)
    rule = ContextRule(
        next_size=next_size,
        previous_size=previous_size,
        list_next=_sample_list(following, next_size, rng),
        list_previous=_sample_list(preceding, previous_size, rng),
        number_ahead=rng.randint(1, MAX_CONTEXT),
        number_behind=rng.randint(1, MAX_CONTEXT),
        context_pair=EVOLVABLE_PAIRS[random_code(rng)],
    )
    return CagasaGene(word, rule, EVOLVABLE_PAIRS[random_code(rng)])


def random_cagasa_chromosome(
    index: UnknownWordIndex, neighbors: Dict[str, Neighbors], rng: random.Random
) -> CagasaChromosome:
    genes = tuple(
        random_cagasa_gene(word, neighbors.get(word, NO_NEIGHBORS), rng) for word in index.words
    )
    return CagasaChromosome(genes)


def _mutate_list(gene: CagasaGene, neighbors: Neighbors, rng: random.Random) -> CagasaGene:
    """Swap one stored context word for a fresh corpus neighbor; falls back
    to resampling the context-free pair when no fresh neighbor exists."""
    preceding, following = neighbors
    rule = gene.rule
    sides = []
    fresh_next = [w for w in following if w not in rule.list_next]
    fresh_prev = [w for w in preceding if w not in rule.list_previous]
    if fresh_next and rule.next_size > 0:
        sides.append((fresh_next, rule.next_size, "list_next"))
    if fresh_prev and rule.previous_size > 0:
        sides.append((fresh_prev, rule.previous_size, "list_previous"))
    if not sides:
        return replace(gene, context_free_pair=_new_pair(gene.context_free_pair, rng))
    fresh_words, capacity, field = sides[rng.randrange(len(sides))]
    fresh = fresh_words[rng.randrange(len(fresh_words))]
    words = sorted(getattr(rule, field))
    if len(words) >= capacity and words:
        words[rng.randrange(len(words))] = fresh
    else:
        words.append(fresh)
    return replace(gene, rule=replace(rule, **{field: frozenset(words)}))


def mutate_cagasa(
    parent: CagasaChromosome, neighbors: Dict[str, Neighbors], rng: random.Random
) -> CagasaChromosome:
    """Pick one gene, then one of: resample the context-free pair, resample
    the context pair, or edit a context list with a fresh neighbor."""
    n = len(parent)
    if n == 0:
        raise ValueError("cannot mutate an empty chromosome")
    position = rng.randrange(n)
    gene = parent.genes[position]
    edit = rng.randrange(3)
    if edit == 0:
        new_gene = replace(gene, context_free_pair=_new_pair(gene.context_free_pair, rng))
    elif edit == 1:
        new_rule = replace(gene.rule, context_pair=_new_pair(gene.rule.context_pair, rng))
        new_gene = replace(gene, rule=new_rule)
    else:
        new_gene = _mutate_list(gene, neighbors.get(gene.word, NO_NEIGHBORS), rng)
    genes = list(parent.genes)
    genes[position] = new_gene
    return CagasaChromosome(tuple(genes))


def _first_sightings(words: np.ndarray) -> np.ndarray:
    """`words` (offsets, occurrences), set to -1 in place wherever a word
    repeats one at a nearer offset. Each word's nearest sighting stays, so
    comparing with the rows already cleared finds every repeat."""
    for k in range(1, len(words)):
        words[k][(words[:k] == words[k]).any(axis=0)] = -1
    return words


@dataclass(frozen=True)
class EncodedGenes:
    """Genes as int32 `fields`, one row per gene: its two look distances,
    its context-free and context pair codes, then its next list and its
    previous list as indices into `list_words`, each padded with -1 to the
    longest list among the genes. They do not depend on the corpus."""

    fields: np.ndarray
    n_next: int
    list_words: tuple


def encode_genes(genes: Sequence[CagasaGene]) -> EncodedGenes:
    n_next = max((len(g.rule.list_next) for g in genes), default=0)
    n_previous = max((len(g.rule.list_previous) for g in genes), default=0)
    list_index: dict = {}
    rows = []
    for gene in genes:
        rule = gene.rule
        list_next = [list_index.setdefault(w, len(list_index)) for w in rule.list_next]
        list_previous = [list_index.setdefault(w, len(list_index)) for w in rule.list_previous]
        rows.append(
            [
                rule.number_ahead,
                rule.number_behind,
                PAIR_CODES[gene.context_free_pair],
                PAIR_CODES[rule.context_pair],
                *list_next,
                *[-1] * (n_next - len(list_next)),
                *list_previous,
                *[-1] * (n_previous - len(list_previous)),
            ]
        )
    fields = np.array(rows, dtype=np.int32).reshape(len(genes), 4 + n_next + n_previous)
    return EncodedGenes(fields, n_next, tuple(list_index))


class _Decision(weakref.ref):
    """A weak reference to a gene that holds the pair codes the gene
    resolves to at the occurrences of one position (int8 bytes), and the
    key they are remembered under. It calls its callback with itself once
    the gene is freed, before the gene's id can be reused."""

    __slots__ = ("key", "codes")

    def __new__(cls, gene, callback, key, codes: bytes):
        self = super().__new__(cls, gene, callback)
        self.key, self.codes = key, codes
        return self

    def __init__(self, gene, callback, key, codes: bytes):
        super().__init__(gene, callback)


class ContextCorpus:
    """Compiled text prepared for scoring CA-GASA genomes on the GASA kernel.

    `compiled` is the GASA slot matrix in which every gene-word occurrence
    has a slot of its own, its occurrence number, so that a genome's value
    table holds the pair each occurrence resolves to. Occurrences are
    numbered gene position by gene position. Which pair an occurrence
    resolves to depends only on the gene at its position, so `fitness`
    decides the pair codes of each (position, gene object) once and
    remembers them for as long as the gene lives. `decide` remembers
    nothing; prediction calls it once per slice of text.
    """

    def __init__(self, compiled: CompiledCorpus):
        slots = compiled.slots
        cells = np.flatnonzero(slots >= 0)
        genes = slots.ravel()[cells]
        order = np.argsort(genes, kind="stable")
        self._cells = cells[order]  # each occurrence's flat index into `slots`
        self.occurrence_gene = genes[order]  # ascending
        del cells, genes, order  # before the copy, which long sentences make large
        own_slots = slots.copy()
        np.put(own_slots, self._cells, np.arange(len(self._cells), dtype=np.int32))
        self.compiled = replace(compiled, slots=own_slots)
        self._ahead = self._behind = np.zeros((0, len(self._cells)), dtype=np.int32)
        remembered: dict = {}  # (position, id(gene)) -> _Decision
        self._codes = remembered
        self._forget = lambda decision: remembered.pop(decision.key, None)

    def neighbor_ids(self, depth: int) -> Tuple[np.ndarray, np.ndarray]:
        """(ahead, behind), each with at least `depth` rows and one column
        per occurrence: row k - 1 holds the id of the word k positions after
        or before the occurrence, or -1 where that position is outside the
        sentence or repeats a nearer word on the same side. The distinct
        words within look distance d are then exactly the valid ids in rows
        0..d-1. The rows are built when first asked for, at least
        MAX_CONTEXT of them."""
        if depth > len(self._ahead):
            depth = max(depth, MAX_CONTEXT)
            words = self.compiled.words
            padded = np.pad(words, ((0, 0), (depth, depth)), constant_values=-1)
            ahead, behind = np.empty((2, depth, len(self._cells)), dtype=np.int32)
            for start in range(0, len(self._cells), SLICE_CELLS):
                cells = self._cells[start : start + SLICE_CELLS]
                # the flat index into `padded`: row r gains 2 * depth cells
                # before it and depth cells before its first column
                at = cells + (2 * (cells // words.shape[1]) + 1) * depth
                for ids, sign in ((ahead, 1), (behind, -1)):
                    part = ids[:, start : start + len(cells)]
                    for k in range(depth):
                        part[k] = padded.take(at + sign * (k + 1))
                    _first_sightings(part)
            self._ahead, self._behind = ahead, behind
        return self._ahead, self._behind

    def decide(
        self, positions: Sequence[int], encoded: EncodedGenes
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(codes, counts): the pair codes that the encoded genes, one for
        each of `positions`, resolve to at the occurrences of their
        positions, int8, position by position; and each position's number of
        occurrences. Decided in slices whose widest temporary holds at most
        about SLICE_CELLS elements."""
        vocabulary = self.compiled.vocabulary
        # list word ids, and _NO_WORD for a list word outside the corpus and
        # for the pad, index -1
        ids = [vocabulary.get(w, _NO_WORD) for w in encoded.list_words] + [_NO_WORD]
        fields = encoded.fields
        lists = np.array(ids, dtype=np.int32)[fields[:, 4:]]
        first = np.searchsorted(self.occurrence_gene, positions, side="left")
        counts = np.searchsorted(self.occurrence_gene, positions, side="right") - first
        ends = np.cumsum(counts)
        shift = first - (ends - counts)  # occurrence number minus index in the output
        # offsets past the longest distance among the genes hold no neighbor
        depth = int(fields[:, :2].max(initial=0))
        offsets = np.arange(1, depth + 1)[:, None]
        ahead, behind = self.neighbor_ids(depth)
        codes = np.empty(int(counts.sum()), dtype=np.int8)
        # the widest temporary compares (list words, offsets, cells)
        n_lists = max(encoded.n_next, fields.shape[1] - 4 - encoded.n_next, 1)
        step = max(SLICE_CELLS // (n_lists * max(depth, 1)), 1)
        for start in range(0, len(codes), step):
            index = np.arange(start, min(start + step, len(codes)))
            part = np.searchsorted(ends, index, side="right")  # each one's row of `fields`
            cells = index + shift[part]
            ahead_distance, behind_distance, free_code, context_code = fields[part, :4].T
            at_lists = lists[part].T
            size = hits = 0
            sides = (
                (ahead_distance, ahead, at_lists[: encoded.n_next]),
                (behind_distance, behind, at_lists[encoded.n_next :]),
            )
            for distance, neighbors, side_lists in sides:
                words = neighbors[:depth].take(cells, axis=1)  # (offsets, cells)
                seen = (words >= 0) & (offsets <= distance)
                size = size + seen.sum(axis=0)
                hits = hits + (seen & (side_lists[:, None] == words).any(axis=0)).sum(axis=0)
            fire = (size > 0) & (2 * hits >= size)
            codes[index] = np.where(fire, context_code, free_code)
        return codes, counts

    def fitness(self, chromosome: CagasaChromosome, semantics: Semantics) -> int:
        """Correctly labelled instances, deciding each (position, gene) not
        remembered. Every gene pair must be evolvable, as those of random,
        mutated and loaded genes are."""
        remembered = self._codes
        genes = chromosome.genes
        keys = [(position, id(gene)) for position, gene in enumerate(genes)]
        missing = [position for position, key in enumerate(keys) if key not in remembered]
        if missing:
            decided, counts = self.decide(missing, encode_genes([genes[p] for p in missing]))
            decided, ends = decided.tobytes(), np.cumsum(counts).tolist()
            for position, start, end in zip(missing, [0, *ends], ends):
                key = keys[position]
                remembered[key] = _Decision(genes[position], self._forget, key, decided[start:end])
        codes = np.frombuffer(b"".join([remembered[key].codes for key in keys]), dtype=np.int8)
        return int(labelled_correctly(self.compiled, codes[:, None], semantics).sum())


class CagasaProblem(WordGeneProblem):
    """Adapter exposing CA-GASA to the GA engine. It scores one genome at a
    time, with no `fitness_many`: a genome whose genes were all decided
    before costs one pass of the kernel."""

    @staticmethod
    def _compile(corpus: Corpus, table: SlotTable) -> ContextCorpus:
        return ContextCorpus(compile_corpus(corpus, table))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.neighbors = corpus_neighbors(self.corpus)

    def fitness(self, genome: CagasaChromosome) -> int:
        return self._compiled.fitness(genome, self.semantics)

    def random_genome(self, rng: random.Random) -> CagasaChromosome:
        return random_cagasa_chromosome(self.index, self.neighbors, rng)

    def mutate_genes(self, genome: CagasaChromosome, rng: random.Random) -> CagasaChromosome:
        return mutate_cagasa(genome, self.neighbors, rng)
