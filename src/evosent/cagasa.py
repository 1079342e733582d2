"""CA-GASA: context-aware genes with an intersection-ratio dispatch rule.

Each gene carries two classification-value pairs. The context pair fires
when at least half of the word's observed neighborhood overlaps the gene's
stored context lists; otherwise the context-free pair applies.

`resolve_word` is the rule for one word, which prediction uses.
`ContextCorpus` applies it to every occurrence of a genome's gene words,
deciding each gene once in numpy, and scores the genome on the GASA kernel;
the test suite asserts it equal to the plain reference implementation in
`tests/oracles.py`.
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

    def pair_at(self, gene: int, tokens, position: int) -> ClassificationValuePair:
        return resolve_word(self.genes[gene], tokens, position)


def resolve_word(
    gene: CagasaGene, tokens: Sequence[str], position: int
) -> ClassificationValuePair:
    """The context pair when at least half of the word's neighborhood, the
    distinct words up to `number_ahead` after and `number_behind` before the
    position (cut at the sentence boundaries), is in the rule's lists; the
    context-free pair otherwise. An empty neighborhood never fires."""
    if not 0 <= position < len(tokens):
        raise ValueError(f"position {position} out of range")
    rule = gene.rule
    ahead = set(tokens[position + 1 : position + 1 + rule.number_ahead])
    behind = set(tokens[max(0, position - rule.number_behind) : position])
    size = len(ahead) + len(behind)
    hits = len(ahead & rule.list_next) + len(behind & rule.list_previous)
    # (a + b) / size >= 0.5, in exact integer arithmetic
    if size and 2 * hits >= size:
        return rule.context_pair
    return gene.context_free_pair


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
    """`words` (offsets, occurrences) with -1 wherever a word repeats one at
    a nearer offset."""
    out = words.copy()
    for k in range(1, len(words)):
        out[k][(words[:k] == words[k]).any(axis=0)] = -1
    return out


def _encode_genes(genes: Sequence[CagasaGene], word_ids: dict) -> Tuple[np.ndarray, int]:
    """(fields, next list length). `fields` has one int32 row per gene: its
    two look distances, its context-free and context pair codes, then its
    next list and its previous list as word ids, each padded to the longest
    list among `genes` with _NO_WORD."""
    n_next = max((len(g.rule.list_next) for g in genes), default=0)
    n_previous = max((len(g.rule.list_previous) for g in genes), default=0)
    rows = []
    for gene in genes:
        rule = gene.rule
        list_next = [word_ids.get(w, _NO_WORD) for w in rule.list_next]
        list_previous = [word_ids.get(w, _NO_WORD) for w in rule.list_previous]
        rows.append(
            [
                rule.number_ahead,
                rule.number_behind,
                PAIR_CODES[gene.context_free_pair],
                PAIR_CODES[rule.context_pair],
                *list_next,
                *[_NO_WORD] * (n_next - len(list_next)),
                *list_previous,
                *[_NO_WORD] * (n_previous - len(list_previous)),
            ]
        )
    fields = np.array(rows, dtype=np.int32).reshape(len(genes), 4 + n_next + n_previous)
    return fields, n_next


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
    """A corpus compiled for scoring CA-GASA genomes on the GASA kernel.

    `compiled` is the GASA slot matrix in which every gene-word occurrence
    has a slot of its own, its occurrence number, so that a genome's value
    table holds the pair each occurrence resolves to. Occurrences are
    numbered gene position by gene position. Which pair an occurrence
    resolves to depends only on the gene at its position, so the pair codes
    of each (position, gene object) are decided once and remembered for as
    long as the gene lives.
    """

    def __init__(self, corpus: Corpus, table: SlotTable):
        compiled = compile_corpus(corpus, table)
        slots = compiled.slots
        rows, columns = np.nonzero(slots >= 0)
        order = np.argsort(slots[rows, columns], kind="stable")
        rows, columns = rows[order], columns[order]
        own_slots = slots.copy()
        own_slots[rows, columns] = np.arange(len(rows))
        self.compiled = replace(compiled, slots=own_slots)
        self.occurrence_gene = slots[rows, columns]  # ascending
        self._rows, self._columns = rows, columns
        tokens = [inst.tokens for inst in corpus.instances]
        self.word_ids = {w: k for k, w in enumerate(dict.fromkeys(w for t in tokens for w in t))}
        # the word ids laid out like the slots, left-padded with -1
        width = slots.shape[1]
        words = [[-1] * (width - len(t)) + [self.word_ids[w] for w in t] for t in tokens]
        self._words = np.array(words, dtype=np.int32).reshape(slots.shape)
        self._ahead = self._behind = np.zeros((0, len(rows)), dtype=np.int32)
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
            padded = np.pad(self._words, ((0, 0), (depth, depth)), constant_values=-1)
            at = self._columns + depth
            offsets = np.arange(1, depth + 1)[:, None]
            ahead = padded[self._rows, at + offsets]
            behind = padded[self._rows, at - offsets]
            self._ahead, self._behind = _first_sightings(ahead), _first_sightings(behind)
        return self._ahead, self._behind

    def _decide(self, positions: list, genes: list) -> None:
        """Remember the pair codes each gene resolves to at the occurrences
        of its position, deciding all of them in one pass."""
        fields, n_next = _encode_genes(genes, self.word_ids)
        first = np.searchsorted(self.occurrence_gene, positions, side="left")
        counts = np.searchsorted(self.occurrence_gene, positions, side="right") - first
        cells = np.concatenate([np.arange(f, f + c) for f, c in zip(first, counts)])
        at = np.repeat(fields, counts, axis=0).T  # one column per cell
        ahead_distance, behind_distance, free_code, context_code = at[:4]
        # offsets past the longest distance among the genes hold no neighbor
        depth = int(fields[:, :2].max(initial=0))
        offsets = np.arange(1, depth + 1)[:, None]
        ahead, behind = self.neighbor_ids(depth)
        size = hits = 0
        sides = (
            (ahead_distance, ahead, at[4 : 4 + n_next]),
            (behind_distance, behind, at[4 + n_next :]),
        )
        for distance, neighbors, lists in sides:
            words = neighbors[:depth].take(cells, axis=1)  # (offsets, cells)
            seen = (words >= 0) & (offsets <= distance)
            size = size + seen.sum(axis=0)
            hits = hits + (seen & (lists[:, None] == words).any(axis=0)).sum(axis=0)
        codes = np.where((size > 0) & (2 * hits >= size), context_code, free_code)
        codes = codes.astype(np.int8).tobytes()
        ends = np.cumsum(counts)
        for position, gene, end, count in zip(positions, genes, ends.tolist(), counts.tolist()):
            key = position, id(gene)
            self._codes[key] = _Decision(gene, self._forget, key, codes[end - count : end])

    def fitness(self, chromosome: CagasaChromosome, semantics: Semantics) -> int:
        """Correctly labelled instances. Every gene pair must be evolvable,
        as those of random, mutated and loaded genes are."""
        remembered = self._codes
        keys = [(position, id(gene)) for position, gene in enumerate(chromosome.genes)]
        missing = [position for position, key in enumerate(keys) if key not in remembered]
        if missing:
            self._decide(missing, [chromosome.genes[position] for position in missing])
        codes = np.frombuffer(b"".join([remembered[key].codes for key in keys]), dtype=np.int8)
        return int(labelled_correctly(self.compiled, codes[:, None], semantics).sum())


class CagasaProblem(WordGeneProblem):
    """Adapter exposing CA-GASA to the GA engine. It scores one genome at a
    time, with no `fitness_many`: a genome whose genes were all decided
    before costs one pass of the kernel."""

    _compile = ContextCorpus

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.neighbors = corpus_neighbors(self.corpus)

    def fitness(self, genome: CagasaChromosome) -> int:
        return self._compiled.fitness(genome, self.semantics)

    def random_genome(self, rng: random.Random) -> CagasaChromosome:
        return random_cagasa_chromosome(self.index, self.neighbors, rng)

    def mutate_genes(self, genome: CagasaChromosome, rng: random.Random) -> CagasaChromosome:
        return mutate_cagasa(genome, self.neighbors, rng)
