"""CA-GASA: context-aware genes with an intersection-ratio dispatch rule.

Each gene carries two classification-value pairs. At each occurrence of
its word, the neighborhood is the distinct words up to `number_ahead` after
and `number_behind` before it, cut at the sentence boundaries. The context
pair fires when at least half of the neighborhood is in the gene's lists
(`list_next` ahead, `list_previous` behind); otherwise, and always for an
empty neighborhood, the context-free pair applies.

A genome holds each gene as a row of ints (`CagasaChromosome`), its list
words as ids into a sorted word table that the genomes of a problem share,
drawn from pools read off the neighbor table that `decide` uses
(`ContextCorpus.pools`). The operators and scoring read the rows; `genes`
decodes them to `CagasaGene` objects for readers such as `model.save_model`.

`ContextCorpus.decide` applies the rule to every occurrence of a genome's
gene words at once in numpy, for training and for prediction alike, and the
GASA kernel scores the pairs it decides. Only `CagasaProblem` remembers
decisions, while training: on the delta-fitness engine it shares with GASA
(`gasa.WordGeneProblem`), a genome's code chunks are the pair codes each of
its genes decides. A child differs from its parent in one gene, so it
decides at most that gene and re-scores only the instances whose codes it
changes, which equals the full pass. A generation's children share one
decision, one changed-row pass and one stacked re-score. The rule for one
word at a time lives only in `tests/oracles.py` (`cagasa_verdict`), the
plain reference the test suite asserts this code equal to.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise
from typing import Sequence, Tuple

import numpy as np

from .gasa import (
    SLICE_CELLS,
    CompiledCorpus,
    WordGeneProblem,
    compiler,
    forced_new_code,
    random_code,
    slices,
)
from .lexicon import EVOLVABLE_PAIRS, ClassificationValuePair

# Cap on context-list capacities and look-distances; bounds the search space.
MAX_CONTEXT = 3

# A gene row's int32 fields: the look distances ahead and behind, the
# context-free and the context pair codes, the capacities of the next and the
# previous list, then the next and the previous list, each as ascending word
# ids padded with -1 to MAX_CONTEXT.
FREE, CONTEXT, NEXT_SIZE, NEXT = 2, 3, 4, 6
ROW = NEXT + 2 * MAX_CONTEXT
ROW_BYTES = 4 * ROW

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
    rule: ContextRule
    context_free_pair: ClassificationValuePair


@dataclass(frozen=True)
class CagasaChromosome:
    """Genes as `rows`, ROW int32 fields a gene, whose list ids index
    `words`, a sorted word table. Lists are stored sorted, so that two genes
    on one table are equal exactly when their rows are."""

    rows: bytes
    words: tuple

    def __len__(self) -> int:
        return len(self.rows) // ROW_BYTES

    @property
    def genes(self) -> tuple:
        """The genes as objects, in gene order, decoded at each call."""
        words, genes = self.words, []
        fields = np.frombuffer(self.rows, dtype=np.int32).reshape(-1, ROW).tolist()
        for ahead, behind, free, context, next_size, previous_size, *ids in fields:
            list_next, list_previous = (
                frozenset(words[k] for k in ids[at : at + MAX_CONTEXT] if k >= 0)
                for at in (0, MAX_CONTEXT)
            )
            rule = ContextRule(
                next_size, previous_size, list_next, list_previous, ahead, behind,
                EVOLVABLE_PAIRS[context],
            )
            genes.append(CagasaGene(rule, EVOLVABLE_PAIRS[free]))
        return tuple(genes)


def _padded(ids) -> list:
    """`ids` ascending, padded with -1 to MAX_CONTEXT."""
    ids = sorted(ids)
    return ids + [-1] * (MAX_CONTEXT - len(ids))


def from_fields(genes, words=None) -> CagasaChromosome:
    """The chromosome of `genes`, each its row's first six fields and then
    its next and its previous list, each at most MAX_CONTEXT words of
    `words`, a sorted table; by default, the sorted words of the lists."""
    if words is None:
        words = tuple(sorted({w for *_, after, before in genes for w in (*after, *before)}))
    id_of, rows = dict(zip(words, range(len(words)))).__getitem__, array("i")
    for *head, list_next, list_previous in genes:
        rows.extend([*head, *_padded(map(id_of, list_next)), *_padded(map(id_of, list_previous))])
    if len(rows) != ROW * len(genes):
        raise ValueError(f"a context list holds more than {MAX_CONTEXT} words")
    return CagasaChromosome(rows.tobytes(), words)


def random_cagasa_chromosome(
    words: tuple, pools: Sequence, rng: random.Random
) -> CagasaChromosome:
    """A random gene for each of `pools`, whose lists draw from its pools."""
    rows, randint = array("i"), rng.randint
    for following, preceding in pools:
        next_size, previous_size = randint(1, MAX_CONTEXT), randint(1, MAX_CONTEXT)
        # sampling none draws nothing
        list_next = _padded(rng.sample(following, min(next_size, len(following))))
        list_previous = _padded(rng.sample(preceding, min(previous_size, len(preceding))))
        ahead, behind = randint(1, MAX_CONTEXT), randint(1, MAX_CONTEXT)
        context, free = random_code(rng), random_code(rng)
        rows.extend([ahead, behind, free, context, next_size, previous_size])
        rows.extend(list_next + list_previous)
    return CagasaChromosome(rows.tobytes(), words)


def _edit_list(row: array, pools, rng: random.Random) -> bool:
    """Swap one stored context word for a fresh word of its pool, or add it
    below capacity; False, drawing nothing, when no list has a fresh word."""
    sides = []
    for side, pool in enumerate(pools):
        at, capacity = NEXT + side * MAX_CONTEXT, row[NEXT_SIZE + side]
        stored = [w for w in row[at : at + MAX_CONTEXT] if w >= 0]  # ascending
        fresh = [w for w in pool if w not in stored]
        if fresh and capacity > 0:
            sides.append((fresh, capacity, at, stored))
    if not sides:
        return False
    fresh, capacity, at, stored = sides[rng.randrange(len(sides))]
    word = fresh[rng.randrange(len(fresh))]
    if len(stored) >= capacity:
        stored[rng.randrange(len(stored))] = word
    else:
        stored.append(word)
    row[at : at + MAX_CONTEXT] = array("i", _padded(stored))
    return True


def _row(genome: CagasaChromosome, position: int) -> bytes:
    return genome.rows[position * ROW_BYTES : (position + 1) * ROW_BYTES]


def mutate_cagasa_at(
    parent: CagasaChromosome, pools: Sequence, rng: random.Random
) -> Tuple[CagasaChromosome, int]:
    """The child with one gene edited, and that gene's position. Pick one
    gene, then one of: resample the context-free pair, resample the context
    pair, or edit a context list with a fresh word of its pool, which
    resamples the context-free pair when no list has one."""
    n = len(parent)
    if n == 0:
        raise ValueError("cannot mutate an empty chromosome")
    position = rng.randrange(n)
    row = array("i", _row(parent, position))
    edit = rng.randrange(3)
    if edit < 2 or not _edit_list(row, pools[position], rng):
        field = CONTEXT if edit == 1 else FREE
        row[field] = forced_new_code(row[field], rng)
    start, rows = position * ROW_BYTES, parent.rows
    rows = rows[:start] + row.tobytes() + rows[start + ROW_BYTES :]
    return CagasaChromosome(rows, parent.words), position


def _first_sightings(words: np.ndarray) -> np.ndarray:
    """`words` (offsets, occurrences), set to -1 in place wherever a word
    repeats one at a nearer offset. Each word's nearest sighting stays, so
    comparing with the rows already cleared finds every repeat."""
    for k in range(1, len(words)):
        words[k][(words[:k] == words[k]).any(axis=0)] = -1
    return words


class ContextCorpus:
    """Compiled text prepared for scoring CA-GASA genomes on the GASA kernel.

    `compiled` is the GASA slot matrix in which every gene-word occurrence
    has a slot of its own, its occurrence number, so that a genome's value
    table holds the pair each occurrence resolves to. It is compiled here,
    with `compile_sentences` as `gasa.compiler` makes it, from sentences of
    ids, sentence k the next lengths[k], and their labels if given; the
    occurrences are then numbered gene position by gene position in its
    slot matrix, in place, as no caller holds it. Training and prediction
    share this object; it remembers no decisions, which `CagasaProblem`
    does for training.
    """

    def __init__(self, compile_sentences, ids, lengths, label_positive=None):
        self.compiled = compile_sentences(ids, lengths, label_positive)
        slots = self.compiled.slots
        cells = np.flatnonzero(slots >= 0)
        genes = slots.ravel()[cells]
        # keys of 8 or 16 bits sort by radix, in the same stable order
        order = np.argsort(genes.astype(np.min_scalar_type(genes.max(initial=0))), kind="stable")
        self._cells = cells[order]  # each occurrence's flat index into `slots`
        self.occurrence_gene = genes[order]  # ascending
        np.put(slots, self._cells, np.arange(len(self._cells), dtype=np.int32))
        # (ahead, behind), MAX_CONTEXT rows each and one column per occurrence:
        # row k - 1 holds the id of the word k positions after or before the
        # occurrence, or -1 where that position is outside the sentence or
        # repeats a nearer word on the same side. The distinct words within
        # look distance d are then exactly the valid ids in rows 0..d-1.
        self.neighbors = np.empty((2, MAX_CONTEXT, len(self._cells)), dtype=np.int32)
        words = self.compiled.words
        padded = np.pad(words, ((0, 0), (MAX_CONTEXT, MAX_CONTEXT)), constant_values=-1)
        for start in range(0, len(self._cells), SLICE_CELLS):
            cells = self._cells[start : start + SLICE_CELLS]
            # the flat index into `padded`: row r gains 2 * MAX_CONTEXT cells
            # before it and MAX_CONTEXT cells before its first column
            at = cells + (2 * (cells // words.shape[1]) + 1) * MAX_CONTEXT
            for part, sign in zip(self.neighbors[:, :, start : start + len(cells)], (1, -1)):
                for k in range(MAX_CONTEXT):
                    part[k] = padded.take(at + sign * (k + 1))
                _first_sightings(part)

    @cached_property
    def occurrence_row(self) -> np.ndarray:
        """The instance each occurrence is in."""
        return self._cells // self.compiled.slots.shape[1]

    def pools(self, genes: int) -> Tuple[tuple, list]:
        """(words, pools): the sorted words next to a gene word, and for each
        of `genes` positions the (following, preceding) words next to its
        occurrences, as ascending ids into `words`: row 0 of each side of
        `neighbors`, which no repeat clears. Ids sort as their words do, so a
        draw from a pool picks what it would from the sorted words."""
        names, sides = list(self.compiled.vocabulary), self.neighbors[:, 0]
        used = np.zeros(len(names) + 1, dtype=bool)  # the last, index -1, for no word
        used[sides[0]] = used[sides[1]] = True
        order = sorted(np.flatnonzero(used[:-1]).tolist(), key=names.__getitem__)
        rank, size = np.empty(len(names), dtype=np.int64), len(order)
        rank[order] = np.arange(size)
        shared, pools = list(range(size)).__getitem__, []  # one int object per id, for all pools
        for row in sides:  # one side at a time, to bound the temporaries
            seen = row >= 0
            keys = np.sort(self.occurrence_gene[seen].astype(np.int64) * size + rank[row[seen]])
            keys = keys[np.diff(keys, prepend=-1) != 0]  # each (gene, word) once
            starts, ids = np.searchsorted(keys, np.arange(genes + 1) * size), keys % max(size, 1)
            pools.append([tuple(map(shared, ids[a:b].tolist())) for a, b in pairwise(starts)])
        return tuple(map(names.__getitem__, order)), list(zip(*pools))

    def decide(
        self, positions: Sequence[int], rows: bytes, words: tuple
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(codes, counts): the pair codes that the gene `rows`, one for each
        of `positions`, whose list ids index `words`, resolve to at the
        occurrences of their positions, int8, position by position; and each
        position's number of occurrences. Decided in slices of at most
        SLICE_CELLS occurrences, one neighbor row at a time, so that every
        temporary is one slice long."""
        vocabulary = self.compiled.vocabulary
        # each table word's id in the corpus, and _NO_WORD for a word outside
        # it and for the pad, index -1
        ids = [vocabulary.get(w, _NO_WORD) for w in words] + [_NO_WORD]
        fields = np.frombuffer(rows, dtype=np.int32).reshape(-1, ROW)
        # each side's list, one row per slot
        lists = np.array(ids, dtype=np.int32)[fields[:, NEXT:].T].reshape(2, MAX_CONTEXT, -1)
        first = np.searchsorted(self.occurrence_gene, positions, side="left")
        counts = np.searchsorted(self.occurrence_gene, positions, side="right") - first
        ends = np.cumsum(counts)
        shift = first - (ends - counts)  # occurrence number minus index in the output
        # offsets past the longest distance among the genes hold no neighbor
        depth = int(fields[:, :2].max(initial=0))
        codes = np.empty(int(counts.sum()), dtype=np.int8)
        for start in range(0, len(codes), SLICE_CELLS):
            index = np.arange(start, min(start + SLICE_CELLS, len(codes)))
            part = np.searchsorted(ends, index, side="right")  # each one's row of `fields`
            cells = index + shift[part]
            size, hits = np.zeros((2, len(index)), dtype=np.int8)
            for side, rows_of in enumerate(self.neighbors):
                distance, side_lists = fields[:, side].take(part), lists[side].take(part, axis=1)
                for k in range(depth):
                    neighbor = rows_of[k].take(cells)  # distinct ids of one offset, or -1
                    seen = (neighbor >= 0) & (distance > k)
                    size += seen
                    hits += seen & (neighbor == side_lists).any(axis=0)
            fire = (size > 0) & (2 * hits >= size)
            free_code, context_code = (fields[:, c].take(part) for c in (FREE, CONTEXT))
            codes[start : start + len(index)] = np.where(fire, context_code, free_code)
        return codes, counts


class CagasaProblem(WordGeneProblem):
    """Adapter exposing CA-GASA to the GA engine through `fitness` alone.
    The engine makes all of a generation's children, or its initial genomes,
    before it scores any; the first call on one scores all that are recorded
    (random genomes with no parent), and the others wait in `_batched`, from
    which a later call only moves the genome's state to `_scored`.

    Its genomes share one word table and draw their lists from the pools of
    `ContextCorpus.pools`, built with `_context` on first use.

    A genome's code chunks are its segments: the int8 pair codes each gene
    decides at its position's occurrences. Genomes that hold the same
    segment share one object. A child's changed gene takes the kept donor's
    segment or, if it keeps the parent gene's lists and look distances and
    the parent gene's two pair codes differ, reads where the rule fired from
    the parent's segment; the other changed genes are decided in one
    `decide` call, and a genome scored in full in a `decide` call of its own.
    """

    @cached_property
    def _context(self) -> ContextCorpus:
        c = self.corpus
        return ContextCorpus(compiler(c.words, self.table), c.ids, c.lengths, c.positive)

    @cached_property
    def _neighbors(self) -> Tuple[tuple, list]:
        return self._context.pools(len(self.index))

    @property
    def _compiled(self) -> CompiledCorpus:
        return self._context.compiled

    def random_genome(self, rng: random.Random) -> CagasaChromosome:
        genome = random_cagasa_chromosome(*self._neighbors, rng)
        self._lineage[id(genome)] = genome, None, None, None
        return genome

    def _mutate_at(self, genome: CagasaChromosome, rng: random.Random):
        return mutate_cagasa_at(genome, self._neighbors[1], rng)

    def fitness(self, genome: CagasaChromosome) -> int:
        """Correctly labelled instances. Every gene pair must be evolvable,
        as those of random, mutated and loaded genes are."""
        if id(genome) in self._batched:  # scored in this generation's first call
            state = self._scored[id(genome)] = self._batched.pop(id(genome))
            return state[3]
        ahead = [link[0] for link in self._lineage.values()] if id(genome) in self._lineage else ()
        return self._score([genome], ahead)[0]

    def _decide(self, positions: Sequence[int], rows: bytes, words: tuple) -> list:
        """The codes each gene row decides at its position's occurrences."""
        codes, counts = self._context.decide(positions, rows, words)
        ends = np.cumsum(counts).tolist()
        return [codes[start:end].tobytes() for start, end in zip([0, *ends], ends)]

    def _codes(self, genomes) -> list:
        return [tuple(self._decide(range(len(self.index)), g.rows, g.words)) for g in genomes]

    def _deltas(self, children) -> tuple:
        segments = [self._segment(*child) for child in children]
        fresh = [k for k, segment in enumerate(segments) if segment is None]
        if fresh:
            positions = [children[k][2] for k in fresh]
            rows = b"".join(_row(children[k][0], p) for k, p in zip(fresh, positions))
            words = children[fresh[0]][0].words  # the table of every genome of the problem
            for k, segment in zip(fresh, self._decide(positions, rows, words)):
                segments[k] = segment
        codes, moved = [], []  # most children decide as their parents do
        for k, ((_, (_, chunks, _, _), position, _), new) in enumerate(zip(children, segments)):
            if new != chunks[position]:
                moved.append((k, chunks, position, new))
                chunks = chunks[:position] + (new,) + chunks[position + 1 :]
            codes.append(chunks)
        rows, counts = [np.zeros(0, dtype=np.int64)], np.zeros(len(children), dtype=np.int64)
        for start, end in slices([len(new) for *_, new in moved]):
            part = moved[start:end]
            found, counts[[k for k, *_ in part]] = self._changed_rows(part)
            rows.append(found)
        return codes, np.concatenate(rows), counts

    def _changed_rows(self, moved) -> Tuple[np.ndarray, np.ndarray]:
        """For `moved` as (index, parent chunks, position, new segment), each
        new segment unequal to the parent's, the rows where each differs,
        ascending, joined in order, and how many each has, found for all at once."""
        context, instances = self._context, self.max_fitness
        _, chunks, positions, news = zip(*moved)
        ends = np.cumsum(lengths := [len(new) for new in news])
        old = np.frombuffer(b"".join(map(tuple.__getitem__, chunks, positions)), dtype=np.int8)
        changed = np.flatnonzero(np.frombuffer(b"".join(news), dtype=np.int8) != old)
        owner = np.searchsorted(ends, changed, side="right")
        # each owner's first occurrence number, less its segment's start in the join
        shift = np.searchsorted(context.occurrence_gene, positions) - ends + lengths
        rows = context.occurrence_row[changed + shift[owner]]
        keys = owner * instances + rows  # sorted, as a gene's occurrences lie in row order
        first = np.r_[True, keys[1:] != keys[:-1]]
        return rows[first], np.bincount(owner[first], minlength=len(news))

    def _segment(self, child, parent, position: int, donor):
        """The child's codes at `position`'s occurrences, if the kept donor's
        or the parent's state shows them without a decision; else None."""
        if donor is not None:
            return donor[1][position]
        old, new = (memoryview(_row(g, position)).cast("i").tolist() for g in (parent[0], child))
        same_rule = old[:FREE] + old[CONTEXT + 1 :] == new[:FREE] + new[CONTEXT + 1 :]
        if old[FREE] != old[CONTEXT] and same_rule:
            fired = np.frombuffer(parent[1][position], dtype=np.int8) == old[CONTEXT]
            return np.where(fired, new[CONTEXT], new[FREE]).astype(np.int8).tobytes()
        return None
