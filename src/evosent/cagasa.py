"""CA-GASA: context-aware genes with an intersection-ratio dispatch rule.

Each gene carries two classification-value pairs. The context pair fires
when at least half of the word's observed neighborhood overlaps the gene's
stored context lists; otherwise the context-free pair applies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Sequence, Set, Tuple

from .corpus import Corpus, UnknownWordIndex
from .evaluator import Semantics, predict, slot_table, verdict_matches
from .gasa import GasaChromosome, crossover, forced_new_pair, random_gene
from .lexicon import ClassificationValuePair, Dictionary

# Cap on context-list capacities and look-distances; bounds the search space.
MAX_CONTEXT = 3


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


def gather_context(
    tokens: Sequence[str], position: int, number_ahead: int, number_behind: int
) -> Tuple[Set[str], Set[str]]:
    """Distinct words up to `number_ahead` after and `number_behind` before
    the position, truncated at the sentence boundaries."""
    if not 0 <= position < len(tokens):
        raise ValueError(f"position {position} out of range")
    list_x = set(tokens[position + 1 : position + 1 + number_ahead])
    list_y = set(tokens[max(0, position - number_behind) : position])
    return list_x, list_y


def context_applies(rule: ContextRule, list_x: Set[str], list_y: Set[str]) -> bool:
    """Overlap ratio (a+b)/(size_x+size_y) >= 0.5; an empty neighborhood
    provides no context evidence and never fires the rule."""
    size = len(list_x) + len(list_y)
    if size == 0:
        return False
    a = len(list_x & rule.list_next)
    b = len(list_y & rule.list_previous)
    return (a + b) / size >= 0.5


def resolve_word(
    gene: CagasaGene, tokens: Sequence[str], position: int
) -> ClassificationValuePair:
    list_x, list_y = gather_context(
        tokens, position, gene.rule.number_ahead, gene.rule.number_behind
    )
    if context_applies(gene.rule, list_x, list_y):
        return gene.rule.context_pair
    return gene.context_free_pair


def corpus_neighbors(corpus: Corpus) -> Dict[str, Tuple[Set[str], Set[str]]]:
    """(preceding, following) adjacent-word sets for every corpus word."""
    neighbors: Dict[str, Tuple[Set[str], Set[str]]] = {}
    for inst in corpus.instances:
        tokens = inst.tokens
        for i, word in enumerate(tokens):
            prev_set, next_set = neighbors.setdefault(word, (set(), set()))
            if i > 0:
                prev_set.add(tokens[i - 1])
            if i + 1 < len(tokens):
                next_set.add(tokens[i + 1])
    return neighbors


def _sample_list(pool: Set[str], capacity: int, rng: random.Random) -> frozenset:
    take = min(capacity, len(pool))
    if take == 0:
        return frozenset()
    return frozenset(rng.sample(sorted(pool), take))


def random_cagasa_gene(
    word: str,
    neighbors: Tuple[Set[str], Set[str]],
    rng: random.Random,
) -> CagasaGene:
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
        context_pair=random_gene(rng),
    )
    return CagasaGene(word, rule, random_gene(rng))


def random_cagasa_chromosome(
    index: UnknownWordIndex,
    neighbors: Dict[str, Tuple[Set[str], Set[str]]],
    rng: random.Random,
) -> CagasaChromosome:
    genes = tuple(
        random_cagasa_gene(word, neighbors.get(word, (set(), set())), rng)
        for word in index.words
    )
    return CagasaChromosome(genes)


def to_context_free_gasa(chromosome: CagasaChromosome) -> GasaChromosome:
    """The GASA chromosome formed from the context-free pairs."""
    return GasaChromosome(tuple(g.context_free_pair for g in chromosome.genes))


def _mutate_list(
    gene: CagasaGene,
    neighbors: Tuple[Set[str], Set[str]],
    rng: random.Random,
) -> CagasaGene:
    """Swap one stored context word for a fresh corpus neighbor; falls back
    to resampling the context-free pair when no fresh neighbor exists."""
    preceding, following = neighbors
    rule = gene.rule
    sides = []
    fresh_next = sorted(following - rule.list_next)
    fresh_prev = sorted(preceding - rule.list_previous)
    if fresh_next and rule.next_size > 0:
        sides.append("next")
    if fresh_prev and rule.previous_size > 0:
        sides.append("previous")
    if not sides:
        return replace(gene, context_free_pair=forced_new_pair(gene.context_free_pair, rng))
    side = sides[rng.randrange(len(sides))]
    if side == "next":
        fresh = fresh_next[rng.randrange(len(fresh_next))]
        words = sorted(rule.list_next)
        if len(words) >= rule.next_size and words:
            words[rng.randrange(len(words))] = fresh
        else:
            words.append(fresh)
        new_rule = replace(rule, list_next=frozenset(words))
    else:
        fresh = fresh_prev[rng.randrange(len(fresh_prev))]
        words = sorted(rule.list_previous)
        if len(words) >= rule.previous_size and words:
            words[rng.randrange(len(words))] = fresh
        else:
            words.append(fresh)
        new_rule = replace(rule, list_previous=frozenset(words))
    return replace(gene, rule=new_rule)


def mutate_cagasa(
    parent: CagasaChromosome,
    neighbors: Dict[str, Tuple[Set[str], Set[str]]],
    rng: random.Random,
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
        new_gene = replace(
            gene, context_free_pair=forced_new_pair(gene.context_free_pair, rng)
        )
    elif edit == 1:
        new_rule = replace(
            gene.rule, context_pair=forced_new_pair(gene.rule.context_pair, rng)
        )
        new_gene = replace(gene, rule=new_rule)
    else:
        new_gene = _mutate_list(gene, neighbors.get(gene.word, (set(), set())), rng)
    genes = list(parent.genes)
    genes[position] = new_gene
    return CagasaChromosome(tuple(genes))


class CagasaProblem:
    """Adapter exposing CA-GASA to the GA engine."""

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
        self.neighbors = corpus_neighbors(corpus)
        self.table = slot_table(index, sentiment_dict, amplifier_dict)

    def random_genome(self, rng: random.Random) -> CagasaChromosome:
        return random_cagasa_chromosome(self.index, self.neighbors, rng)

    def fitness(self, genome: CagasaChromosome) -> int:
        table, semantics = self.table, self.semantics
        return sum(
            verdict_matches(predict(genome, inst.tokens, table, semantics), inst.label)
            for inst in self.corpus.instances
        )

    def mutate(self, genome: CagasaChromosome, rng: random.Random) -> CagasaChromosome:
        if len(genome) == 0:
            return genome
        return mutate_cagasa(genome, self.neighbors, rng)

    def crossover(self, g1, g2, rng):
        if len(g1) == 0:
            return g1, g2
        return crossover(g1, g2, rng)
