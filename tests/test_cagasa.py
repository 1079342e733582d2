import gc
import math
import random
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evosent.cagasa
import evosent.gasa
from evosent.cagasa import (
    MAX_CONTEXT,
    ROW_BYTES,
    CagasaChromosome,
    CagasaGene,
    CagasaProblem,
    ContextCorpus,
    ContextRule,
    mutate_cagasa_at,
    random_cagasa_chromosome,
)
from evosent.corpus import UnknownWordIndex, build_unknown_index
from evosent.evaluator import Semantics, slot_table
from evosent.experiments import generate_synthetic_corpus, random_planted_lexicon
from evosent.ga_engine import GAConfig, run_ga
from evosent.gasa import PAIR_CODES, crossover_at
from evosent.lexicon import EVOLVABLE_PAIRS, Dictionary, Kind, seed_amplifier_dictionary

from conftest import (
    A,
    S,
    context_corpus,
    fires,
    make_corpus,
    neighbor_pools,
    predicted,
    trained_model,
)
from oracles import (
    cagasa_chromosome,
    cagasa_fitness,
    gasa_fitness,
    gasa_verdict,
    reference_corpus_neighbors,
    reference_fires,
    reference_mutate_cagasa_at,
    reference_random_cagasa_gene,
    to_context_free_gasa,
)


def rule(
    list_next=(),
    list_previous=(),
    number_ahead=1,
    number_behind=1,
    context_pair=S(-1.0),
    next_size=MAX_CONTEXT,
    previous_size=MAX_CONTEXT,
):
    return ContextRule(
        next_size=next_size,
        previous_size=previous_size,
        list_next=frozenset(list_next),
        list_previous=frozenset(list_previous),
        number_ahead=number_ahead,
        number_behind=number_behind,
        context_pair=context_pair,
    )


class TestGatherContext:
    """The neighborhood a CA-GASA model reads: distinct words within the look
    distances, cut at the sentence boundaries."""

    def test_ship_sunk_neighborhood(self):
        tokens = ["the", "ship", "sunk"]
        # one matching word behind fires, so the neighborhood has at most two
        # words; "the", at distance 2, and "ship" are both in it, and behind
        assert fires(rule(list_previous={"the"}, number_ahead=1, number_behind=2), tokens, 2)
        assert fires(rule(list_previous={"ship"}, number_ahead=1, number_behind=2), tokens, 2)
        assert not fires(
            rule(list_next={"the", "ship"}, number_ahead=1, number_behind=2), tokens, 2
        )

    def test_start_boundary(self):
        # "b" ahead fires; nothing behind the first word matches either word
        far = dict(number_ahead=1, number_behind=MAX_CONTEXT)
        assert fires(rule(list_next={"b"}, **far), ["a", "b"], 0)
        assert not fires(rule(list_previous={"a", "b"}, **far), ["a", "b"], 0)

    def test_zero_distances(self):
        # zero look distances leave an empty neighborhood, which never fires
        words = {"a", "b", "c"}
        r = rule(list_next=words, list_previous=words, number_ahead=0, number_behind=0)
        assert not fires(r, ["a", "b", "c"], 1)

    # "x" exactly at the look distance is in the neighborhood, {x} or {a, x},
    # and fires; one word further it is not, and {a} never fires.
    @pytest.mark.parametrize("distance", range(1, MAX_CONTEXT + 1))
    def test_ahead_window_ends_at_number_ahead(self, distance):
        r = rule(list_next={"x"}, number_ahead=distance)
        assert fires(r, ["w", *["a"] * (distance - 1), "x"], 0)
        assert not fires(r, ["w", *["a"] * distance, "x"], 0)

    @pytest.mark.parametrize("distance", range(1, MAX_CONTEXT + 1))
    def test_behind_window_ends_at_number_behind(self, distance):
        r = rule(list_previous={"x"}, number_behind=distance)
        assert fires(r, ["x", *["a"] * (distance - 1), "w"], distance)
        assert not fires(r, ["x", *["a"] * distance, "w"], distance + 1)

    def test_deduplication(self):
        # ahead of "w" is {x, y}: one hit of two fires; counting the repeated
        # "x" twice would make it one of three
        r = rule(list_next={"y"}, number_ahead=3, number_behind=0)
        assert fires(r, ["w", "x", "x", "y"], 0)


class TestContextApplies:
    """The firing rule: at least half of the neighborhood in the lists."""

    def test_ship_sunk_ratio(self):
        r = rule(list_next={"book"}, list_previous={"ship"}, number_ahead=1, number_behind=2)
        # a=0, b=1, sizes 0+2 -> ratio exactly 0.5
        assert fires(r, ["the", "ship", "sunk"], 2)

    def test_empty_neighborhood_never_fires(self):
        r = rule(list_next={"x"}, list_previous={"y"})
        assert not fires(r, ["w"], 0)

    def test_full_overlap(self):
        r = rule(list_next={"x", "y"}, number_ahead=2)
        assert fires(r, ["w", "x", "y"], 0)

    def test_below_half(self):
        r = rule(list_previous={"ship"}, number_behind=3)
        assert not fires(r, ["the", "old", "ship", "w"], 3)

    def test_monotone_in_overlap(self, rng):
        for _ in range(300):
            neighborhood_x = [f"x{i}" for i in range(rng.randrange(1, 4))]
            neighborhood_y = [f"y{i}" for i in range(rng.randrange(0, 3))]
            tokens = [*neighborhood_y, "w", *neighborhood_x]
            position = len(neighborhood_y)
            distances = dict(number_ahead=len(neighborhood_x), number_behind=position)
            matched = {w for w in neighborhood_x if rng.random() < 0.5}
            capacity = len(neighborhood_x) + 1
            base = rule(list_next=matched, next_size=capacity, **distances)
            unmatched = sorted(set(neighborhood_x) - matched)
            if not unmatched or not fires(base, tokens, position):
                continue
            grown = rule(list_next=matched | {unmatched[0]}, next_size=capacity, **distances)
            assert fires(grown, tokens, position)


class TestResolveWord:
    SUNK = rule(list_next={"book"}, list_previous={"ship"}, number_ahead=1, number_behind=2)

    def test_context_hit(self):
        assert fires(self.SUNK, ["the", "ship", "sunk"], 2)

    def test_context_miss_uses_context_free(self):
        assert not fires(self.SUNK, ["it", "just", "sunk"], 2)

    def test_one_word_sentence_is_context_free(self):
        assert not fires(rule(list_previous={"ship"}), ["sunk"], 0)


def named_pools(corpus, index) -> list:
    """Each gene position's (following, preceding) pool, as words."""
    words, pools = neighbor_pools(corpus, index)
    return [tuple(tuple(words[k] for k in pool) for pool in pair) for pair in pools]


class TestCorpusNeighbors:
    def test_adjacency(self):
        corpus = make_corpus([(["a", "b", "c"], "positive")])
        index = UnknownWordIndex(("b", "a", "c"), {"b": 0, "a": 1, "c": 2})
        assert neighbor_pools(corpus, index)[0] == ("a", "b", "c")
        assert named_pools(corpus, index) == [(("c",), ("a",)), (("b",), ()), ((), ("b",))]

    def test_sorted_distinct_words(self):
        corpus = make_corpus(
            [(["d", "w", "b"], "positive"), (["c", "w", "b", "w", "a"], "negative")]
        )
        index = UnknownWordIndex(("w",), {"w": 0})
        words, pools = neighbor_pools(corpus, index)
        assert words == ("a", "b", "c", "d") and pools == [((0, 1), (1, 2, 3))]
        # the reference's (preceding, following) neighbours, in reverse
        index = build_unknown_index(corpus, *make_problem([])[1:3])
        reference = reference_corpus_neighbors(corpus)
        assert named_pools(corpus, index) == [reference[w][::-1] for w in index.words]

    @pytest.mark.parametrize(
        "texts, genes, expected",
        [
            # a gene word next to itself
            ([["w", "w"]], "w", (("w",), [((0,), (0,))])),
            # a gene word only in one-word sentences has empty pools
            ([["w"], ["w"]], "w", ((), [((), ())])),
            ([["w"], ["a", "b"], ["w"]], "wab", (("a", "b"), [((), ()), ((1,), ()), ((), (0,))])),
            # row 0 of a side keeps the adjacent word even where it repeats one
            # further away, and each (gene, side, word) once
            ([["a", "b", "a", "w", "a", "b", "a", "w", "a"]], "w", (("a",), [((0,), (0,))])),
            ([["b", "w", "a", "a", "w", "b", "b"]], "w", (("a", "b"), [((0, 1), (0, 1))])),
        ],
    )
    def test_directed(self, texts, genes, expected):
        corpus = make_corpus([(tokens, "positive") for tokens in texts])
        index = UnknownWordIndex(tuple(genes), {w: k for k, w in enumerate(genes)})
        assert neighbor_pools(corpus, index) == expected

    def test_dictionary_word_is_a_neighbor(self):
        corpus, sd, ad, index = make_problem(
            [(["good", "w", "not"], "positive"), (["not", "good"], "negative")], {"good": S(1.0)}
        )
        assert index.words == ("w",)
        problem = CagasaProblem(corpus, index, sd, ad)
        assert "_context" not in vars(problem)  # building the problem compiles nothing
        assert problem._neighbors == (("good", "not"), [((1,), (0,))])


class TestRandomGene:
    def test_no_preceding_neighbors(self, rng):
        (gene,) = random_cagasa_chromosome(("x",), [((0,), ())], rng).genes
        assert gene.rule.list_previous == frozenset()

    def test_field_ranges(self, rng):
        words = ("a", "b", "c", "d", "e", "f", "g", "h")
        neighbors = (("a", "b", "c", "d"), ("e", "f", "g", "h"))
        genes = random_cagasa_chromosome(words, [((4, 5, 6, 7), (0, 1, 2, 3))] * 10_000, rng).genes
        for gene in genes:
            r = gene.rule
            assert 1 <= r.next_size <= MAX_CONTEXT
            assert 1 <= r.previous_size <= MAX_CONTEXT
            assert 1 <= r.number_ahead <= MAX_CONTEXT
            assert 1 <= r.number_behind <= MAX_CONTEXT
            assert len(r.list_next) <= r.next_size
            assert len(r.list_previous) <= r.previous_size
            assert r.list_next <= set(neighbors[1])
            assert r.list_previous <= set(neighbors[0])

    def test_pairs_evolvable(self, rng):
        for gene in random_cagasa_chromosome(("a", "b"), [((1,), (0,))] * 1000, rng).genes:
            assert gene.rule.context_pair.is_evolvable()
            assert gene.context_free_pair.is_evolvable()


def make_problem(rows, sentiment_entries=None):
    corpus = make_corpus(rows)
    sd = Dictionary(sentiment_entries or {}, Kind.SENTIMENT)
    ad = seed_amplifier_dictionary()
    index = build_unknown_index(corpus, sd, ad)
    return corpus, sd, ad, index


class TestOperators:
    def _random_chromosome(self, rng, rows=None):
        rows = rows or [(["u", "v", "w"], "positive"), (["v", "w", "u"], "negative")]
        corpus, sd, ad, index = make_problem(rows)
        words, pools = neighbor_pools(corpus, index)
        return random_cagasa_chromosome(words, pools, rng), pools

    def test_crossover_swaps_whole_gene(self, rng):
        c1, _ = self._random_chromosome(rng)
        c2, _ = self._random_chromosome(random.Random(5))

        class PositionZero(random.Random):
            def randrange(self, n):
                return 0

        o1, o2, _ = crossover_at(c1, c2, PositionZero())
        (o1, o2, c1, c2) = (c.genes for c in (o1, o2, c1, c2))
        assert o1[0] == c2[0] and o2[0] == c1[0]
        assert o1[1:] == c1[1:] and o2[1:] == c2[1:]

    def test_mutation_changes_one_gene(self, rng):
        for _ in range(1000):
            parent, pools = self._random_chromosome(rng)
            child, position = mutate_cagasa_at(parent, pools, rng)
            assert len(child) == len(parent)
            parent, child = parent.genes, child.genes
            diffs = [i for i in range(len(parent)) if parent[i] != child[i]]
            assert len(diffs) <= 1
            # every edit changes the gene: a list edit with no fresh neighbor
            # resamples the context-free pair instead
            assert diffs == [position]
            for i in diffs:
                assert child[i].context_free_pair.is_evolvable()
                assert child[i].rule.context_pair.is_evolvable()

    def test_mutation_edit_isolation(self, rng):
        parent, pools = self._random_chromosome(rng)

        class ForceContextFreeEdit(random.Random):
            def __init__(self):
                super().__init__(9)
                self.first_calls = iter([0, 0])  # gene position, edit kind

            def randrange(self, n):
                try:
                    return next(self.first_calls) % n
                except StopIteration:
                    return super().randrange(n)

        child, position = mutate_cagasa_at(parent, pools, ForceContextFreeEdit())
        assert position == 0
        child, parent = child.genes, parent.genes
        assert child[1:] == parent[1:]
        assert child[0].rule == parent[0].rule
        assert child[0].context_free_pair != parent[0].context_free_pair

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            mutate_cagasa_at(CagasaChromosome(b"", ()), [], rng)
        with pytest.raises(ValueError):
            crossover_at(CagasaChromosome(b"", ()), CagasaChromosome(b"", ()), rng)

    def test_length_mismatch(self, rng):
        c1, _ = self._random_chromosome(rng)
        with pytest.raises(ValueError):
            crossover_at(c1, CagasaChromosome(c1.rows[:ROW_BYTES], c1.words), rng)


class TestRowsMatchReference:
    """Random genomes, mutation and crossover on gene rows against the
    object-based operators in `tests/oracles.py`: each gives the same genes
    and leaves the random stream in the same state. A genome re-encoded from
    its decoded genes on its own table is the same genome, since lists are
    stored sorted."""

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(
            st.lists(st.sampled_from(["u", "v", "w", "x", "y", "good", "not"]), max_size=8),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 30),
    )
    def test_same_genes_and_draws(self, texts, seed, steps):
        corpus, _, _, index = make_problem(
            [(t, "positive") for t in texts], {"good": S(1.0)}
        )
        words, pools = neighbor_pools(corpus, index)
        neighbors = reference_corpus_neighbors(corpus)
        by_position = [neighbors.get(w, ((), ())) for w in index.words]
        rng, reference = random.Random(seed), random.Random(seed)

        def same(genome, genes):
            assert genome.genes == genes and rng.getstate() == reference.getstate()
            assert cagasa_chromosome(genes, words) == genome

        population, expected = [], []
        for _ in range(3):
            population.append(random_cagasa_chromosome(words, pools, rng))
            expected.append(tuple(reference_random_cagasa_gene(n, reference) for n in by_position))
            same(population[-1], expected[-1])
        if not len(index):
            return
        for step in range(steps):
            k, j = step % 3, (step + 1) % 3
            child, position = mutate_cagasa_at(population[k], pools, rng)
            genes, at = reference_mutate_cagasa_at(expected[k], by_position, reference)
            assert position == at
            same(child, genes)
            population[k], expected[k] = child, genes
            c1, c2, position = crossover_at(population[k], population[j], rng)
            at = reference.randrange(len(index))
            a, b = expected[k], expected[j]
            assert position == at
            same(c1, a[:at] + b[at : at + 1] + a[at + 1 :])
            same(c2, b[:at] + a[at : at + 1] + b[at + 1 :])
            population[k], population[j] = c1, c2
            expected[k], expected[j] = c1.genes, c2.genes


def neutralized(chromosome):
    """Strip every gene down to an inert context rule."""
    genes = []
    for gene in chromosome.genes:
        genes.append(
            CagasaGene(
                rule(
                    number_ahead=0,
                    number_behind=0,
                    context_pair=gene.rule.context_pair,
                ),
                gene.context_free_pair,
            )
        )
    return cagasa_chromosome(genes)


class TestGasaReduction:
    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_empty_context_behaves_like_gasa(self, semantics):
        rnd = random.Random(42)
        lexicon = random_planted_lexicon(8, 4, rnd)
        corpus = generate_synthetic_corpus(lexicon, 100, (2, 6), semantics, rnd)
        sd = Dictionary({}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        chromosome = neutralized(random_cagasa_chromosome(*neighbor_pools(corpus, index), rnd))
        gasa_chromosome = to_context_free_gasa(chromosome)
        assert cagasa_fitness(
            chromosome, corpus, index, sd, ad, semantics
        ) == gasa_fitness(gasa_chromosome, corpus, index, sd, ad, semantics)
        token_lists = [inst.tokens for inst in corpus.instances]
        expected = [
            gasa_verdict(gasa_chromosome, t, index, sd, ad, semantics) for t in token_lists
        ]
        for genome in (chromosome, gasa_chromosome):
            model = trained_model(genome, index, sd, ad, semantics)
            assert predicted(model, token_lists) == expected


class TestProblemAdapter:
    def test_ga_runs_and_improves(self):
        rnd = random.Random(7)
        lexicon = random_planted_lexicon(6, 2, rnd)
        corpus = generate_synthetic_corpus(lexicon, 40, (2, 5), Semantics.LITERAL, rnd)
        sd = Dictionary({}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        problem = CagasaProblem(corpus, index, sd, ad)
        best, stats = run_ga(
            problem, GAConfig(population_size=30, max_generations=25, seed=1)
        )
        history = stats.best_fitness_per_generation
        assert best.fitness >= history[0]
        assert best.fitness > 20  # clearly better than chance on 40 instances


# Corpus words, and list words that no corpus sentence holds.
CORPUS_WORDS = ["a", "b", "c", "d", "e", "f"]
ABSENT_WORDS = ["y", "z"]


@st.composite
def look_genes(draw):
    """A gene with look distances 0..MAX_CONTEXT, the most a neighbour table
    holds, capacities up to 5 and lists of up to MAX_CONTEXT words, the most
    a gene row holds, that may name words outside the corpus."""
    list_words = st.sampled_from(CORPUS_WORDS + ABSENT_WORDS)
    list_next = frozenset(draw(st.lists(list_words, max_size=MAX_CONTEXT)))
    list_previous = frozenset(draw(st.lists(list_words, max_size=MAX_CONTEXT)))
    rule = ContextRule(
        next_size=draw(st.integers(len(list_next), 5)),
        previous_size=draw(st.integers(len(list_previous), 5)),
        list_next=list_next,
        list_previous=list_previous,
        number_ahead=draw(st.integers(0, MAX_CONTEXT)),
        number_behind=draw(st.integers(0, MAX_CONTEXT)),
        context_pair=draw(st.sampled_from(EVOLVABLE_PAIRS)),
    )
    return CagasaGene(rule, draw(st.sampled_from(EVOLVABLE_PAIRS)))


corpus_word = st.sampled_from(CORPUS_WORDS)
sentences = st.one_of(
    st.lists(corpus_word, max_size=9),
    # repeated neighbours: w x x x y
    st.builds(
        lambda w, x, n, y: [w] + [x] * n + [y],
        corpus_word, corpus_word, st.integers(1, 4), corpus_word,
    ),
)


class TestKernelFitness:
    """`CagasaProblem.fitness`, on the GASA kernel, against the reference
    fitness."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        rows=st.lists(
            st.tuples(sentences, st.sampled_from(["positive", "negative"])), max_size=8
        ),
        sentiment=st.dictionaries(
            corpus_word, st.sampled_from([-1.0, 0.0, 0.5, 1.25]).map(S), max_size=2
        ),
        amplifier=st.dictionaries(
            corpus_word, st.sampled_from([-1.0, 0.5, 1.5]).map(A), max_size=2
        ),
        gene_words=st.lists(corpus_word, unique=True, max_size=4),
        semantics=st.sampled_from(list(Semantics)),
    )
    def test_matches_reference_fitness(
        self, data, rows, sentiment, amplifier, gene_words, semantics
    ):
        # Words in neither the dictionaries nor `gene_words` are out of
        # vocabulary; a gene word that is also a dictionary word is dead.
        corpus = make_corpus(rows)
        sd = Dictionary(sentiment, Kind.SENTIMENT)
        ad = Dictionary(amplifier, Kind.AMPLIFIER)
        index = UnknownWordIndex(
            tuple(gene_words), {w: k for k, w in enumerate(gene_words)}
        )
        population = data.draw(
            st.lists(
                st.tuples(*(look_genes() for _ in gene_words)).map(cagasa_chromosome),
                max_size=4,
            )
        )
        # the same genes again at other positions
        population += [cagasa_chromosome(c.genes[::-1], c.words) for c in population]
        problem = CagasaProblem(corpus, index, sd, ad, semantics)
        expected = [cagasa_fitness(c, corpus, index, sd, ad, semantics) for c in population]
        assert [problem.fitness(c) for c in population] == expected
        # scored again from the state kept for each genome
        assert [problem.fitness(c) for c in population] == expected

    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_empty_population_zero_genes_and_empty_sentence(self, semantics):
        corpus = make_corpus([([], "positive"), (["good"], "positive"), (["not"], "negative")])
        sd = Dictionary({"good": S(1.0)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        problem = CagasaProblem(corpus, index, sd, ad, semantics)
        assert len(index) == 0
        # the empty sentence scores 0 and is never correct
        assert [problem.fitness(CagasaChromosome(b"", ())) for _ in range(3)] == [2] * 3
        empty = make_corpus([([], "negative")])
        problem = CagasaProblem(empty, build_unknown_index(empty, sd, ad), sd, ad, semantics)
        assert problem.fitness(CagasaChromosome(b"", ())) == 0

    def test_rule_reads_distinct_neighbours_of_each_occurrence(self):
        # "w x x y": for "y", the behind list {w} hits once in the distinct
        # words {x, w} at look distance 3, which fires; counted with
        # repeats, it would be 1 hit of 3 words
        corpus = make_corpus([(["w", "x", "x", "y"], "negative")])
        sd, ad = Dictionary({}, Kind.SENTIMENT), Dictionary({}, Kind.AMPLIFIER)
        index = build_unknown_index(corpus, sd, ad)

        def genome(behind):
            y = CagasaGene(rule(list_previous={"w", "q"}, number_behind=behind), S(1.0))
            neutral = CagasaGene(rule(context_pair=S(0.0)), S(0.0))
            return cagasa_chromosome(y if w == "y" else neutral for w in index.words)

        problem = CagasaProblem(corpus, index, sd, ad)
        population = [genome(behind) for behind in range(MAX_CONTEXT + 1)]
        assert [problem.fitness(c) for c in population] == [0, 0, 0, 1]
        assert [problem.fitness(c) for c in population] == [
            cagasa_fitness(c, corpus, index, sd, ad) for c in population
        ]

    def test_look_distance_past_the_widest_sentence(self):
        # Every sentence is one word, so look distance 3 reads only padding:
        # no occurrence has a neighbour, and the context pair never fires.
        corpus = make_corpus([(["u"], "positive"), (["v"], "negative"), (["u"], "positive")])
        sd, ad = Dictionary({}, Kind.SENTIMENT), Dictionary({}, Kind.AMPLIFIER)
        index = build_unknown_index(corpus, sd, ad)
        problem = CagasaProblem(corpus, index, sd, ad)
        assert problem._context.neighbors.shape == (2, MAX_CONTEXT, 3)
        assert (problem._context.neighbors == -1).all()
        both = rule(list_next={"u", "v"}, list_previous={"u", "v"}, number_ahead=3, number_behind=3)
        genome = cagasa_chromosome((CagasaGene(both, S(1.0)), CagasaGene(both, S(-1.0))))
        assert index.words == ("u", "v")
        assert problem.fitness(genome) == cagasa_fitness(genome, corpus, index, sd, ad) == 3


class TestOccurrenceOrder:
    """`CagasaProblem._changed_rows` drops repeated (child, row) keys without
    a sort, which holds because a gene's occurrences are numbered in row
    order."""

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(
            st.lists(st.sampled_from(["u", "v", "w", "good"]), max_size=6)
            | st.lists(st.sampled_from(["u", "v", "good"]), min_size=100, max_size=400),
            max_size=8,
        )
    )
    @example(texts=[["u", "v", "u", "u"]])  # a gene word repeated within a sentence
    @example(texts=[["u"], ["u", "v"], ["v", "u"], ["u"]])  # in adjacent rows
    @example(texts=[[], ["u"], [], [], ["u", "u"], []])  # between empty sentences
    @example(texts=[["u", "good", "v", "u"] * 150])  # in one long sentence
    def test_each_gene_occurs_in_row_order(self, texts):
        corpus = make_corpus([(tokens, "positive") for tokens in texts])
        sd, ad = Dictionary({"good": S(1.0)}, Kind.SENTIMENT), seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        context = context_corpus(corpus, slot_table(index, sd, ad))
        found = list(zip(context.occurrence_gene.tolist(), context.occurrence_row.tolist()))
        # every occurrence once, gene by gene, each gene's rows non-decreasing
        every = [(index.position_of[w], r) for r, t in enumerate(texts) for w in t if w != "good"]
        assert found == sorted(found) == sorted(every)


def reference_decisions(corpus, index, positions, genes) -> tuple:
    """`ContextCorpus.decide`'s (codes, counts) one occurrence at a time:
    each gene's pair code at each occurrence of its position's word, row by
    row and left to right, gene by gene."""
    occurrences = {}
    for inst in corpus.instances:
        for at, word in enumerate(inst.tokens):
            occurrences.setdefault(word, []).append((inst.tokens, at))
    codes, counts = [], []
    for position, gene in zip(positions, genes):
        found = occurrences.get(index.words[position], [])
        for tokens, at in found:
            fired = reference_fires(gene.rule, tokens, at)
            codes.append(PAIR_CODES[gene.rule.context_pair if fired else gene.context_free_pair])
        counts.append(len(found))
    return codes, counts


def decisions(corpus, index, sd, ad, positions, genes) -> tuple:
    context = context_corpus(corpus, slot_table(index, sd, ad))
    genome = cagasa_chromosome(genes)
    codes, counts = context.decide(positions, genome.rows, genome.words)
    return codes.tolist(), counts.tolist()


DECIDE_WORDS = ["u", "v", "w", "good", "not"]  # gene words, then dictionary words
LIST_WORDS = st.sampled_from(DECIDE_WORDS + ["x1", "x2", "x3"])  # x*: outside the corpus
decide_genes = st.builds(
    lambda ahead, behind, after, before, context, free: CagasaGene(
        rule(after, before, ahead, behind, EVOLVABLE_PAIRS[context]), EVOLVABLE_PAIRS[free]
    ),
    st.integers(0, MAX_CONTEXT),
    st.integers(0, MAX_CONTEXT),
    st.sets(LIST_WORDS, max_size=MAX_CONTEXT),
    st.sets(LIST_WORDS, max_size=MAX_CONTEXT),
    st.integers(0, len(EVOLVABLE_PAIRS) - 1),
    st.integers(0, len(EVOLVABLE_PAIRS) - 1),
)
FULL = CagasaGene(rule({"v", "w", "x1"}, {"u", "v", "x2"}, 3, 3, S(-1.0)), S(1.0))


class TestDecide:
    """`ContextCorpus.decide` against the rule applied one occurrence at a
    time, whatever the order of the positions and however slices split a
    gene's occurrences."""

    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(st.lists(st.sampled_from(DECIDE_WORDS), max_size=12), max_size=8),
        picks=st.lists(st.tuples(st.sampled_from(DECIDE_WORDS[:3]), decide_genes), max_size=6),
        slice_cells=st.sampled_from([1, 2, 7, None]),
    )
    # repeated words in full windows, full lists with words outside the
    # corpus, and positions out of order and repeated
    @example(
        texts=[["u", "v", "v", "u", "w", "w", "u", "v"], ["w", "u"], [], ["v", "v", "v"]],
        picks=[("v", FULL), ("u", FULL), ("v", replace(FULL, context_free_pair=A(0.5)))],
        slice_cells=2,
    )
    def test_matches_reference(self, texts, picks, slice_cells):
        corpus, sd, ad, index = make_problem(
            [(t, "positive") for t in texts], {"good": S(1.0)}
        )
        picks = [(index.position_of[w], gene) for w, gene in picks if w in index.position_of]
        positions, genes = [p for p, _ in picks], [g for _, g in picks]
        with pytest.MonkeyPatch.context() as patch:
            if slice_cells is not None:
                patch.setattr(evosent.cagasa, "SLICE_CELLS", slice_cells)
            found = decisions(corpus, index, sd, ad, positions, genes)
        assert found == reference_decisions(corpus, index, positions, genes)

    def test_more_than_255_gene_words(self):
        """Occurrences sort on 16-bit gene keys past 255 gene words."""
        rng = random.Random(3)
        vocab = [f"g{k}" for k in range(300)]
        texts = [[rng.choice(vocab) for _ in range(rng.randrange(1, 12))] for _ in range(300)]
        corpus, sd, ad, index = make_problem([(t, "positive") for t in texts])
        assert len(index) > 255
        genes = CagasaProblem(corpus, index, sd, ad).random_genome(rng).genes
        positions = [rng.randrange(len(index)) for _ in range(2 * len(index))]
        picked = [genes[p] for p in positions]
        found = decisions(corpus, index, sd, ad, positions, picked)
        assert found == reference_decisions(corpus, index, positions, picked)


class TestDeltaFitness:
    """`CagasaProblem.fitness` scores a child of a kept genome from the
    parent's segments and correctness; every value must still equal the
    oracle's."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        semantics=st.sampled_from(list(Semantics)),
        gene_words=st.integers(min_value=0, max_value=5),
        rnd=st.randoms(use_true_random=False),
        slice_cells=st.sampled_from([None, None, 1, 40]),
    )
    def test_lineage_chains_match_oracle(self, data, semantics, gene_words, rnd, slice_cells):
        vocab = ["good", "bad", "not", "oov"] + [f"w{k}" for k in range(gene_words)]
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.lists(st.sampled_from(vocab), max_size=9),
                    st.sampled_from(["positive", "negative"]),
                ),
                min_size=1,
                max_size=10,
            )
        )
        corpus = make_corpus(rows)
        sd = Dictionary({"good": S(1.0), "bad": S(-1.0)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        # "oov" is out of the index, so it is neutral, but context lists may
        # hold it
        known = make_corpus([([w for w in t if w != "oov"], label) for t, label in rows])
        index = build_unknown_index(known, sd, ad)
        problem = CagasaProblem(corpus, index, sd, ad, semantics)

        def check(genome):
            expected = cagasa_fitness(genome, corpus, index, sd, ad, semantics)
            assert problem.fitness(genome) == expected

        with pytest.MonkeyPatch.context() as patch:
            if slice_cells is not None:  # several slices per batch and per decision
                for module in (evosent.gasa, evosent.cagasa):
                    patch.setattr(module, "SLICE_CELLS", slice_cells)
            pool = [problem.random_genome(rnd) for _ in range(3)]  # scored or not
            waiting = []  # made, and to be scored
            recent = []  # scored in the last round, so most likely kept as parents
            ops = ["mutate", "chain", "crossover", "self-cross", "again", "new"]
            for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
                pick = st.sampled_from(pool)
                if recent:
                    pick = st.one_of(st.sampled_from(recent), pick)
                op = data.draw(st.sampled_from(ops))
                if op == "mutate":
                    made = [problem.mutate(data.draw(pick), rnd)]
                elif op == "chain":  # each child scored, then mutated in turn
                    made = [data.draw(pick)]
                    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
                        made.append(problem.mutate(made[-1], rnd))
                        check(made[-1])
                    made = made[1:]
                elif op == "crossover":
                    made = list(problem.crossover(data.draw(pick), data.draw(pick), rnd))
                elif op == "self-cross":  # swaps equal genes
                    parent = data.draw(pick)
                    made = list(problem.crossover(parent, parent, rnd))
                elif op == "again":  # a genome already made or scored
                    made = [data.draw(pick)]
                else:
                    made = [problem.random_genome(rnd)]
                # an unscored child may become a parent
                pool.extend(made)
                waiting.extend(made[: data.draw(st.integers(min_value=0, max_value=len(made)))])
                # score a few waiting genomes now, one at a time in a drawn order
                waiting = data.draw(st.permutations(waiting))
                now = data.draw(st.integers(min_value=0, max_value=len(waiting)))
                for genome in waiting[:now]:
                    check(genome)
                if now:
                    recent, waiting = waiting[:now], waiting[now:]

    @pytest.mark.parametrize("slice_cells", [1, 100, 400, 1 << 16])
    def test_changed_rows_come_from_bounded_slices_and_match_each_child(
        self, slice_cells, monkeypatch
    ):
        """`_deltas` finds the changed rows of all moved children in slices
        of the most whole children whose segments fit SLICE_CELLS codes, at
        least one; each child's rows and codes equal its own computation."""
        rng = random.Random(9)
        lexicon = random_planted_lexicon(8, 2, rng)
        corpus = generate_synthetic_corpus(lexicon, 60, (2, 9), Semantics.LITERAL, rng)
        sd, ad = Dictionary({}, Kind.SENTIMENT), seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        problem = CagasaProblem(corpus, index, sd, ad)
        parents = [problem.random_genome(rng) for _ in range(20)]
        for genome in parents:
            problem.fitness(genome)
        children = []
        for _ in range(40):
            p1, p2 = rng.choice(parents), rng.choice(parents)
            children += [problem.mutate(p1, rng), *problem.crossover(p1, p2, rng)]
        links = [problem._lineage[id(child)] for child in children]
        kept = [(c, problem._kept(p), at, d and problem._kept(d)) for c, p, at, d in links]
        monkeypatch.setattr(evosent.gasa, "SLICE_CELLS", slice_cells)
        sizes = []  # each slice's segment sizes
        changed_rows = problem._changed_rows

        def spy(moved):
            sizes.append([len(new) for *_, new in moved])
            return changed_rows(moved)

        monkeypatch.setattr(problem, "_changed_rows", spy)
        codes, rows, counts = problem._deltas(kept)
        assert len(codes) == len(counts) == len(kept) and len(rows) == counts.sum()
        context = problem._context
        moved = twice = 0
        each = np.split(rows, np.cumsum(counts)[:-1])
        for (child, parent, position, _), chunks, rows in zip(kept, codes, each):
            assert chunks == problem._codes([child])[0]
            new, old = (np.frombuffer(c[position], dtype=np.int8) for c in (chunks, parent[1]))
            first = np.searchsorted(context.occurrence_gene, position)
            occurrences = first + np.flatnonzero(new != old)
            assert rows.tolist() == np.unique(context.occurrence_row[occurrences]).tolist()
            moved += bool(len(rows))
            twice += len(rows) < len(occurrences)  # two changed codes in one row
        assert 1 < moved == sum(map(len, sizes)) and twice > 0
        assert all(sum(s) <= slice_cells or len(s) == 1 for s in sizes)
        # each slice is as long as it can be
        assert all(sum(s) + n[0] > slice_cells for s, n in zip(sizes, sizes[1:]))
        if slice_cells == 1 << 16:
            assert len(sizes) == 1
        elif slice_cells > 1:  # several slices, some of several children
            assert len(sizes) > 1 and max(map(len, sizes)) > 1

    def test_a_generation_decides_once_and_calls_the_kernel_once_a_slice(self, monkeypatch):
        """The initial population is scored at its first call, one `decide`
        call a genome and one kernel call per group of the most whole
        genomes that fit SLICE_CELLS. After it, a generation decides its
        children's genes in at most one `decide` call and re-scores them in
        one batch, one kernel call per slice of whole children."""
        rng = random.Random(5)
        lexicon = random_planted_lexicon(8, 2, rng)
        corpus = generate_synthetic_corpus(lexicon, 60, (2, 9), Semantics.LITERAL, rng)
        sd, ad = Dictionary({}, Kind.SENTIMENT), seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        problem = CagasaProblem(corpus, index, sd, ad)
        slice_cells = 2000  # several children a slice, several slices a generation
        monkeypatch.setattr(evosent.gasa, "SLICE_CELLS", slice_cells)
        generations = [Counter()]  # calls per generation, the initial population first

        def counted(name, method):
            def call(*args):
                generations[-1][name] += 1
                return method(*args)

            return call

        rescore = evosent.gasa.labelled_correctly_at

        def batch(compiled, rows, counts, codes, semantics):
            generations[-1]["batches"] += 1
            generations[-1]["children"] += len(counts)
            genes, cells = sum(map(len, codes[0])), None
            # a slice takes the most whole children that fit, at least one
            for count in counts.tolist():
                size = count * compiled.slots.shape[1]
                size += min(size, genes)  # its cells, and the fewer of its cells and codes
                if cells is None or cells + size > slice_cells:
                    generations[-1]["slices"] += 1
                    cells = 0
                cells += size
            return rescore(compiled, rows, counts, codes, semantics)

        decide = counted("decide", evosent.cagasa.ContextCorpus.decide)
        monkeypatch.setattr(evosent.cagasa.ContextCorpus, "decide", decide)
        kernel = counted("kernel", evosent.gasa.labelled_correctly)
        monkeypatch.setattr(evosent.gasa, "labelled_correctly", kernel)
        monkeypatch.setattr(evosent.gasa, "labelled_correctly_at", batch)
        scored = False

        def variation(method):
            def call(*args):
                nonlocal scored
                if scored:  # a generation starts at its first variation
                    generations.append(Counter())
                    scored = False
                return method(*args)

            return call

        def fitness(genome, method=problem.fitness):
            nonlocal scored
            scored = True
            return method(genome)

        problem.mutate = variation(problem.mutate)
        problem.crossover = variation(problem.crossover)
        problem.fitness = fitness
        best, stats = run_ga(problem, GAConfig(population_size=40, max_generations=8, seed=2))
        initial, *later = generations
        # the whole initial population at its first call: a `decide` call
        # a genome, and full passes stacked in as many kernel calls as groups
        # of whole genomes whose instances and codes fit SLICE_CELLS
        occurrences = len(problem._context.occurrence_gene)
        per_call = max(slice_cells // (len(corpus.instances) + occurrences), 1)
        assert (len(corpus.instances), occurrences) == (60, 378) and 1 < per_call < 40
        assert initial["decide"] == 40 and initial["kernel"] == math.ceil(40 / per_call) == 10
        assert len(later) == stats.generations_executed == 8
        assert all(calls["decide"] <= 1 and calls["batches"] <= 1 for calls in later)
        assert [calls["kernel"] for calls in later] == [calls["slices"] for calls in later]
        slices = sum(calls["slices"] for calls in later)
        assert len(later) < slices < sum(calls["children"] for calls in later)
        assert best.fitness == cagasa_fitness(best.genome, corpus, index, sd, ad)

    def test_a_pair_edit_reads_where_the_parents_rule_fired(self, monkeypatch):
        """A child whose one edit is a pair of a gene whose two pair codes
        differ takes its codes from where the parent's rule fired, with no
        `decide` call. Where the two codes are equal, the parent's codes do
        not show where the rule fired, so the changed gene is decided."""
        rng = random.Random(13)
        lexicon = random_planted_lexicon(8, 2, rng)
        corpus = generate_synthetic_corpus(lexicon, 60, (2, 9), Semantics.LITERAL, rng)
        sd, ad = Dictionary({}, Kind.SENTIMENT), seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        problem = CagasaProblem(corpus, index, sd, ad)
        parents = [problem.random_genome(rng) for _ in range(4)]
        for genome in parents:
            problem.fitness(genome)

        def other(pair):
            return EVOLVABLE_PAIRS[(PAIR_CODES[pair] + 1) % len(EVOLVABLE_PAIRS)]

        read, decided = [], []  # as (child, parent's state, position, no donor)
        for parent in parents:
            parent_genes = parent.genes
            for position, gene in enumerate(parent_genes):
                context = replace(gene.rule, context_pair=other(gene.rule.context_pair))
                for edited in (
                    replace(gene, context_free_pair=other(gene.context_free_pair)),
                    replace(gene, rule=context),
                ):
                    genes = list(parent_genes)
                    genes[position] = edited
                    child = cagasa_chromosome(genes, parent.words)
                    entry = child, problem._kept(parent), position, None
                    differ = gene.rule.context_pair != gene.context_free_pair
                    (read if differ else decided).append(entry)
        calls = []
        decide = ContextCorpus.decide

        def counted(context, positions, rows, words):
            calls.append(len(positions))
            return decide(context, positions, rows, words)

        monkeypatch.setattr(ContextCorpus, "decide", counted)
        codes, _, counts = problem._deltas(read)
        assert calls == [] and counts.any()
        problem._deltas(decided)
        assert decided and calls == [len(decided)]
        assert codes == problem._codes([child for child, *_ in read])

    def test_fitness_after_a_generations_first_call_moves_a_batched_state(self, monkeypatch):
        """A generation's first `fitness` call scores all its children; each
        later call moves the child's state from `_batched` to `_scored` and
        calls no `_score`. A child never asked for is freed at the next
        variation."""
        rng = random.Random(11)
        lexicon = random_planted_lexicon(8, 2, rng)
        corpus = generate_synthetic_corpus(lexicon, 60, (2, 9), Semantics.LITERAL, rng)
        sd, ad = Dictionary({}, Kind.SENTIMENT), seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        problem = CagasaProblem(corpus, index, sd, ad)
        calls = []
        score = problem._score
        monkeypatch.setattr(problem, "_score", lambda *args: calls.append(args) or score(*args))

        def ask(genomes):
            got = [problem.fitness(genome) for genome in genomes]
            assert got == [cagasa_fitness(g, corpus, index, sd, ad) for g in genomes]
            assert len(calls) == 1 and calls.pop()[0] == [genomes[0]]
            assert list(problem._scored) == [id(genome) for genome in genomes]

        def children(parents):
            made = [problem.mutate(parent, rng) for parent in parents[:4]]
            for p1, p2 in zip(parents[4::2], parents[5::2]):
                made += problem.crossover(p1, p2, rng)
            return made

        parents = [problem.random_genome(rng) for _ in range(10)]
        ask(parents)
        assert not problem._batched
        # one crossover sibling is never asked for: it waits in `_batched`
        made = children(parents)
        sibling = weakref.ref(made.pop())
        ask(made)
        assert list(problem._batched) == [id(sibling())]
        # every child asked for: none waits
        later = children(made)
        gc.collect()
        assert sibling() is None
        ask(later)
        assert not problem._batched
