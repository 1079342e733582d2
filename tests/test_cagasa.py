import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosent.cagasa import (
    MAX_CONTEXT,
    CagasaChromosome,
    CagasaGene,
    CagasaProblem,
    ContextCorpus,
    ContextRule,
    corpus_neighbors,
    mutate_cagasa,
    random_cagasa_chromosome,
    random_cagasa_gene,
)
from evosent.corpus import UnknownWordIndex, build_unknown_index
from evosent.evaluator import Semantics
from evosent.experiments import generate_synthetic_corpus, random_planted_lexicon
from evosent.gasa import compile_corpus, crossover_at
from evosent.lexicon import EVOLVABLE_PAIRS, Dictionary, Kind, seed_amplifier_dictionary

from conftest import A, S, fires, make_corpus, trained_model
from oracles import cagasa_fitness, gasa_fitness, gasa_verdict, to_context_free_gasa


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
        assert fires(rule(list_next={"b"}, number_ahead=1, number_behind=5), ["a", "b"], 0)
        assert not fires(
            rule(list_previous={"a", "b"}, number_ahead=1, number_behind=5), ["a", "b"], 0
        )

    def test_zero_distances(self):
        # zero look distances leave an empty neighborhood, which never fires
        words = {"a", "b", "c"}
        r = rule(list_next=words, list_previous=words, number_ahead=0, number_behind=0)
        assert not fires(r, ["a", "b", "c"], 1)

    def test_deduplication(self):
        # ahead of "w" is {x, y}: one hit of two fires; counting the repeated
        # "x" three times would make it one of four
        r = rule(list_next={"y"}, number_ahead=4, number_behind=0)
        assert fires(r, ["w", "x", "x", "x", "y"], 0)


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


class TestCorpusNeighbors:
    def test_adjacency(self):
        corpus = make_corpus([(["a", "b", "c"], "positive")])
        neighbors = corpus_neighbors(corpus)
        assert neighbors["b"] == (("a",), ("c",))
        assert neighbors["a"] == ((), ("b",))
        assert neighbors["c"] == (("b",), ())

    def test_sorted_distinct_words(self):
        corpus = make_corpus(
            [(["d", "w", "b"], "positive"), (["c", "w", "b", "w", "a"], "negative")]
        )
        assert corpus_neighbors(corpus)["w"] == (("b", "c", "d"), ("a", "b"))


class TestRandomGene:
    def test_no_preceding_neighbors(self, rng):
        gene = random_cagasa_gene("w", ((), ("x",)), rng)
        assert gene.rule.list_previous == frozenset()

    def test_field_ranges(self, rng):
        neighbors = (("a", "b", "c", "d"), ("e", "f", "g", "h"))
        for _ in range(10_000):
            gene = random_cagasa_gene("w", neighbors, rng)
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
        for _ in range(1000):
            gene = random_cagasa_gene("w", (("a",), ("b",)), rng)
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
        neighbors = corpus_neighbors(corpus)
        return random_cagasa_chromosome(index, neighbors, rng), neighbors

    def test_crossover_swaps_whole_gene(self, rng):
        c1, neighbors = self._random_chromosome(rng)
        c2, _ = self._random_chromosome(random.Random(5))

        class PositionZero(random.Random):
            def randrange(self, n):
                return 0

        o1, o2, _ = crossover_at(c1, c2, PositionZero())
        assert o1.genes[0] == c2.genes[0] and o2.genes[0] == c1.genes[0]
        assert o1.genes[1:] == c1.genes[1:] and o2.genes[1:] == c2.genes[1:]

    def test_mutation_changes_one_gene(self, rng):
        for _ in range(1000):
            parent, neighbors = self._random_chromosome(rng)
            child = mutate_cagasa(parent, neighbors, rng)
            assert len(child) == len(parent)
            diffs = [
                i for i in range(len(parent)) if parent.genes[i] != child.genes[i]
            ]
            assert len(diffs) <= 1  # a list edit can no-op only via fallback resample
            for i in diffs:
                assert child.genes[i].word == parent.genes[i].word
                assert child.genes[i].context_free_pair.is_evolvable()
                assert child.genes[i].rule.context_pair.is_evolvable()

    def test_mutation_edit_isolation(self, rng):
        parent, neighbors = self._random_chromosome(rng)

        class ForceContextFreeEdit(random.Random):
            def __init__(self):
                super().__init__(9)
                self.first_calls = iter([0, 0])  # gene position, edit kind

            def randrange(self, n):
                try:
                    return next(self.first_calls) % n
                except StopIteration:
                    return super().randrange(n)

        child = mutate_cagasa(parent, neighbors, ForceContextFreeEdit())
        assert child.genes[0].rule == parent.genes[0].rule
        assert child.genes[0].context_free_pair != parent.genes[0].context_free_pair

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            mutate_cagasa(CagasaChromosome(()), {}, rng)
        with pytest.raises(ValueError):
            crossover_at(CagasaChromosome(()), CagasaChromosome(()), rng)

    def test_length_mismatch(self, rng):
        c1, _ = self._random_chromosome(rng)
        with pytest.raises(ValueError):
            crossover_at(c1, CagasaChromosome(c1.genes[:1]), rng)


def neutralized(chromosome):
    """Strip every gene down to an inert context rule."""
    genes = []
    for gene in chromosome.genes:
        genes.append(
            CagasaGene(
                gene.word,
                rule(
                    number_ahead=0,
                    number_behind=0,
                    context_pair=gene.rule.context_pair,
                ),
                gene.context_free_pair,
            )
        )
    return CagasaChromosome(tuple(genes))


class TestGasaReduction:
    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_empty_context_behaves_like_gasa(self, semantics):
        rnd = random.Random(42)
        lexicon = random_planted_lexicon(8, 4, rnd)
        corpus = generate_synthetic_corpus(lexicon, 100, (2, 6), semantics, rnd)
        sd = Dictionary({}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        neighbors = corpus_neighbors(corpus)
        chromosome = neutralized(random_cagasa_chromosome(index, neighbors, rnd))
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
            assert [v.value for v in model.predict_many(token_lists)] == expected


class TestProblemAdapter:
    def test_ga_runs_and_improves(self):
        from evosent.ga_engine import GAConfig, run_ga

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
def look_genes(draw, word):
    """A gene with look distances 0..5 and lists that may name words outside
    the corpus."""
    list_words = st.sampled_from(CORPUS_WORDS + ABSENT_WORDS)
    list_next = frozenset(draw(st.lists(list_words, max_size=5)))
    list_previous = frozenset(draw(st.lists(list_words, max_size=5)))
    rule = ContextRule(
        next_size=draw(st.integers(len(list_next), 5)),
        previous_size=draw(st.integers(len(list_previous), 5)),
        list_next=list_next,
        list_previous=list_previous,
        number_ahead=draw(st.integers(0, 5)),
        number_behind=draw(st.integers(0, 5)),
        context_pair=draw(st.sampled_from(EVOLVABLE_PAIRS)),
    )
    return CagasaGene(word, rule, draw(st.sampled_from(EVOLVABLE_PAIRS)))


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
                st.tuples(*(look_genes(w) for w in gene_words)).map(CagasaChromosome),
                max_size=4,
            )
        )
        # the same gene objects again at other positions
        population += [CagasaChromosome(c.genes[::-1]) for c in population]
        problem = CagasaProblem(corpus, index, sd, ad, semantics)
        expected = [cagasa_fitness(c, corpus, index, sd, ad, semantics) for c in population]
        assert [problem.fitness(c) for c in population] == expected
        # scored again from the remembered decisions
        assert [problem.fitness(c) for c in population] == expected

    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_empty_population_zero_genes_and_empty_sentence(self, semantics):
        corpus = make_corpus([([], "positive"), (["good"], "positive"), (["not"], "negative")])
        sd = Dictionary({"good": S(1.0)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        problem = CagasaProblem(corpus, index, sd, ad, semantics)
        assert len(index) == 0
        context = ContextCorpus(compile_corpus(corpus, problem.table))
        # the empty sentence scores 0 and is never correct
        assert [context.fitness(CagasaChromosome(()), semantics) for _ in range(3)] == [2] * 3
        assert problem.fitness(CagasaChromosome(())) == 2
        empty = make_corpus([([], "negative")])
        problem = CagasaProblem(empty, build_unknown_index(empty, sd, ad), sd, ad, semantics)
        assert problem.fitness(CagasaChromosome(())) == 0

    def test_rule_reads_distinct_neighbours_of_each_occurrence(self):
        # "w x x x y": for "y", the behind list {w} hits once in the distinct
        # words {x, w} from look distance 4 on, which fires; counted with
        # repeats, it would be 1 hit of 4 words
        corpus = make_corpus([(["w", "x", "x", "x", "y"], "negative")])
        sd, ad = Dictionary({}, Kind.SENTIMENT), Dictionary({}, Kind.AMPLIFIER)
        index = build_unknown_index(corpus, sd, ad)

        def genome(behind):
            y = CagasaGene("y", rule(list_previous={"w", "q"}, number_behind=behind), S(1.0))
            neutral = rule(context_pair=S(0.0))
            return CagasaChromosome(
                tuple(y if w == "y" else CagasaGene(w, neutral, S(0.0)) for w in index.words)
            )

        problem = CagasaProblem(corpus, index, sd, ad)
        population = [genome(behind) for behind in range(6)]
        assert [problem.fitness(c) for c in population] == [0, 0, 0, 0, 1, 1]
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
        ahead, behind = problem._compiled.neighbor_ids(3)
        assert ahead.shape == behind.shape == (3, 3)
        assert (ahead == -1).all() and (behind == -1).all()
        both = rule(list_next={"u", "v"}, list_previous={"u", "v"}, number_ahead=3, number_behind=3)
        genome = CagasaChromosome(
            (CagasaGene("u", both, S(1.0)), CagasaGene("v", both, S(-1.0)))
        )
        assert index.words == ("u", "v")
        assert problem.fitness(genome) == cagasa_fitness(genome, corpus, index, sd, ad) == 3

    def test_genes_freed_and_made_again_are_decided_again(self):
        # A gene freed after scoring leaves its id free for the next one.
        rng = random.Random(3)
        lexicon = random_planted_lexicon(6, 2, rng)
        corpus = generate_synthetic_corpus(lexicon, 40, (2, 9), Semantics.LITERAL, rng)
        sd, ad = Dictionary({}, Kind.SENTIMENT), seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        problem = CagasaProblem(corpus, index, sd, ad)
        for _ in range(30):
            genome = problem.random_genome(rng)
            assert problem.fitness(genome) == cagasa_fitness(genome, corpus, index, sd, ad)
        assert len(problem._compiled._codes) == len(index)
