import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosent.corpus import Corpus, Instance, Label, build_unknown_index
from evosent.evaluator import Semantics, Verdict, predict, slot_table
from evosent.gasa import (
    GasaChromosome,
    GasaProblem,
    compile_corpus,
    crossover,
    extract_classifications,
    fitness_population,
    mutate,
    random_chromosome,
    random_gene,
)
from evosent.lexicon import (
    AMPLIFIER_VALUES,
    EVOLVABLE_PAIRS,
    SENTIMENT_VALUES,
    Dictionary,
    Kind,
    seed_amplifier_dictionary,
)

from conftest import A, S, make_corpus
from oracles import gasa_fitness as fitness

chromosomes = st.lists(st.sampled_from(EVOLVABLE_PAIRS), min_size=1, max_size=30).map(
    lambda genes: GasaChromosome(tuple(genes))
)


def empty_dicts():
    return Dictionary({}, Kind.SENTIMENT), seed_amplifier_dictionary()


class TestRandomGene:
    def test_kind_value_consistency(self, rng):
        for _ in range(2000):
            gene = random_gene(rng)
            values = SENTIMENT_VALUES if gene.kind is Kind.SENTIMENT else AMPLIFIER_VALUES
            assert gene.value in values

    def test_uniform_over_six_pairs(self, rng):
        from scipy.stats import chisquare

        counts = Counter(random_gene(rng) for _ in range(60_000))
        observed = [counts[p] for p in EVOLVABLE_PAIRS]
        assert all(9_500 <= c <= 10_500 for c in observed)
        _stat, p = chisquare(observed)
        assert p > 0.01


class TestRandomChromosome:
    def test_empty(self, rng):
        assert len(random_chromosome(0, rng)) == 0

    def test_length(self, rng):
        assert len(random_chromosome(3, rng)) == 3

    def test_all_genes_evolvable(self, rng):
        chrom = random_chromosome(1000, rng)
        assert all(g.is_evolvable() for g in chrom.genes)


class TestFitness:
    def test_worked_three_sentence_example(self):
        # labels positive/negative/positive; the chromosome makes every
        # sentence evaluate negative, so only the second counts
        corpus = make_corpus(
            [(["zorp"], "positive"), (["zorp"], "negative"), (["zorp"], "positive")]
        )
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        chrom = GasaChromosome((S(-1.0),))
        assert fitness(chrom, corpus, index, sd, ad) == 1

    def test_empty_corpus(self):
        sd, ad = empty_dicts()
        corpus = Corpus(())
        index = build_unknown_index(corpus, sd, ad)
        assert fitness(GasaChromosome(()), corpus, index, sd, ad) == 0

    def test_dictionary_only_corpus_ignores_genes(self):
        corpus = make_corpus([(["good"], "positive"), (["bad"], "negative")])
        sd = Dictionary({"good": S(1.0), "bad": S(-1.0)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        assert fitness(GasaChromosome(()), corpus, index, sd, ad) == 2

    def test_length_mismatch(self):
        corpus = make_corpus([(["zorp"], "positive")])
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        with pytest.raises(ValueError, match="length"):
            fitness(GasaChromosome(()), corpus, index, sd, ad)

    def test_bounded_by_corpus_size(self, rng):
        corpus = make_corpus([(["a", "b"], "positive")] * 5)
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        for _ in range(50):
            chrom = random_chromosome(len(index), rng)
            assert 0 <= fitness(chrom, corpus, index, sd, ad) <= 5


class TestPredict:
    def test_dictionary_word(self):
        sd = Dictionary({"good": S(1.0)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        corpus = make_corpus([(["good"], "positive")])
        index = build_unknown_index(corpus, sd, ad)
        inst = Instance(("good",), Label.POSITIVE)
        table = slot_table(index, sd, ad)
        verdict = predict(GasaChromosome(()), inst.tokens, table, Semantics.LITERAL)
        assert verdict is Verdict.POSITIVE

    def test_oov_word_is_neutral(self):
        sd, ad = empty_dicts()
        corpus = make_corpus([(["zorp"], "positive")])
        index = build_unknown_index(corpus, sd, ad)
        inst = Instance(("neverseen",), Label.POSITIVE)
        table = slot_table(index, sd, ad)
        verdict = predict(GasaChromosome((S(1.0),)), inst.tokens, table, Semantics.LITERAL)
        assert verdict is Verdict.TIE


class TestMutate:
    def test_worked_trace(self):
        parent = GasaChromosome((S(1.0), A(0.5), S(0.0)))

        class Scripted(random.Random):
            def __init__(self):
                super().__init__(0)
                # position 1, then the index of sentiment:1.0 among the
                # five candidate pairs != amplifier:0.5
                self.script = iter([1, 2])

            def randrange(self, n):
                return next(self.script) % n

        child = mutate(parent, Scripted())
        assert child.genes == (S(1.0), S(1.0), S(0.0))

    def test_empty_chromosome_rejected(self, rng):
        with pytest.raises(ValueError):
            mutate(GasaChromosome(()), rng)

    def test_length_one_forces_change(self, rng):
        for _ in range(100):
            parent = GasaChromosome((random_gene(rng),))
            child = mutate(parent, rng)
            assert child.genes[0] != parent.genes[0]

    @settings(max_examples=1000)
    @given(chromosomes, st.randoms(use_true_random=False))
    def test_changes_exactly_one_gene(self, parent, rnd):
        child = mutate(parent, rnd)
        diffs = [i for i in range(len(parent)) if parent.genes[i] != child.genes[i]]
        assert len(diffs) == 1
        assert child.genes[diffs[0]].is_evolvable()
        assert len(child) == len(parent)


class TestCrossover:
    def test_worked_trace(self):
        p1 = GasaChromosome((A(0.5), S(1.0)))
        p2 = GasaChromosome((S(-1.0), S(1.0)))

        class PositionZero(random.Random):
            def randrange(self, n):
                return 0

        c1, c2 = crossover(p1, p2, PositionZero())
        assert c1.genes == (S(-1.0), S(1.0))
        assert c2.genes == (A(0.5), S(1.0))

    def test_identical_parents(self, rng):
        p = GasaChromosome((S(1.0), A(1.5)))
        c1, c2 = crossover(p, p, rng)
        assert c1 == p and c2 == p

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            crossover(GasaChromosome((S(1.0),)), GasaChromosome((S(1.0), S(1.0))), rng)

    @settings(max_examples=1000)
    @given(
        st.lists(
            st.tuples(st.sampled_from(EVOLVABLE_PAIRS), st.sampled_from(EVOLVABLE_PAIRS)),
            min_size=1,
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    def test_swaps_exactly_position_p(self, gene_pairs, rnd):
        p1 = GasaChromosome(tuple(a for a, _ in gene_pairs))
        p2 = GasaChromosome(tuple(b for _, b in gene_pairs))
        c1, c2 = crossover(p1, p2, rnd)
        assert len(c1) == len(c2) == len(p1)
        swapped = [
            i
            for i in range(len(p1))
            if (c1.genes[i], c2.genes[i]) != (p1.genes[i], p2.genes[i])
        ]
        # at most one position changes; where it does, the genes are swapped
        assert len(swapped) <= 1
        for i in swapped:
            assert (c1.genes[i], c2.genes[i]) == (p2.genes[i], p1.genes[i])
        # parents untouched
        assert p1.genes == tuple(a for a, _ in gene_pairs)


class TestExtractClassifications:
    def _setup(self):
        corpus = make_corpus([(["zorp", "blick"], "positive")])
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        chrom = GasaChromosome((S(-1.0), A(0.5)))
        return chrom, index

    def test_direct_read(self):
        chrom, index = self._setup()
        assert extract_classifications(chrom, ["zorp"], index) == [S(-1.0)]

    def test_empty_query(self):
        chrom, index = self._setup()
        assert extract_classifications(chrom, [], index) == []

    def test_query_order(self):
        chrom, index = self._setup()
        assert extract_classifications(chrom, ["blick", "zorp"], index) == [A(0.5), S(-1.0)]

    def test_absent_word(self):
        chrom, index = self._setup()
        with pytest.raises(ValueError, match="missing"):
            extract_classifications(chrom, ["missing"], index)


class TestBatchFitness:
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        semantics=st.sampled_from(list(Semantics)),
    )
    def test_matches_scalar_fitness(self, data, semantics):
        vocab = ["good", "bad", "not", "w1", "w2", "w3"]
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.lists(st.sampled_from(vocab), min_size=1, max_size=7),
                    st.sampled_from(["positive", "negative"]),
                ),
                min_size=1,
                max_size=8,
            )
        )
        corpus = make_corpus(rows)
        sd = Dictionary({"good": S(1.0), "bad": S(-1.0)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        compiled = compile_corpus(corpus, slot_table(index, sd, ad))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rnd = random.Random(seed)
        chroms = [random_chromosome(len(index), rnd) for _ in range(5)]
        batch = fitness_population(chroms, compiled, semantics)
        scalar = [fitness(c, corpus, index, sd, ad, semantics) for c in chroms]
        assert list(batch) == scalar

    # Huge values overflow to inf and nan in both paths alike; numpy warns.
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        semantics=st.sampled_from(list(Semantics)),
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=5, max_size=5
        ),
    )
    def test_matches_scalar_fitness_for_any_dictionary_values(self, data, semantics, values):
        good, bad, meh, negator, very = values
        sd = Dictionary({"good": S(good), "bad": S(bad), "meh": S(meh)}, Kind.SENTIMENT)
        ad = Dictionary({"not": A(negator), "very": A(very)}, Kind.AMPLIFIER)
        vocab = ["good", "bad", "meh", "not", "very", "w1", "w2", "w3"]
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.lists(st.sampled_from(vocab), min_size=0, max_size=9),
                    st.sampled_from(["positive", "negative"]),
                ),
                min_size=1,
                max_size=8,
            )
        )
        corpus = make_corpus(rows)
        index = build_unknown_index(corpus, sd, ad)
        compiled = compile_corpus(corpus, slot_table(index, sd, ad))
        rnd = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        chroms = [random_chromosome(len(index), rnd) for _ in range(5)]
        batch = fitness_population(chroms, compiled, semantics)
        scalar = [fitness(c, corpus, index, sd, ad, semantics) for c in chroms]
        assert list(batch) == scalar

    def test_empty_population_and_zero_genes(self):
        corpus = make_corpus([([], "positive"), (["good"], "positive"), (["not"], "negative")])
        sd = Dictionary({"good": S(1.25)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        compiled = compile_corpus(corpus, slot_table(index, sd, ad))
        assert len(index) == 0
        assert fitness_population([], compiled).shape == (0,)
        # the empty sentence scores 0 and is never correct
        assert list(fitness_population([GasaChromosome(())], compiled)) == [2]

    def test_problem_adapter_consistency(self, rng):
        corpus = make_corpus(
            [(["good", "zorp"], "positive"), (["not", "zorp", "blick"], "negative")]
        )
        sd = Dictionary({"good": S(1.0)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        problem = GasaProblem(corpus, index, sd, ad)
        for _ in range(30):
            chrom = random_chromosome(len(index), rng)
            assert problem.fitness(chrom) == fitness(chrom, corpus, index, sd, ad)
        assert problem.max_fitness == 2
