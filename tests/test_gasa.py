import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosent.corpus import Corpus, build_unknown_index
from evosent.evaluator import Semantics, Verdict, slot_table
from evosent.experiments import generate_synthetic_corpus, random_planted_lexicon
from evosent.ga_engine import GAConfig, run_ga
from evosent.gasa import (
    GasaChromosome,
    GasaProblem,
    code_matrix,
    compile_corpus,
    compile_tokens,
    crossover_at,
    forced_new_code,
    labelled_correctly,
    mutate_at,
    random_chromosome,
    random_code,
    scores,
)
from evosent.lexicon import (
    AMPLIFIER_VALUES,
    EVOLVABLE_PAIRS,
    SENTIMENT_VALUES,
    Dictionary,
    Kind,
    seed_amplifier_dictionary,
)

from conftest import A, S, make_corpus, trained_model
from oracles import gasa_chromosome, reference_forced_new_pair, reference_random_pair
from oracles import gasa_fitness as fitness

pairs = st.sampled_from(EVOLVABLE_PAIRS)
chromosomes = st.lists(pairs, min_size=1, max_size=30).map(gasa_chromosome)


def batch_fitness(chroms, compiled, semantics=Semantics.LITERAL):
    return labelled_correctly(compiled, code_matrix(chroms).T, semantics).sum(axis=1)


def empty_dicts():
    return Dictionary({}, Kind.SENTIMENT), seed_amplifier_dictionary()


class TestRandomGene:
    def test_kind_value_consistency(self, rng):
        for _ in range(2000):
            gene = EVOLVABLE_PAIRS[random_code(rng)]
            values = SENTIMENT_VALUES if gene.kind is Kind.SENTIMENT else AMPLIFIER_VALUES
            assert gene.value in values

    def test_uniform_over_six_pairs(self, rng):
        from scipy.stats import chisquare

        counts = Counter(EVOLVABLE_PAIRS[random_code(rng)] for _ in range(60_000))
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


codes = st.lists(st.integers(0, len(EVOLVABLE_PAIRS) - 1), max_size=30).map(bytes)


class TestCodeGenome:
    @given(codes, st.sampled_from(list(Semantics)))
    def test_genes_scores_and_codes_agree(self, gene_codes, semantics):
        chrom = GasaChromosome(gene_codes)
        assert len(chrom) == len(chrom.genes) == len(gene_codes)
        assert chrom.genes == tuple(EVOLVABLE_PAIRS[c] for c in gene_codes)
        # a sentence of gene k's word alone scores that gene's value
        words = [f"w{k}" for k in range(len(chrom))]
        compiled = compile_tokens([[w] for w in words], {w: k for k, w in enumerate(words)})
        got = scores(compiled, code_matrix([chrom]).T, semantics)[0]
        assert got.tolist() == [pair.value for pair in chrom.genes]
        assert gasa_chromosome(chrom.genes) == chrom
        assert list(code_matrix([chrom, chrom])[1]) == list(gene_codes)

    def test_random_code_draws_as_pairs_were_drawn(self):
        for seed in range(300):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(20):
                assert EVOLVABLE_PAIRS[random_code(rng)] == reference_random_pair(reference)
            assert rng.getstate() == reference.getstate()

    def test_forced_new_code_draws_as_pairs_were_drawn(self):
        for seed in range(300):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(20):
                code = random_code(rng)
                pair = reference_random_pair(reference)
                new = EVOLVABLE_PAIRS[forced_new_code(code, rng)]
                assert new == reference_forced_new_pair(pair, reference) != pair
            assert rng.getstate() == reference.getstate()

    def test_random_chromosome_draws_as_pairs_were_drawn(self):
        for seed in range(50):
            reference = random.Random(seed)
            chrom = random_chromosome(40, random.Random(seed))
            assert chrom.genes == tuple(reference_random_pair(reference) for _ in range(40))


class TestFitness:
    def test_worked_three_sentence_example(self):
        # labels positive/negative/positive; the chromosome makes every
        # sentence evaluate negative, so only the second counts
        corpus = make_corpus(
            [(["zorp"], "positive"), (["zorp"], "negative"), (["zorp"], "positive")]
        )
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        chrom = gasa_chromosome((S(-1.0),))
        assert fitness(chrom, corpus, index, sd, ad) == 1

    def test_empty_corpus(self):
        sd, ad = empty_dicts()
        corpus = Corpus(())
        index = build_unknown_index(corpus, sd, ad)
        assert fitness(GasaChromosome(b""), corpus, index, sd, ad) == 0

    def test_dictionary_only_corpus_ignores_genes(self):
        corpus = make_corpus([(["good"], "positive"), (["bad"], "negative")])
        sd = Dictionary({"good": S(1.0), "bad": S(-1.0)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        assert fitness(GasaChromosome(b""), corpus, index, sd, ad) == 2

    def test_length_mismatch(self):
        corpus = make_corpus([(["zorp"], "positive")])
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        with pytest.raises(ValueError, match="length"):
            fitness(GasaChromosome(b""), corpus, index, sd, ad)

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
        model = trained_model(GasaChromosome(b""), index, sd, ad)
        assert model.predict(("good",)) is Verdict.POSITIVE

    def test_oov_word_is_neutral(self):
        sd, ad = empty_dicts()
        corpus = make_corpus([(["zorp"], "positive")])
        index = build_unknown_index(corpus, sd, ad)
        model = trained_model(gasa_chromosome((S(1.0),)), index, sd, ad)
        assert model.predict(("neverseen",)) is Verdict.TIE


class TestMutate:
    def test_worked_trace(self):
        parent = gasa_chromosome((S(1.0), A(0.5), S(0.0)))

        class Scripted(random.Random):
            def __init__(self):
                super().__init__(0)
                # position 1, then the index of sentiment:1.0 among the
                # five candidate pairs != amplifier:0.5
                self.script = iter([1, 2])

            def randrange(self, n):
                return next(self.script) % n

        child, position = mutate_at(parent, Scripted())
        assert (child.genes, position) == ((S(1.0), S(1.0), S(0.0)), 1)

    def test_empty_chromosome_rejected(self, rng):
        with pytest.raises(ValueError):
            mutate_at(GasaChromosome(b""), rng)

    def test_length_one_forces_change(self, rng):
        for _ in range(100):
            parent = GasaChromosome(bytes([random_code(rng)]))
            child, _ = mutate_at(parent, rng)
            assert child.genes[0] != parent.genes[0]

    @settings(max_examples=1000)
    @given(chromosomes, st.randoms(use_true_random=False))
    def test_changes_exactly_one_gene(self, parent, rnd):
        child, position = mutate_at(parent, rnd)
        diffs = [i for i in range(len(parent)) if parent.genes[i] != child.genes[i]]
        assert diffs == [position]
        assert child.genes[diffs[0]].is_evolvable()
        assert len(child) == len(parent)


class TestCrossover:
    def test_worked_trace(self):
        p1 = gasa_chromosome((A(0.5), S(1.0)))
        p2 = gasa_chromosome((S(-1.0), S(1.0)))

        class PositionZero(random.Random):
            def randrange(self, n):
                return 0

        c1, c2, _ = crossover_at(p1, p2, PositionZero())
        assert c1.genes == (S(-1.0), S(1.0))
        assert c2.genes == (A(0.5), S(1.0))

    def test_identical_parents(self, rng):
        p = gasa_chromosome((S(1.0), A(1.5)))
        c1, c2, _ = crossover_at(p, p, rng)
        assert c1 == p and c2 == p

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            crossover_at(gasa_chromosome((S(1.0),)), gasa_chromosome((S(1.0), S(1.0))), rng)

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
        p1 = gasa_chromosome(a for a, _ in gene_pairs)
        p2 = gasa_chromosome(b for _, b in gene_pairs)
        c1, c2, position = crossover_at(p1, p2, rnd)
        assert len(c1) == len(c2) == len(p1)
        swapped = [
            i
            for i in range(len(p1))
            if (c1.genes[i], c2.genes[i]) != (p1.genes[i], p2.genes[i])
        ]
        # at most one position changes; where it does, the genes are swapped
        assert swapped in ([], [position])
        for i in swapped:
            assert (c1.genes[i], c2.genes[i]) == (p2.genes[i], p1.genes[i])
        # parents untouched
        assert p1.genes == tuple(a for a, _ in gene_pairs)


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
        batch = batch_fitness(chroms, compiled, semantics)
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
        batch = batch_fitness(chroms, compiled, semantics)
        scalar = [fitness(c, corpus, index, sd, ad, semantics) for c in chroms]
        assert list(batch) == scalar

    def test_empty_population_and_zero_genes(self):
        corpus = make_corpus([([], "positive"), (["good"], "positive"), (["not"], "negative")])
        sd = Dictionary({"good": S(1.25)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        compiled = compile_corpus(corpus, slot_table(index, sd, ad))
        assert len(index) == 0
        assert batch_fitness([], compiled).shape == (0,)
        # the empty sentence scores 0 and is never correct
        assert list(batch_fitness([GasaChromosome(b"")], compiled)) == [2]

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


class TestDeltaFitness:
    """`GasaProblem.fitness_many` scores a child of its last batch from the
    parent's correctness vector; every value must still equal the oracle's."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        semantics=st.sampled_from(list(Semantics)),
        gene_words=st.integers(min_value=0, max_value=5),
        rnd=st.randoms(use_true_random=False),
    )
    def test_lineage_chains_match_oracle(self, data, semantics, gene_words, rnd):
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
        # "oov" is out of the index, so it is neutral
        known = make_corpus([([w for w in t if w != "oov"], label) for t, label in rows])
        index = build_unknown_index(known, sd, ad)
        problem = GasaProblem(corpus, index, sd, ad, semantics)
        pool = [problem.random_genome(rnd) for _ in range(3)]  # scored or not
        batch = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            pick = st.sampled_from(pool + batch)
            for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
                op = data.draw(
                    st.sampled_from(["mutate", "crossover", "self-cross", "again", "new"])
                )
                if op == "mutate":
                    made = [problem.mutate(data.draw(pick), rnd)]
                elif op == "crossover":
                    made = list(problem.crossover(data.draw(pick), data.draw(pick), rnd))
                elif op == "self-cross":  # swaps equal genes
                    parent = data.draw(pick)
                    made = list(problem.crossover(parent, parent, rnd))
                elif op == "again":  # a genome already made or scored
                    made = [data.draw(pick)]
                else:
                    made = [problem.random_genome(rnd)]
                # an unscored child may become a parent within the batch
                pool.extend(made)
                made = made[: data.draw(st.integers(min_value=0, max_value=len(made)))]
                batch.extend(made)
            scores = problem.fitness_many(batch)
            assert scores == [fitness(g, corpus, index, sd, ad, semantics) for g in batch]
            pool, batch = batch or pool, []

    def test_reused_problem_runs_like_a_fresh_one(self):
        rng = random.Random(7)
        corpus = generate_synthetic_corpus(
            random_planted_lexicon(12, 4, rng), 120, (3, 8), Semantics.LITERAL, rng
        )
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        for semantics in Semantics:
            reused = GasaProblem(corpus, index, sd, ad, semantics)
            for seed in (3, 4, 3):
                config = GAConfig(population_size=30, max_generations=15, seed=seed)
                fresh = GasaProblem(corpus, index, sd, ad, semantics)
                best, stats = run_ga(reused, config)
                fresh_best, fresh_stats = run_ga(fresh, config)
                assert best.genome == fresh_best.genome
                assert best.fitness == fresh_best.fitness
                assert stats == fresh_stats
