import gc
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evosent.gasa
from evosent.cagasa import CagasaProblem
from evosent.corpus import build_unknown_index
from evosent.evaluator import Semantics, Verdict, slot_table
from evosent.experiments import generate_synthetic_corpus, random_planted_lexicon
from evosent.ga_engine import GAConfig, run_ga
from evosent.gasa import (
    GasaChromosome,
    GasaProblem,
    crossover_at,
    forced_new_code,
    gene_rows,
    labelled_correctly,
    labelled_correctly_at,
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

from conftest import (
    A,
    S,
    compiled_corpus,
    compiled_lines,
    context_corpus,
    make_corpus,
    trained_model,
)
from oracles import cagasa_fitness, gasa_chromosome
from oracles import reference_forced_new_pair, reference_gene_rows, reference_random_pair
from oracles import gasa_fitness as fitness

pairs = st.sampled_from(EVOLVABLE_PAIRS)
chromosomes = st.lists(pairs, min_size=1, max_size=30).map(gasa_chromosome)


def code_columns(genomes) -> np.ndarray:
    """The genomes' pair codes, one int8 column per genome."""
    genes = len(genomes[0]) if genomes else 0
    codes = np.frombuffer(b"".join(g.codes for g in genomes), dtype=np.int8)
    return codes.reshape(len(genomes), genes).T


def batch_fitness(chroms, compiled, semantics=Semantics.LITERAL):
    return labelled_correctly(compiled, code_columns(chroms), semantics).sum(axis=1)


# Each problem class of the shared delta-fitness engine, and its oracle.
PROBLEMS = {"gasa": (GasaProblem, fitness), "cagasa": (CagasaProblem, cagasa_fitness)}


def rescore(compiled, rows, codes, semantics=Semantics.LITERAL) -> np.ndarray:
    """`labelled_correctly_at` of owners given each as its own row array."""
    counts = np.array([len(r) for r in rows], dtype=np.int64)
    return labelled_correctly_at(compiled, np.concatenate(rows), counts, codes, semantics)


def scorer(problem):
    """Scores a list of genomes through the problem's own protocol."""
    many = getattr(problem, "fitness_many", None)
    return many or (lambda genomes: [problem.fitness(g) for g in genomes])


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
        compiled = compiled_lines(([w] for w in words), {w: k for k, w in enumerate(words)})
        got = scores(compiled, code_columns([chrom]), semantics)[0]
        assert got.tolist() == [pair.value for pair in chrom.genes]
        assert gasa_chromosome(chrom.genes) == chrom
        assert code_columns([chrom, chrom])[:, 1].tolist() == list(gene_codes)

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
        corpus = make_corpus([])
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
        compiled = compiled_corpus(corpus, slot_table(index, sd, ad))
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
        compiled = compiled_corpus(corpus, slot_table(index, sd, ad))
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
        compiled = compiled_corpus(corpus, slot_table(index, sd, ad))
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
        chroms = [random_chromosome(len(index), rng) for _ in range(30)]
        assert problem.fitness_many(chroms) == [fitness(c, corpus, index, sd, ad) for c in chroms]
        assert problem.max_fitness == 2


class TestGeneRows:
    """`gene_rows` sorts cells by gene once and drops repeated (gene, row)
    pairs by comparing neighbours; the reference takes `np.unique` of keys."""

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 12), st.integers(0, 9)),
        genes=st.integers(0, 6),
        data=st.data(),
    )
    def test_matches_unique(self, shape, genes, data):
        # gene slots 0..genes-1 and fixed slots below zero, anywhere
        cells = st.integers(-3, genes - 1)
        size = shape[0] * shape[1]
        flat = data.draw(st.lists(cells, min_size=size, max_size=size))
        slots = np.array(flat, dtype=np.int32).reshape(shape)
        starts, rows = gene_rows(slots, genes)
        expected_starts, expected_rows = reference_gene_rows(slots, genes)
        assert starts == expected_starts and rows.tolist() == expected_rows.tolist()
        assert rows.dtype == expected_rows.dtype


class TestDeltaFitness:
    """`GasaProblem.fitness_many` scores a child of its last batch from the
    parent's correctness vector; every value must still equal the oracle's."""

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
        # "oov" is out of the index, so it is neutral
        known = make_corpus([([w for w in t if w != "oov"], label) for t, label in rows])
        index = build_unknown_index(known, sd, ad)
        problem = GasaProblem(corpus, index, sd, ad, semantics)
        pool = [problem.random_genome(rnd) for _ in range(3)]  # scored or not
        batch = []
        with pytest.MonkeyPatch.context() as patch:
            if slice_cells is not None:  # several slices per re-score
                patch.setattr(evosent.gasa, "SLICE_CELLS", slice_cells)
            for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
                for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
                    pick = st.sampled_from(pool + batch)
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

    def test_rescore_slices_hold_whole_genomes_up_to_slice_cells(self, monkeypatch):
        """A slice takes the most whole owners that fit SLICE_CELLS, each
        charged its slot-matrix cells and the fewer of its cells and codes."""
        rng = random.Random(4)
        lexicon = random_planted_lexicon(6, 2, rng)
        corpus = generate_synthetic_corpus(lexicon, 12, (2, 6), Semantics.LITERAL, rng)
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        compiled = compiled_corpus(corpus, slot_table(index, sd, ad))
        width = compiled.slots.shape[1]
        rows = [np.array([0, 3]), np.array([1]), np.arange(12), np.array([5, 7]), np.array([2])]
        genomes = [random_chromosome(len(index), rng) for _ in rows]
        sizes = [len(r) * width + min(len(r) * width, len(index)) for r in rows]
        # the first two genomes fill a slice exactly, the third needs more
        # than a slice and the last two fill one exactly again
        assert sizes[0] + sizes[1] == sizes[3] + sizes[4] < sizes[2]
        monkeypatch.setattr(evosent.gasa, "SLICE_CELLS", sizes[0] + sizes[1])
        sliced, columns = [], []

        def kernel(part, codes, semantics):
            sliced.append(len(part.slots))
            columns.append(len(codes))
            return labelled_correctly(part, codes, semantics)

        monkeypatch.setattr(evosent.gasa, "labelled_correctly", kernel)
        codes = [(g.codes,) for g in genomes]
        got = rescore(compiled, rows, codes)
        assert sliced == [3, 12, 3]
        alone = labelled_correctly(compiled, code_columns(genomes), Semantics.LITERAL)
        assert got.tolist() == np.concatenate([a[r] for a, r in zip(alone, rows)]).tolist()
        # CA-GASA's slot per occurrence: an owner of one row is charged its
        # six cells twice, not its cells and its 48 codes, so a slice of 54
        # elements, one owner under the old charge, takes four, and reads only
        # the codes of their rows
        context = context_corpus(corpus, slot_table(index, sd, ad)).compiled
        occurrences = int(context.slots.max()) + 1
        assert (width, occurrences) == (6, 48)
        monkeypatch.setattr(evosent.gasa, "SLICE_CELLS", width + occurrences)
        del sliced[:], columns[:]
        rows = [np.array([k]) for k in range(9)]
        codes = [(bytes(rng.randrange(6) for _ in range(occurrences)),) for _ in rows]
        got = rescore(context, rows, codes)
        assert sliced == [4, 4, 1]
        cells = [np.count_nonzero(context.slots[k] >= 0) for k in range(9)]
        assert columns == [sum(cells[:4]), sum(cells[4:8]), cells[8]]
        full = np.frombuffer(b"".join(c for (c,) in codes), dtype=np.int8).reshape(9, -1)
        alone = labelled_correctly(context, full.T, Semantics.LITERAL)
        assert got.tolist() == [a[r[0]] for a, r in zip(alone, rows)]

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        shared=st.booleans(),
        semantics=st.sampled_from(list(Semantics)),
        slice_cells=st.sampled_from([1, 40, 1 << 16]),
    )
    def test_compacted_and_offset_slices_match_the_full_pass(
        self, data, shared, semantics, slice_cells
    ):
        """A re-score slice whose gene cells are fewer than its owners' codes
        reads only the codes they hold; any other offsets into them all.
        Both equal the full pass, on GASA's shared slots (a few rows with
        many genes compact) and on CA-GASA's one slot per occurrence (one
        owner holding every row does not)."""
        vocab = ["good", "not", "w0", "w1", "w2", "w3", "w4"]
        sentence = st.lists(st.sampled_from(vocab), max_size=9)
        rows = data.draw(
            st.lists(
                st.tuples(sentence, st.sampled_from(["positive", "negative"])),
                min_size=1,
                max_size=10,
            )
        )
        corpus = make_corpus(rows)
        sd, ad = Dictionary({"good": S(1.0)}, Kind.SENTIMENT), seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        table = slot_table(index, sd, ad)
        if shared:
            compiled = compiled_corpus(corpus, table)
        else:
            compiled = context_corpus(corpus, table).compiled
        genes = int(compiled.slots.max(initial=-1)) + 1
        instances = st.integers(min_value=0, max_value=len(rows) - 1)
        owners = data.draw(st.integers(min_value=1, max_value=5))
        owned = st.lists(instances, max_size=len(rows)).map(lambda r: np.unique(np.array(r, int)))
        at = [data.draw(owned) for _ in range(owners)]
        code = st.integers(min_value=0, max_value=len(EVOLVABLE_PAIRS) - 1)
        columns = np.array(
            [data.draw(st.lists(code, min_size=genes, max_size=genes)) for _ in range(owners)],
            dtype=np.int8,
        ).reshape(owners, genes)
        # each owner's codes in two chunks, joined in order
        cut = data.draw(st.integers(min_value=0, max_value=genes))
        codes = [(c[:cut].tobytes(), c[cut:].tobytes()) for c in columns]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evosent.gasa, "SLICE_CELLS", slice_cells)
            got = rescore(compiled, at, codes, semantics)
        full = labelled_correctly(compiled, columns.T, semantics)
        assert got.tolist() == np.concatenate([f[r] for f, r in zip(full, at)]).tolist()

    @pytest.mark.parametrize("shared", [True, False])
    def test_a_slice_compacts_only_when_its_cells_are_fewer_than_its_codes(
        self, shared, monkeypatch
    ):
        corpus = make_corpus(
            [(["w0", "w1", "w2", "w1", "w0"], "positive"), (["w2", "good"], "negative")]
        )
        sd, ad = Dictionary({"good": S(1.0)}, Kind.SENTIMENT), seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        table = slot_table(index, sd, ad)
        if shared:
            compiled = compiled_corpus(corpus, table)
        else:
            compiled = context_corpus(corpus, table).compiled
        genes = int(compiled.slots.max()) + 1
        columns = []

        def kernel(part, codes, semantics):
            columns.append(len(codes))
            return labelled_correctly(part, codes, semantics)

        monkeypatch.setattr(evosent.gasa, "labelled_correctly", kernel)
        every = np.arange(2)
        codes = [(bytes([k % 6 for k in range(genes)]),)]
        rescore(compiled, [np.array([1])] * 2, codes * 2)
        rescore(compiled, [np.array([0])], codes)
        rescore(compiled, [every], codes)
        # row 0 holds five gene cells and row 1 one; GASA has three genes,
        # CA-GASA a slot for each of the six occurrences
        assert genes == (3 if shared else 6)
        assert columns == ([2, 3, 3] if shared else [2, 5, 6])

    def test_a_child_equal_to_its_parent_at_its_position_rescores_no_rows(self):
        """A child whose code at its changed position equals its parent's,
        such as a self-crossover's, re-scores no rows; any other child
        re-scores every row that holds its changed gene."""
        rng = random.Random(12)
        lexicon = random_planted_lexicon(6, 2, rng)
        corpus = generate_synthetic_corpus(lexicon, 40, (2, 9), Semantics.LITERAL, rng)
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        problem = GasaProblem(corpus, index, sd, ad)
        parents = [problem.random_genome(rng) for _ in range(6)]
        problem.fitness_many(parents)
        children = [problem.mutate(parent, rng) for parent in parents[:3]]
        children += problem.crossover(parents[3], parents[3], rng)  # swaps equal genes
        for p1, p2 in zip(parents, parents[::-1]):
            children += problem.crossover(p1, p2, rng)
        links = [problem._lineage[id(child)] for child in children]
        kept = [(c, problem._kept(p), at, d and problem._kept(d)) for c, p, at, d in links]
        _, rows, counts = problem._deltas(kept)
        starts, _ = problem._gene_rows
        equal = [child.codes[at] == parent[0].codes[at] for child, parent, at, _ in kept]
        holding = [starts[at + 1] - starts[at] for _, _, at, _ in kept]
        assert all(holding) and sum(equal) >= 2 and not all(equal)
        assert counts.tolist() == [0 if same else n for same, n in zip(equal, holding)]
        assert len(rows) == counts.sum()
        expected = [fitness(child, corpus, index, sd, ad) for child in children]
        assert problem.fitness_many(children) == expected

    @pytest.mark.parametrize("algo", PROBLEMS)
    def test_keeps_at_most_two_generations(self, algo):
        problem_class, oracle = PROBLEMS[algo]
        rng = random.Random(3)
        lexicon = random_planted_lexicon(6, 2, rng)
        corpus = generate_synthetic_corpus(lexicon, 60, (2, 9), Semantics.LITERAL, rng)
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        problem = problem_class(corpus, index, sd, ad)
        score = scorer(problem)
        best, stats = run_ga(problem, GAConfig(population_size=20, max_generations=10, seed=3))
        assert stats.generations_executed == 10
        assert len(problem._parents) <= 20 and len(problem._scored) <= 20
        # children never scored, and the genomes held only for them, are
        # dropped at the first variation after the next scoring call
        parent = next(iter(problem._scored.values()))[0]  # of the last generation
        unscored = [problem.mutate(parent, rng) for _ in range(5)]
        unscored += problem.crossover(parent, unscored[0], rng)
        assert len(problem._lineage) == 7
        # a kept genome takes its state and scores no child
        assert score([parent]) == [oracle(parent, corpus, index, sd, ad)]
        assert list(problem._scored) == [id(parent)] and len(problem._lineage) == 7
        # CA-GASA scores every recorded child with the one asked for, and the
        # others wait in `_batched`, not kept
        scored = unscored.pop(1)
        assert score([scored]) == [oracle(scored, corpus, index, sd, ad)]
        assert list(problem._scored) == [id(parent), id(scored)]
        waiting = 6 if algo == "cagasa" else 0
        assert len(problem._batched) == waiting and len(problem._lineage) == 6 - waiting
        freed = [weakref.ref(genome) for genome in unscored]
        del unscored
        child = problem.mutate(parent, rng)
        gc.collect()
        assert [ref() for ref in freed] == [None] * 6
        assert [link[0] for link in problem._lineage.values()] == [child]
        assert not problem._scored and not problem._batched
        assert list(problem._parents) == [id(parent), id(scored)]
        # a scored child is the one genome kept at the next variation
        assert score([child]) == [oracle(child, corpus, index, sd, ad)]
        assert not problem._lineage and list(problem._scored) == [id(child)]
        problem.crossover(child, parent, rng)
        assert list(problem._parents) == [id(child)] and len(problem._lineage) == 2

    @pytest.mark.parametrize("algo", PROBLEMS)
    def test_a_genome_twice_in_a_batch_is_scored_once(self, algo, monkeypatch):
        rng = random.Random(8)
        lexicon = random_planted_lexicon(6, 2, rng)
        corpus = generate_synthetic_corpus(lexicon, 30, (2, 9), Semantics.LITERAL, rng)
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        problem_class, oracle = PROBLEMS[algo]
        problem = problem_class(corpus, index, sd, ad)
        parent = problem.random_genome(rng)
        scorer(problem)([parent])
        child, new = problem.mutate(parent, rng), problem.random_genome(rng)
        asked = []  # (hook, genomes it scores), by delta and in full

        def counted(name, method):
            return lambda genomes: asked.append((name, len(genomes))) or method(genomes)

        for name in ("_deltas", "_codes"):
            monkeypatch.setattr(problem, name, counted(name, getattr(problem, name)))
        batch = [child, new, child, new]
        assert problem._score(batch) == [oracle(g, corpus, index, sd, ad) for g in batch]
        assert asked == [("_deltas", 1), ("_codes", 1)]

    def test_run_ga_kernel_calls_hold_bounded_full_passes_or_slices(self, monkeypatch):
        """Each kernel call of a GASA run, the initial population's included,
        is a full pass of the most whole genomes that fit in SLICE_CELLS
        elements, counting a genome's instances and genes, and at least one;
        or a re-score slice of at most SLICE_CELLS cells and codes, or of one
        genome's full pass when that holds more."""
        rng = random.Random(6)
        lexicon = random_planted_lexicon(10, 3, rng)
        corpus = generate_synthetic_corpus(lexicon, 80, (2, 9), Semantics.LITERAL, rng)
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        calls = []  # (whether a full pass, genomes, slot-matrix cells and codes)

        def kernel(part, codes, semantics):
            whole = part.slots is problem._compiled.slots
            calls.append((whole, codes.shape[1], part.slots.size + codes.size))
            return labelled_correctly(part, codes, semantics)

        monkeypatch.setattr(evosent.gasa, "labelled_correctly", kernel)
        full = None
        for slice_cells in (None, 300):  # more than a population's full pass, and less
            if slice_cells is not None:
                monkeypatch.setattr(evosent.gasa, "SLICE_CELLS", slice_cells)
            problem = GasaProblem(corpus, index, sd, ad)
            full = problem._compiled.slots.size + len(index)
            calls.clear()
            config = GAConfig(population_size=30, max_generations=5, seed=1)
            best, _ = run_ga(problem, config)
            assert best.fitness == fitness(best.genome, corpus, index, sd, ad)
            step = max(evosent.gasa.SLICE_CELLS // (len(corpus.instances) + len(index)), 1)
            passes = [genomes for whole, genomes, _ in calls if whole]
            assert passes == [step] * (30 // step) + [30 % step] * (30 % step > 0)
            bound = max(evosent.gasa.SLICE_CELLS, full)
            slices = [(genomes, cells) for whole, genomes, cells in calls if not whole]
            assert slices and all(genomes == 1 and cells <= bound for genomes, cells in slices)
        assert full > 300 and step == 3

    @pytest.mark.parametrize("algo", PROBLEMS)
    def test_reused_problem_runs_like_a_fresh_one(self, algo):
        problem_class, _ = PROBLEMS[algo]
        rng = random.Random(7)
        corpus = generate_synthetic_corpus(
            random_planted_lexicon(12, 4, rng), 120, (3, 8), Semantics.LITERAL, rng
        )
        sd, ad = empty_dicts()
        index = build_unknown_index(corpus, sd, ad)
        for semantics in Semantics:
            reused = problem_class(corpus, index, sd, ad, semantics)
            for seed in (3, 4, 3):
                config = GAConfig(population_size=30, max_generations=15, seed=seed)
                fresh = problem_class(corpus, index, sd, ad, semantics)
                best, stats = run_ga(reused, config)
                fresh_best, fresh_stats = run_ga(fresh, config)
                assert best.genome == fresh_best.genome
                assert best.fitness == fresh_best.fitness
                assert stats == fresh_stats
