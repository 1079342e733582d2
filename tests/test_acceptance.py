"""Acceptance gate: nine end-to-end checks, one printed PASS/FAIL line each.

Each check exercises the public API against an independent oracle, an exact
worked example, a statistical property, or a byte-level determinism contract.
"""

import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from evosent.cagasa import (
    CagasaChromosome,
    CagasaGene,
    ContextRule,
    corpus_neighbors,
    random_cagasa_chromosome,
)
from evosent.cli import main as cli_main
from evosent.corpus import build_unknown_index, concat_corpora, word_frequencies
from evosent.evaluator import Semantics, evaluate_sentence
from evosent.experiments import (
    Protocol,
    generate_synthetic_corpus,
    random_planted_lexicon,
    run_word_cv,
    train,
)
from evosent.ga_engine import EvaluatedIndividual, GAConfig, run_ga, tournament_select
from evosent.gasa import (
    PAIR_CODES,
    GasaProblem,
    compile_tokens,
    crossover_at,
    mutate_at,
    random_chromosome,
    scores,
)
from evosent.lexicon import (
    EVOLVABLE_PAIRS,
    Dictionary,
    Kind,
    seed_amplifier_dictionary,
)

from conftest import A, S, fires, make_corpus, trained_model
from oracles import (
    cagasa_fitness,
    exhaustive_best_fitness,
    gasa_chromosome,
    gasa_fitness,
    gasa_verdict,
    reference_sentence_score,
    to_context_free_gasa,
)


@contextmanager
def criterion(capsys, number, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({name}): PASS")


def test_01_evaluator_oracle_equivalence(capsys):
    """evaluate_sentence and the scoring kernel (`gasa.scores`) equal the
    straight-line oracle on every sentence of length <= 6 over a 4-word
    vocabulary under every resolver assignment.

    The evaluator resolves each token independently, so a (sentence,
    assignment) case is fully determined by its induced pair sequence.  Over a
    4-word vocabulary every such sequence has length <= 6 and at most 4
    distinct pairs, and conversely every such sequence is realized by mapping
    its distinct pairs (first-occurrence order) onto 4 vocabulary words.
    Enumerating those canonical sequences therefore covers the full
    sentence x assignment product exactly once per behavioral class; a large
    random sample of raw (sentence, assignment) cases is checked as well.
    """
    with criterion(capsys, 1, "evaluator oracle equivalence"):
        start = time.monotonic()
        # Sentence i on the kernel reads gene slots of its own, the words
        # s{i}w{k}; `codes` holds their pair codes, one column for all.
        sequences, token_lists, table, codes = [], [], {}, []
        for length in range(7):
            for seq in itertools.product(EVOLVABLE_PAIRS, repeat=length):
                distinct = []
                for pair in seq:
                    if pair not in distinct:
                        distinct.append(pair)
                if len(distinct) > 4:
                    continue
                assignment = {f"w{i}": pair for i, pair in enumerate(distinct)}
                tokens = [f"w{distinct.index(pair)}" for pair in seq]
                for semantics in Semantics:
                    got = evaluate_sentence(tokens, assignment.__getitem__, semantics)
                    want = reference_sentence_score(
                        list(seq), semantics is Semantics.PROSE
                    )
                    assert got == want, (seq, semantics)
                prefix = f"s{len(sequences)}"
                for word, pair in assignment.items():
                    table[prefix + word] = len(codes)
                    codes.append(PAIR_CODES[pair])
                token_lists.append([prefix + word for word in tokens])
                sequences.append(seq)
        assert len(sequences) == 43_747
        compiled = compile_tokens(token_lists, table)
        for semantics in Semantics:
            got = scores(compiled, np.array(codes, dtype=np.int8)[:, None], semantics)[0]
            prose = semantics is Semantics.PROSE
            assert got.tolist() == [reference_sentence_score(list(s), prose) for s in sequences]
        # raw-form spot check: explicit sentences and resolver assignments
        rng = random.Random(1)
        vocab = ["w0", "w1", "w2", "w3"]
        for _ in range(20_000):
            assignment = {w: EVOLVABLE_PAIRS[rng.randrange(6)] for w in vocab}
            tokens = [vocab[rng.randrange(4)] for _ in range(rng.randrange(7))]
            pairs = [assignment[t] for t in tokens]
            for semantics in Semantics:
                got = evaluate_sentence(tokens, assignment.__getitem__, semantics)
                assert got == reference_sentence_score(
                    pairs, semantics is Semantics.PROSE
                )
        assert time.monotonic() - start < 30.0


def test_02_worked_examples_exact(capsys):
    with criterion(capsys, 2, "worked examples exact"):
        # three sentences labeled positive/negative/positive, all evaluated
        # negative by the chromosome: exactly one correct
        corpus = make_corpus(
            [(["zorp"], "positive"), (["zorp"], "negative"), (["zorp"], "positive")]
        )
        sd = Dictionary({}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        assert gasa_fitness(gasa_chromosome((S(-1.0),)), corpus, index, sd, ad) == 1

        # mutation trace: second gene amplifier:0.5 -> sentiment:1.0
        class ScriptedMutation(random.Random):
            def __init__(self):
                super().__init__(0)
                self.script = iter([1, 2])

            def randrange(self, n):
                return next(self.script) % n

        parent = gasa_chromosome((S(1.0), A(0.5), S(0.0)))
        child, position = mutate_at(parent, ScriptedMutation())
        assert (child.genes, position) == ((S(1.0), S(1.0), S(0.0)), 1)

        # crossover trace: first gene swapped between the parents
        class PositionZero(random.Random):
            def randrange(self, n):
                return 0

        p1 = gasa_chromosome((A(0.5), S(1.0)))
        p2 = gasa_chromosome((S(-1.0), S(1.0)))
        c1, c2, _ = crossover_at(p1, p2, PositionZero())
        assert c1.genes == (S(-1.0), S(1.0))
        assert c2.genes == (A(0.5), S(1.0))

        # "the ship sunk": ratio (0+1)/(0+2) >= 0.5 fires the context pair
        gene = CagasaGene(
            "sunk",
            ContextRule(
                next_size=1,
                previous_size=1,
                list_next=frozenset({"book"}),
                list_previous=frozenset({"ship"}),
                number_ahead=1,
                number_behind=2,
                context_pair=S(-1.0),
            ),
            S(1.0),
        )
        tokens = ["the", "ship", "sunk"]
        assert fires(gene.rule, tokens, 2)

        # the neighborhood is exactly {ship, the}, both behind: one hit fires
        # (so at most two words), "the" alone hits too, and neither is ahead
        def with_lists(list_next, list_previous):
            return replace(
                gene.rule,
                next_size=2,
                previous_size=2,
                list_next=frozenset(list_next),
                list_previous=frozenset(list_previous),
            )

        assert fires(with_lists((), {"the"}), tokens, 2)
        assert not fires(with_lists({"ship", "the"}, ()), tokens, 2)


def test_03_operator_invariants(capsys):
    with criterion(capsys, 3, "operator invariants"):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randrange(1, 31)
            parent = random_chromosome(n, rng)
            child, position = mutate_at(parent, rng)
            assert len(child) == n
            diffs = [i for i in range(n) if parent.genes[i] != child.genes[i]]
            assert diffs == [position]
            assert child.genes[diffs[0]] in EVOLVABLE_PAIRS
        for _ in range(1000):
            n = rng.randrange(1, 31)
            p1 = random_chromosome(n, rng)
            p2 = random_chromosome(n, rng)
            c1, c2, position = crossover_at(p1, p2, rng)
            assert len(c1) == len(c2) == n
            changed = [
                i
                for i in range(n)
                if (c1.genes[i], c2.genes[i]) != (p1.genes[i], p2.genes[i])
            ]
            assert changed in ([], [position])
            for i in changed:
                assert (c1.genes[i], c2.genes[i]) == (p2.genes[i], p1.genes[i])
            assert all(g in EVOLVABLE_PAIRS for g in c1.genes + c2.genes)


def test_04_tournament_statistics(capsys):
    with criterion(capsys, 4, "tournament selection statistics"):
        from scipy.stats import chisquare

        pop = [EvaluatedIndividual(genome=i, fitness=i) for i in range(10)]

        class Recording(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                self.sampled = []

            def randrange(self, n):
                i = super().randrange(n)
                if n == len(pop):
                    self.sampled.append(i)
                return i

        wins_max = 0
        for trial in range(10_000):
            rec = Recording(trial)
            winner = tournament_select(pop, 7, rec)
            if winner.fitness == max(pop[i].fitness for i in rec.sampled[:7]):
                wins_max += 1
        assert wins_max == 10_000

        tied = [EvaluatedIndividual(genome=i, fitness=3) for i in range(4)]
        rng = random.Random(7)
        counts = [0, 0, 0, 0]
        for _ in range(10_000):
            counts[tournament_select(tied, 4, rng).genome] += 1
        _stat, p = chisquare(counts)
        assert p > 0.01


def test_05_brute_force_optimality(capsys):
    """GA reaches the exhaustive optimum over 6^4 chromosomes on a corpus
    inducing four unknown words, across 100 fixed seeds."""
    with criterion(capsys, 5, "brute-force optimality on tiny instances"):
        start = time.monotonic()
        corpus = make_corpus(
            [
                (["zorp", "good"], "positive"),
                (["not", "zorp"], "negative"),
                (["blick"], "positive"),
                (["blick"], "negative"),  # unsatisfiable together with row 3
                (["quux", "blick", "good"], "positive"),
                (["bad", "quux"], "negative"),
                (["flern", "zorp"], "positive"),
                (["not", "flern"], "negative"),
            ]
        )
        sd = Dictionary({"good": S(1.0), "bad": S(-1.0)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        assert len(index) == 4
        optimum = exhaustive_best_fitness(corpus, index, sd, ad, Semantics.LITERAL)
        assert optimum < len(corpus)  # the conflict keeps the target nontrivial
        problem = GasaProblem(corpus, index, sd, ad)
        wins = 0
        for seed in range(100):
            config = GAConfig(
                population_size=50, tournament_size=7, max_generations=100, seed=seed
            )
            best, _stats = run_ga(problem, config)
            if best.fitness == optimum:
                wins += 1
        assert wins >= 95
        assert time.monotonic() - start < 120.0


def test_06_planted_lexicon_recovery(capsys):
    """On 500-sentence corpora planted from a 30-word lexicon (each word
    occurring at least 20 times), training reaches >= 95% accuracy and
    recovers >= 80% of polarity signs in at least 8 of 10 seeds.

    Thresholds were frozen after a 10-run calibration (observed: 100%
    training accuracy and 90-100% sign recovery on every seed).
    """
    with criterion(capsys, 6, "planted-lexicon recovery"):
        start = time.monotonic()
        successes = 0
        for seed in range(10):
            data_rng = random.Random(1000 + seed)
            lexicon = random_planted_lexicon(30, 10, data_rng)
            corpus = generate_synthetic_corpus(
                lexicon, 500, (3, 8), Semantics.LITERAL, data_rng
            )
            freqs = word_frequencies(corpus)
            assert all(freqs[w] >= 20 for w in lexicon.entries)
            sd = Dictionary({}, Kind.SENTIMENT)
            ad = seed_amplifier_dictionary()
            model, _stats = train(corpus, sd, ad, GAConfig(seed=seed))
            train_accuracy = model.best_fitness / len(corpus)
            planted_words = sorted(lexicon.entries)
            pairs = dict(zip(model.index.words, model.gene_pairs()))
            genes = [pairs[w] for w in planted_words]
            recovered = sum(
                1
                for word, gene in zip(planted_words, genes)
                if gene.kind is Kind.SENTIMENT
                and gene.value != 0.0
                and (gene.value > 0.0) == (lexicon.entries[word].value > 0.0)
            )
            sign_recovery = recovered / len(planted_words)
            if train_accuracy >= 0.95 and sign_recovery >= 0.80:
                successes += 1
        assert successes >= 8
        assert time.monotonic() - start < 300.0


def test_07_frequency_trend(capsys):
    """Sentiment-vs-amplifier CV accuracy restricted to frequent dictionary
    words (threshold 20) is at least the unrestricted accuracy (threshold 0),
    averaged over 10 seeds."""
    with criterion(capsys, 7, "frequency trend"):
        acc_unfiltered = []
        acc_frequent = []
        for seed in range(10):
            rng = random.Random(7000 + seed)
            lexicon = random_planted_lexicon(20, 6, rng)
            words = sorted(lexicon.entries)
            frequent = {w: lexicon.entries[w] for w in words[:10]}
            rare = {w: lexicon.entries[w] for w in words[10:]}
            big = generate_synthetic_corpus(
                type(lexicon)(frequent, lexicon.fillers),
                240,
                (3, 7),
                Semantics.LITERAL,
                rng,
            )
            small = generate_synthetic_corpus(
                type(lexicon)(rare, lexicon.fillers),
                10,
                (2, 4),
                Semantics.LITERAL,
                rng,
            )
            corpus = concat_corpora([big, small])
            sd = Dictionary(dict(lexicon.entries), Kind.SENTIMENT)
            ad = seed_amplifier_dictionary()
            config = GAConfig(
                population_size=60, tournament_size=7, max_generations=60, seed=seed
            )
            r0 = run_word_cv(Protocol.SENT_VS_AMP, corpus, sd, ad, 0, 5, config)
            r20 = run_word_cv(Protocol.SENT_VS_AMP, corpus, sd, ad, 20, 5, config)
            acc_unfiltered.append(r0.mean_accuracy)
            acc_frequent.append(r20.mean_accuracy)
        mean0 = sum(acc_unfiltered) / 10
        mean20 = sum(acc_frequent) / 10
        assert mean20 >= mean0, (mean20, mean0)


def test_08_cagasa_reduction(capsys):
    """A CA-GASA chromosome whose context lists are empty reproduces the
    context-free GASA predictions on every instance, both semantics modes."""
    with criterion(capsys, 8, "context-free reduction"):
        for mode_seed, semantics in enumerate(Semantics):
            rnd = random.Random(500 + mode_seed)
            lexicon = random_planted_lexicon(10, 4, rnd)
            corpus = generate_synthetic_corpus(lexicon, 100, (2, 7), semantics, rnd)
            sd = Dictionary({}, Kind.SENTIMENT)
            ad = seed_amplifier_dictionary()
            index = build_unknown_index(corpus, sd, ad)
            neighbors = corpus_neighbors(corpus)
            base = random_cagasa_chromosome(index, neighbors, rnd)
            stripped = CagasaChromosome(
                tuple(
                    CagasaGene(
                        g.word,
                        ContextRule(
                            next_size=g.rule.next_size,
                            previous_size=g.rule.previous_size,
                            list_next=frozenset(),
                            list_previous=frozenset(),
                            number_ahead=g.rule.number_ahead,
                            number_behind=g.rule.number_behind,
                            context_pair=g.rule.context_pair,
                        ),
                        g.context_free_pair,
                    )
                    for g in base.genes
                )
            )
            plain = to_context_free_gasa(stripped)
            assert cagasa_fitness(
                stripped, corpus, index, sd, ad, semantics
            ) == gasa_fitness(plain, corpus, index, sd, ad, semantics)
            token_lists = [inst.tokens for inst in corpus.instances]
            expected = [gasa_verdict(plain, t, index, sd, ad, semantics) for t in token_lists]
            for genome in (stripped, plain):
                model = trained_model(genome, index, sd, ad, semantics)
                assert [v.value for v in model.predict_many(token_lists)] == expected


def test_09_determinism_every_subcommand(capsys, tmp_path):
    """Two runs of every CLI subcommand with the same seed produce
    byte-identical artifacts."""
    with criterion(capsys, 9, "byte-identical determinism"):

        def run(args):
            assert cli_main(args) == 0

        def twice(build_args, outputs):
            artifacts = []
            for tag in ("a", "b"):
                run(build_args(tag))
                artifacts.append([(tmp_path / f"{name}.{tag}").read_bytes() for name in outputs])
            assert artifacts[0] == artifacts[1]

        # synth (corpus + ground-truth lexicon)
        twice(
            lambda tag: [
                "synth",
                "--out",
                str(tmp_path / f"synth.{tag}"),
                "--lexicon-out",
                str(tmp_path / f"truth.{tag}"),
                "--instances",
                "60",
                "--planted-words",
                "8",
                "--filler-words",
                "3",
                "--seed",
                "4",
            ],
            ["synth", "truth"],
        )
        corpus_path = tmp_path / "synth.a"
        ga_flags = ["--seed", "2", "--pop", "30", "--generations", "20"]

        # train, both algorithms, with lexicon export
        for algo in ("gasa", "cagasa"):
            twice(
                lambda tag, algo=algo: [
                    "train",
                    "--corpus",
                    str(corpus_path),
                    "--algo",
                    algo,
                    "--model-out",
                    str(tmp_path / f"model-{algo}.{tag}"),
                    "--export-lexicon",
                    str(tmp_path / f"lex-{algo}.{tag}"),
                    *ga_flags,
                ],
                [f"model-{algo}", f"lex-{algo}"],
            )

        # predict from the trained model
        model_path = tmp_path / "model-gasa.a"
        input_path = tmp_path / "predict-in.txt"
        input_path.write_text("pw000 pw001\nfw000\npw003 pw003\n")
        twice(
            lambda tag: [
                "predict",
                "--model",
                str(model_path),
                "--input",
                str(input_path),
                "--out",
                str(tmp_path / f"pred.{tag}"),
                "--show-ties",
            ],
            ["pred"],
        )

        # holdout report
        twice(
            lambda tag: [
                "holdout",
                "--corpus",
                str(corpus_path),
                "--report-out",
                str(tmp_path / f"holdout.{tag}"),
                *ga_flags,
            ],
            ["holdout"],
        )

        # word cross-validation reports need the planted words as a dictionary
        truth = tmp_path / "truth.a"
        pos_path = tmp_path / "pos.txt"
        neg_path = tmp_path / "neg.txt"
        pos_words, neg_words = [], []
        for line in truth.read_text().splitlines():
            word, kind, value = line.split("\t")
            if kind == "sentiment" and float(value) > 0:
                pos_words.append(word)
            elif kind == "sentiment" and float(value) < 0:
                neg_words.append(word)
        pos_path.write_text("".join(f"{w}\n" for w in pos_words))
        neg_path.write_text("".join(f"{w}\n" for w in neg_words))
        for sub in ("cv-sentamp", "cv-polarity"):
            twice(
                lambda tag, sub=sub: [
                    sub,
                    "--corpus",
                    str(corpus_path),
                    "--positive-words",
                    str(pos_path),
                    "--negative-words",
                    str(neg_path),
                    "--folds",
                    "2",
                    "--report-out",
                    str(tmp_path / f"{sub}.{tag}"),
                    *ga_flags,
                ],
                [sub],
            )

        # lexicon re-export from a saved model
        twice(
            lambda tag: [
                "export-lexicon",
                "--model",
                str(model_path),
                "--out",
                str(tmp_path / f"relex.{tag}"),
            ],
            ["relex"],
        )
