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

from evosent.cagasa import CagasaGene, ContextRule, random_cagasa_chromosome
from evosent.cli import main as cli_main
from evosent.corpus import build_unknown_index
from evosent.evaluator import Semantics
from evosent.experiments import generate_synthetic_corpus, random_planted_lexicon
from evosent.ga_engine import EvaluatedIndividual, GAConfig, run_ga, tournament_select
from evosent.gasa import (
    PAIR_CODES,
    GasaProblem,
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

import run_frequency_trend
import run_planted_recovery
from conftest import (
    A,
    S,
    compiled_lines,
    fires,
    make_corpus,
    neighbor_pools,
    predicted,
    trained_model,
)
from oracles import (
    cagasa_chromosome,
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
    """The scoring kernel (`gasa.scores`) equals the straight-line oracle on
    every sentence of length <= 6 over a 4-word vocabulary under every
    resolver assignment.

    The kernel reads each token's pair independently, so a (sentence,
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

        def assert_kernel_matches_oracle(assignments, token_lists):
            """Sentence i reads gene slots of its own, the words s{i}w{k},
            through `assignments[i]`; one code column holds all their pairs."""
            table, codes, sentences = {}, [], []
            for i, (assignment, tokens) in enumerate(zip(assignments, token_lists)):
                for word, pair in assignment.items():
                    table[f"s{i}{word}"] = len(codes)
                    codes.append(PAIR_CODES[pair])
                sentences.append([f"s{i}{word}" for word in tokens])
            compiled = compiled_lines(sentences, table)
            for semantics in Semantics:
                got = scores(compiled, np.array(codes, dtype=np.int8)[:, None], semantics)[0]
                prose = semantics is Semantics.PROSE
                want = [
                    reference_sentence_score([a[t] for t in tokens], prose)
                    for a, tokens in zip(assignments, token_lists)
                ]
                assert got.tolist() == want, semantics

        assignments, token_lists = [], []
        for length in range(7):
            for seq in itertools.product(EVOLVABLE_PAIRS, repeat=length):
                distinct = []
                for pair in seq:
                    if pair not in distinct:
                        distinct.append(pair)
                if len(distinct) > 4:
                    continue
                assignments.append({f"w{i}": pair for i, pair in enumerate(distinct)})
                token_lists.append([f"w{distinct.index(pair)}" for pair in seq])
        assert len(token_lists) == 43_747
        assert_kernel_matches_oracle(assignments, token_lists)
        # raw-form spot check: explicit sentences and resolver assignments
        rng = random.Random(1)
        vocab = ["w0", "w1", "w2", "w3"]
        assignments, token_lists = [], []
        for _ in range(20_000):
            assignments.append({w: EVOLVABLE_PAIRS[rng.randrange(6)] for w in vocab})
            token_lists.append([vocab[rng.randrange(4)] for _ in range(rng.randrange(7))])
        assert_kernel_matches_oracle(assignments, token_lists)
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

        wins_max = 0
        for trial in range(10_000):
            winner = tournament_select(pop, 7, random.Random(trial))
            # the same seed's first seven `randrange` draws are the sample
            replay = random.Random(trial)
            sampled = [replay.randrange(len(pop)) for _ in range(7)]
            if winner.fitness == max(pop[i].fitness for i in sampled):
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
    recovers >= 80% of polarity signs in at least 8 of 10 seeds. Each seed
    is one run of `scripts/run_planted_recovery.py` at its defaults.

    Thresholds were frozen after a 10-run calibration (observed: 100%
    training accuracy and 90-100% sign recovery on every seed).
    """
    with criterion(capsys, 6, "planted-lexicon recovery"):
        start = time.monotonic()
        successes = 0
        for seed in range(10):
            accuracy, recovery, _gens, min_freq = run_planted_recovery.run_seed(seed)
            assert min_freq >= 20
            if accuracy >= 0.95 and recovery >= 0.80:
                successes += 1
        assert successes >= 8
        assert time.monotonic() - start < 300.0


def test_07_frequency_trend(capsys):
    """Sentiment-vs-amplifier CV accuracy restricted to frequent dictionary
    words (threshold 20) is at least the unrestricted accuracy (threshold 0),
    averaged over 10 seeds of `scripts/run_frequency_trend.py` at its
    defaults."""
    with criterion(capsys, 7, "frequency trend"):
        acc_unfiltered, acc_frequent = zip(*(run_frequency_trend.run_seed(s) for s in range(10)))
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
            base = random_cagasa_chromosome(*neighbor_pools(corpus, index), rnd)
            stripped = cagasa_chromosome(
                tuple(
                    CagasaGene(
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
                assert predicted(model, token_lists) == expected


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
