import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evosent.experiments
from evosent.corpus import Label, SplitError
from evosent.evaluator import Semantics, classify_score
from evosent.experiments import (
    Algo,
    ExperimentReport,
    GenerationError,
    PlantedLexicon,
    Protocol,
    _filtered_dictionary_words,
    format_report,
    generate_synthetic_corpus,
    random_planted_lexicon,
    report_records,
    run_holdout_accuracy,
    run_instance_cv,
    run_word_cv,
    write_report,
)
from evosent.ga_engine import GAConfig
from evosent.gasa import SLICE_CELLS
from evosent.lexicon import (
    ClassificationValuePair,
    Dictionary,
    Kind,
    seed_amplifier_dictionary,
)

from conftest import S, make_corpus
from oracles import reference_sentence_score, reference_synthetic_corpus

SMALL = GAConfig(population_size=40, tournament_size=3, max_generations=40, seed=1)


def truth_score(tokens, lexicon, semantics):
    """The reference score of `tokens` under the planted ground truth."""
    pairs = [lexicon.resolve(word) for word in tokens]
    return reference_sentence_score(pairs, semantics is Semantics.PROSE)


def planted(n_sentiment=6, n_fillers=2, seed=0):
    return random_planted_lexicon(n_sentiment, n_fillers, random.Random(seed))


class TestPlantedLexicon:
    def test_alternating_polarity(self):
        lexicon = planted(4, 1)
        values = [lexicon.entries[w].value for w in sorted(lexicon.entries)]
        assert values == [1.0, -1.0, 1.0, -1.0]
        assert all(p.kind is Kind.SENTIMENT for p in lexicon.entries.values())

    def test_fillers_resolve_neutral(self):
        lexicon = planted(2, 3)
        for word in lexicon.fillers:
            pair = lexicon.resolve(word)
            assert pair.kind is Kind.SENTIMENT and pair.value == 0.0

    def test_unknown_word(self):
        with pytest.raises(KeyError):
            planted().resolve("nope")


class TestSyntheticCorpus:
    def run(self, n=60, lengths=(2, 5), semantics=Semantics.LITERAL, seed=0):
        rnd = random.Random(seed)
        lexicon = random_planted_lexicon(6, 2, rnd)
        return lexicon, generate_synthetic_corpus(lexicon, n, lengths, semantics, rnd)

    @pytest.mark.parametrize("semantics", list(Semantics))
    def test_labels_consistent_with_ground_truth(self, semantics):
        lexicon, corpus = self.run(semantics=semantics)
        for inst in corpus.instances:
            verdict = classify_score(truth_score(inst.tokens, lexicon, semantics))
            assert verdict.value == inst.label.value

    def test_balanced(self):
        _, corpus = self.run(n=100)
        labels = Counter(i.label for i in corpus.instances)
        assert labels[Label.POSITIVE] == labels[Label.NEGATIVE] == 50

    def test_lengths_in_range(self):
        _, corpus = self.run(lengths=(3, 4))
        assert all(3 <= len(i.tokens) <= 4 for i in corpus.instances)

    def test_no_tie_sentences(self):
        lexicon, corpus = self.run()
        for inst in corpus.instances:
            assert truth_score(inst.tokens, lexicon, Semantics.LITERAL) != 0.0

    def test_odd_count_rejected(self):
        lexicon = planted()
        with pytest.raises(ValueError):
            generate_synthetic_corpus(lexicon, 5, (2, 4), Semantics.LITERAL, random.Random(0))

    def test_budget_exhaustion(self):
        # all-neutral vocabulary can never produce a non-tie sentence
        lexicon = PlantedLexicon({"z": S(0.0)}, frozenset())
        with pytest.raises(GenerationError):
            generate_synthetic_corpus(lexicon, 4, (1, 2), Semantics.LITERAL, random.Random(0))

    def test_deterministic(self):
        _, c1 = self.run(seed=9)
        _, c2 = self.run(seed=9)
        assert c1.instances == c2.instances


@st.composite
def planted_lexicons(draw):
    """Planted sentiment and amplifier words, some zero-valued and some not
    multiples of one half, and up to three fillers."""
    values = st.sampled_from([-1.5, -1.0, -0.3, 0.0, 0.25, 0.5, 0.7, 1.0, 2.0])
    words = draw(st.lists(st.sampled_from("abcdef"), unique=True, min_size=1, max_size=6))
    entries = {
        f"p{w}": ClassificationValuePair(draw(st.sampled_from(list(Kind))), draw(values))
        for w in words
    }
    fillers = draw(st.lists(st.sampled_from(["f0", "f1", "f2"]), unique=True, max_size=3))
    return PlantedLexicon(entries, frozenset(fillers))


class TestSyntheticOracle:
    @pytest.mark.parametrize("slice_cells", [1, 7, SLICE_CELLS])
    @settings(max_examples=150, deadline=None)
    @given(
        lexicon=planted_lexicons(),
        half=st.integers(min_value=1, max_value=20),
        lengths=st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=2),
        semantics=st.sampled_from(list(Semantics)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_blocks_match_one_candidate_at_a_time(
        self, slice_cells, lexicon, half, lengths, semantics, seed
    ):
        """Blocks cut by cells (1 or 7 cells), by the open slots or by the
        draw budget give the same instances, the same GenerationError and
        the same rng state as the one-candidate reference."""
        outcomes = []
        for generate in (generate_synthetic_corpus, reference_synthetic_corpus):
            rng = random.Random(seed)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(evosent.experiments, "SLICE_CELLS", slice_cells)
                try:
                    corpus = generate(lexicon, 2 * half, tuple(sorted(lengths)), semantics, rng)
                    instances = corpus.instances
                except GenerationError:
                    instances = GenerationError
            outcomes.append((instances, rng.getstate()))
        assert outcomes[0] == outcomes[1]


class TestFrequencyFilter:
    def test_threshold_zero_still_requires_presence(self):
        corpus = make_corpus([(["good", "good", "meh"], "positive")])
        sd = Dictionary({"good": S(1.0), "absent": S(-1.0)}, Kind.SENTIMENT)
        assert _filtered_dictionary_words(corpus, sd, 0) == ["good"]

    def test_threshold_cuts_rare_words(self):
        corpus = make_corpus([(["good", "good", "bad"], "positive")])
        sd = Dictionary({"good": S(1.0), "bad": S(-1.0)}, Kind.SENTIMENT)
        assert _filtered_dictionary_words(corpus, sd, 2) == ["good"]
        assert _filtered_dictionary_words(corpus, sd, 1) == ["bad", "good"]


def training_setup(seed=0, n=200):
    """Synthetic corpus whose planted words double as the sentiment dictionary."""
    rnd = random.Random(seed)
    lexicon = random_planted_lexicon(10, 3, rnd)
    corpus = generate_synthetic_corpus(lexicon, n, (3, 7), Semantics.LITERAL, rnd)
    sd = Dictionary(dict(lexicon.entries), Kind.SENTIMENT)
    return lexicon, corpus, sd, seed_amplifier_dictionary()


word_protocols = pytest.mark.parametrize(
    "protocol", [Protocol.SENT_VS_AMP, Protocol.POLARITY_VALUE], ids=lambda p: p.value
)


class TestWordCV:
    @word_protocols
    def test_report_shape(self, protocol):
        _, corpus, sd, ad = training_setup()
        report = run_word_cv(protocol, corpus, sd, ad, 0, 5, SMALL)
        assert report.protocol is protocol
        assert len(report.fold_accuracies) == 5
        assert sum(report.fold_word_counts) == report.words_considered == 10
        assert report.mean_accuracy == pytest.approx(
            sum(report.fold_accuracies) / 5
        )
        assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)

    def test_sent_vs_amp_learns_planted_words(self):
        _, corpus, sd, ad = training_setup()
        report = run_word_cv(Protocol.SENT_VS_AMP, corpus, sd, ad, 0, 5, SMALL)
        # planted sentiment words should mostly be rediscovered as sentiment
        assert report.mean_accuracy >= 0.6

    def test_polarity_value_stricter_than_kind(self):
        _, corpus, sd, ad = training_setup()
        kind_report = run_word_cv(Protocol.SENT_VS_AMP, corpus, sd, ad, 0, 5, SMALL)
        polarity_report = run_word_cv(Protocol.POLARITY_VALUE, corpus, sd, ad, 0, 5, SMALL)
        assert polarity_report.mean_accuracy <= kind_report.mean_accuracy

    def test_no_words_pass_threshold(self):
        corpus = make_corpus([(["x"], "positive"), (["y"], "negative")])
        sd = Dictionary({"good": S(1.0)}, Kind.SENTIMENT)
        with pytest.raises(SplitError, match="threshold"):
            run_word_cv(
                Protocol.SENT_VS_AMP, corpus, sd, seed_amplifier_dictionary(), 0, 2, SMALL
            )

    def test_fewer_words_than_folds(self):
        _, corpus, sd, ad = training_setup()
        with pytest.raises(SplitError, match="10 dictionary words .* into 11 folds"):
            run_word_cv(Protocol.POLARITY_VALUE, corpus, sd, ad, 0, 11, SMALL)

    @pytest.mark.parametrize(
        "protocol", [Protocol.HOLDOUT_ACCURACY, Protocol.GASA_VS_CAGASA], ids=lambda p: p.value
    )
    def test_rejects_other_protocols(self, protocol):
        _, corpus, sd, ad = training_setup()
        with pytest.raises(ValueError, match="not a word-CV protocol"):
            run_word_cv(protocol, corpus, sd, ad, 0, 5, SMALL)

    @word_protocols
    def test_deterministic(self, protocol):
        _, corpus, sd, ad = training_setup()
        r1 = run_word_cv(protocol, corpus, sd, ad, 0, 5, SMALL)
        r2 = run_word_cv(protocol, corpus, sd, ad, 0, 5, SMALL)
        assert r1 == r2


class TestHoldout:
    def test_report_contents(self):
        _, corpus, _, ad = training_setup()
        sd = Dictionary({}, Kind.SENTIMENT)
        report = run_holdout_accuracy(corpus, sd, ad, SMALL)
        assert report.protocol is Protocol.HOLDOUT_ACCURACY
        assert report.extras["train_instances"] == 140.0
        assert report.extras["test_instances"] == 60.0
        confusion = sum(
            report.extras[k]
            for k in (
                "true_positive",
                "true_negative",
                "false_positive",
                "false_negative",
                "ties",
            )
        )
        assert confusion == 60.0
        assert report.mean_accuracy == pytest.approx(
            (report.extras["true_positive"] + report.extras["true_negative"]) / 60.0
        )

    def test_learns_better_than_chance(self):
        _, corpus, _, ad = training_setup()
        sd = Dictionary({}, Kind.SENTIMENT)
        report = run_holdout_accuracy(corpus, sd, ad, SMALL)
        assert report.mean_accuracy > 0.55


class TestInstanceCV:
    @pytest.mark.parametrize("algo", list(Algo))
    def test_runs_both_algorithms(self, algo):
        _, corpus, _, ad = training_setup(n=60)
        sd = Dictionary({}, Kind.SENTIMENT)
        config = GAConfig(population_size=20, tournament_size=3, max_generations=10, seed=2)
        report = run_instance_cv(corpus, sd, ad, 3, config, algo=algo)
        assert report.protocol is Protocol.GASA_VS_CAGASA
        assert len(report.fold_accuracies) == 3
        assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)


class TestReportSerialization:
    def make_report(self):
        return ExperimentReport(
            protocol=Protocol.SENT_VS_AMP,
            fold_accuracies=(0.5, 0.75),
            mean_accuracy=0.625,
            config=GAConfig(seed=4),
            semantics=Semantics.PROSE,
            freq_threshold=20,
            words_considered=8,
            fold_word_counts=(4, 4),
            extras={"ties": 3.0},
        )

    def test_records(self):
        records = dict(report_records(self.make_report()))
        assert records["protocol"] == "sent-vs-amp"
        assert records["semantics"] == "prose"
        assert records["freq_threshold"] == "20"
        assert records["fold_1_accuracy"] == "0.750000"
        assert records["mean_accuracy"] == "0.625000"
        assert records["ties"] == "3.000000"

    def test_write(self, tmp_path):
        path = tmp_path / "report.tsv"
        write_report(self.make_report(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "protocol\tsent-vs-amp"
        assert all(line.count("\t") == 1 for line in lines)

    def test_format_aligned(self):
        text = format_report(self.make_report())
        lines = text.splitlines()
        assert len({line.index("  ") for line in lines if "  " in line}) >= 1
        assert any(line.startswith("mean_accuracy") for line in lines)
