import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosent.cagasa import MAX_CONTEXT, CagasaChromosome, CagasaGene, ContextRule
from evosent.corpus import Label, UnknownWordIndex
from evosent.evaluator import (
    Semantics,
    Verdict,
    classify_score,
    evaluate_pairs,
    evaluate_sentence,
    slot_table,
)
from evosent.lexicon import EVOLVABLE_PAIRS, Dictionary, Kind, lookup

from conftest import A, S, trained_model
from oracles import cagasa_verdict, gasa_chromosome, gasa_verdict, reference_sentence_score

pairs_strategy = st.lists(st.sampled_from(EVOLVABLE_PAIRS), max_size=12)
modes = pytest.mark.parametrize("semantics", list(Semantics))


def verdict_matches(verdict: Verdict, label: Label) -> bool:
    """A tie never matches: the model failed to commit to a polarity."""
    return verdict.value == label.value


class TestLiteralSemantics:
    def test_single_sentiment_word(self):
        assert evaluate_pairs([S(1.0)]) == 1.0

    def test_negation(self):
        assert evaluate_pairs([A(-1.0), S(1.0)]) == -2.0

    def test_amplified_with_trailing_accumulator(self):
        assert evaluate_pairs([A(1.5), S(1.0), S(0.0)]) == 3.0

    def test_empty(self):
        assert evaluate_pairs([]) == 0.0

    def test_accumulator_never_resets(self):
        # both sentiment words see the same multiplier; it is also added at the end
        assert evaluate_pairs([A(0.5), S(1.0), S(1.0)]) == 0.5 + 0.5 + 0.5


class TestProseSemantics:
    def test_trailing_amplifier(self):
        assert evaluate_pairs([S(1.0), A(-1.0)], Semantics.PROSE) == 0.0

    def test_accumulator_resets_after_use(self):
        assert evaluate_pairs([A(0.5), S(1.0), S(1.0)], Semantics.PROSE) == 0.5 + 1.0

    def test_no_trailing_add_after_sentiment_final(self):
        assert evaluate_pairs([A(-1.0), S(1.0)], Semantics.PROSE) == -1.0


class TestResolution:
    def test_evaluate_sentence_resolves_tokens(self):
        table = {"not": A(-1.0), "good": S(1.0)}
        assert evaluate_sentence(["not", "good"], table.__getitem__) == -2.0


class TestClassifyScore:
    @pytest.mark.parametrize(
        "score,expected",
        [(3.0, Verdict.POSITIVE), (-2.0, Verdict.NEGATIVE), (0.0, Verdict.TIE)],
    )
    def test_rule(self, score, expected):
        assert classify_score(score) is expected

    def test_tie_matches_no_label(self):
        assert not verdict_matches(Verdict.TIE, Label.POSITIVE)
        assert not verdict_matches(Verdict.TIE, Label.NEGATIVE)

    def test_match(self):
        assert verdict_matches(Verdict.POSITIVE, Label.POSITIVE)
        assert not verdict_matches(Verdict.POSITIVE, Label.NEGATIVE)


class TestProperties:
    @modes
    @given(pairs=pairs_strategy)
    def test_matches_reference(self, pairs, semantics):
        assert evaluate_pairs(pairs, semantics) == reference_sentence_score(
            pairs, semantics is Semantics.PROSE
        )

    @modes
    @given(pairs=pairs_strategy)
    def test_pure(self, pairs, semantics):
        assert evaluate_pairs(pairs, semantics) == evaluate_pairs(pairs, semantics)

    @modes
    @given(values=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=10))
    def test_amplifier_free_is_plain_sum(self, values, semantics):
        assert evaluate_pairs([S(v) for v in values], semantics) == sum(values)

    @modes
    @given(values=st.lists(st.sampled_from([0.5, 1.0, 1.5]), max_size=10))
    def test_sentiment_free_is_amplifier_sum(self, values, semantics):
        assert evaluate_pairs([A(v) for v in values], semantics) == sum(values)

    @given(values=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=10))
    def test_sign_flip_symmetry(self, values):
        score = evaluate_pairs([S(v) for v in values])
        assert evaluate_pairs([S(-v) for v in values]) == -score


class TestExhaustiveShortSentences:
    @modes
    def test_all_length_le_3(self, semantics):
        for length in range(4):
            for pairs in itertools.product(EVOLVABLE_PAIRS, repeat=length):
                got = evaluate_pairs(list(pairs), semantics)
                want = reference_sentence_score(list(pairs), semantics is Semantics.PROSE)
                assert got == want, pairs


# Dictionary words, gene words and out-of-vocabulary words share one vocabulary
# so that the strategies below can mix them in one sentence and one table.
VOCABULARY = ["good", "bad", "not", "very", "g0", "g1", "g2", "g3", "oov0", "oov1"]
words = st.sampled_from(VOCABULARY)


@st.composite
def dictionaries(draw):
    """Sentiment and amplifier dictionaries over the shared vocabulary; they
    may overlap, as nothing but `check_disjoint` keeps them apart."""
    values = st.sampled_from([-1.5, -1.0, -0.25, 0.0, 0.5, 1.0, 1.25, 2.0])
    sentiment = draw(st.dictionaries(words, values.map(S), max_size=4))
    amplifier = draw(st.dictionaries(words, values.map(A), max_size=4))
    return Dictionary(sentiment, Kind.SENTIMENT), Dictionary(amplifier, Kind.AMPLIFIER)


def unknown_index(gene_words):
    return UnknownWordIndex(tuple(gene_words), {w: i for i, w in enumerate(gene_words)})


@st.composite
def context_genes(draw, word):
    next_size = draw(st.integers(0, MAX_CONTEXT))
    previous_size = draw(st.integers(0, MAX_CONTEXT))
    rule = ContextRule(
        next_size=next_size,
        previous_size=previous_size,
        list_next=frozenset(draw(st.lists(words, max_size=next_size))),
        list_previous=frozenset(draw(st.lists(words, max_size=previous_size))),
        number_ahead=draw(st.integers(0, MAX_CONTEXT)),
        number_behind=draw(st.integers(0, MAX_CONTEXT)),
        context_pair=draw(st.sampled_from(EVOLVABLE_PAIRS)),
    )
    return CagasaGene(word, rule, draw(st.sampled_from(EVOLVABLE_PAIRS)))


class TestSharedPredict:
    """Both algorithms' models against the per-token oracles."""

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        dicts=dictionaries(),
        gene_words=st.lists(words, unique=True, max_size=6),
        sentences=st.lists(st.lists(words, max_size=9), min_size=1, max_size=5),
        semantics=st.sampled_from(list(Semantics)),
    )
    def test_matches_oracle(self, data, dicts, gene_words, sentences, semantics):
        sd, ad = dicts
        index = unknown_index(gene_words)
        gasa = gasa_chromosome(data.draw(st.sampled_from(EVOLVABLE_PAIRS)) for _ in gene_words)
        cagasa = CagasaChromosome(tuple(data.draw(context_genes(w)) for w in gene_words))
        for chromosome, verdict in ((gasa, gasa_verdict), (cagasa, cagasa_verdict)):
            model = trained_model(chromosome, index, sd, ad, semantics)
            expected = [verdict(chromosome, t, index, sd, ad, semantics) for t in sentences]
            assert [v.value for v in model.predict_many(sentences)] == expected


class TestSlotTable:
    @given(dicts=dictionaries(), gene_words=st.lists(words, unique=True, max_size=6))
    def test_dictionary_words_resolve_through_lookup(self, dicts, gene_words):
        sd, ad = dicts
        index = unknown_index(gene_words)
        table = slot_table(index, sd, ad)
        known = set(sd.entries) | set(ad.entries)
        for word in known:
            assert table[word] == lookup(word, sd, ad)
        for word in set(gene_words) - known:
            assert table[word] == index.position_of[word]
        assert set(table) == known | set(gene_words)
