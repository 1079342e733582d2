import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosent.corpus import Label, UnknownWordIndex
from evosent.evaluator import Semantics, Verdict, classify_score, slot_table
from evosent.gasa import scores
from evosent.lexicon import EVOLVABLE_PAIRS, ClassificationValuePair, Dictionary, Kind, lookup

from conftest import A, S, compiled_lines
from oracles import reference_sentence_score

pairs_strategy = st.lists(st.sampled_from(EVOLVABLE_PAIRS), max_size=12)
# Pairs of any kind and any finite value, the edge cases drawn often: zeros of
# either sign (an amplifier 0 or a neutral sentiment word), a negative
# amplifier, and values whose sums and products overflow past 1e308.
edge_values = st.sampled_from([0.0, -0.0, -1.0, 1e308, -1e308, 1.7e308])
any_pairs = st.lists(
    st.builds(
        ClassificationValuePair,
        st.sampled_from(Kind),
        edge_values | st.floats(allow_nan=False, allow_infinity=False),
    ),
    max_size=12,
)
modes = pytest.mark.parametrize("semantics", list(Semantics))


def kernel_score(pairs, semantics=Semantics.LITERAL) -> float:
    """The score the kernel gives a sentence of `pairs`: token k is the word
    wk, which a slot table with no genes maps to pair k."""
    table = {f"w{k}": pair for k, pair in enumerate(pairs)}
    compiled = compiled_lines([list(table)], table)
    return scores(compiled, np.zeros((0, 1), np.int8), semantics)[0, 0]


def verdict_matches(verdict: Verdict, label: Label) -> bool:
    """A tie never matches: the model failed to commit to a polarity."""
    return verdict.value == label.value


class TestLiteralSemantics:
    def test_single_sentiment_word(self):
        assert kernel_score([S(1.0)]) == 1.0

    def test_negation(self):
        assert kernel_score([A(-1.0), S(1.0)]) == -2.0

    def test_amplified_with_trailing_accumulator(self):
        assert kernel_score([A(1.5), S(1.0), S(0.0)]) == 3.0

    def test_empty(self):
        assert kernel_score([]) == 0.0

    def test_accumulator_never_resets(self):
        # both sentiment words see the same multiplier; it is also added at the end
        assert kernel_score([A(0.5), S(1.0), S(1.0)]) == 0.5 + 0.5 + 0.5


class TestProseSemantics:
    def test_trailing_amplifier(self):
        assert kernel_score([S(1.0), A(-1.0)], Semantics.PROSE) == 0.0

    def test_accumulator_resets_after_use(self):
        assert kernel_score([A(0.5), S(1.0), S(1.0)], Semantics.PROSE) == 0.5 + 1.0

    def test_no_trailing_add_after_sentiment_final(self):
        assert kernel_score([A(-1.0), S(1.0)], Semantics.PROSE) == -1.0


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
        assert kernel_score(pairs, semantics) == reference_sentence_score(
            pairs, semantics is Semantics.PROSE
        )

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @modes
    @settings(max_examples=500, deadline=None)
    @given(pairs=any_pairs)
    def test_matches_reference_for_any_values(self, pairs, semantics):
        got = kernel_score(pairs, semantics)
        want = reference_sentence_score(pairs, semantics is Semantics.PROSE)
        assert got == want or math.isnan(got) and math.isnan(want)

    @modes
    @given(pairs=pairs_strategy)
    def test_pure(self, pairs, semantics):
        assert kernel_score(pairs, semantics) == kernel_score(pairs, semantics)

    @modes
    @given(values=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=10))
    def test_amplifier_free_is_plain_sum(self, values, semantics):
        assert kernel_score([S(v) for v in values], semantics) == sum(values)

    @modes
    @given(values=st.lists(st.sampled_from([0.5, 1.0, 1.5]), max_size=10))
    def test_sentiment_free_is_amplifier_sum(self, values, semantics):
        assert kernel_score([A(v) for v in values], semantics) == sum(values)

    @given(values=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), max_size=10))
    def test_sign_flip_symmetry(self, values):
        score = kernel_score([S(v) for v in values])
        assert kernel_score([S(-v) for v in values]) == -score


class TestExhaustiveShortSentences:
    @modes
    def test_all_length_le_3(self, semantics):
        for length in range(4):
            for pairs in itertools.product(EVOLVABLE_PAIRS, repeat=length):
                got = kernel_score(list(pairs), semantics)
                want = reference_sentence_score(list(pairs), semantics is Semantics.PROSE)
                assert got == want, pairs


# Dictionary words, gene words and out-of-vocabulary words share one vocabulary
# so that the strategies below can mix them in one table.
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


class TestSlotTable:
    @given(dicts=dictionaries(), gene_words=st.lists(words, unique=True, max_size=6))
    def test_dictionary_words_resolve_through_lookup(self, dicts, gene_words):
        sd, ad = dicts
        index = UnknownWordIndex(tuple(gene_words), {w: i for i, w in enumerate(gene_words)})
        table = slot_table(index, sd, ad)
        known = set(sd.entries) | set(ad.entries)
        for word in known:
            assert table[word] == lookup(word, sd, ad)
        for word in set(gene_words) - known:
            assert table[word] == index.position_of[word]
        assert set(table) == known | set(gene_words)
