"""Arithmetic sentence scoring: sentiment words accumulate, amplifiers scale.

Two semantics modes are provided because the accumulation rule admits two
readings that differ in when the amplifier accumulator is consumed:

* LITERAL: the amplifier accumulator is never reset; after the loop it is
  added to the score whenever it is nonzero.
* PROSE: the accumulator resets to zero once it has been applied to a
  sentiment word, and the trailing addition happens only when the final
  token is an amplifier.

Gene values are multiples of one half, and sums and products of such values
are exact in double precision. Dictionaries accept any finite value, and
then the arithmetic rounds. The batched kernel (`gasa.labelled_correctly`)
still gives the same scores as `evaluate_pairs`, because it performs the
same operations in the same order; the padding it adds contributes only
exact zeros.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Sequence, Union

from .corpus import UnknownWordIndex
from .lexicon import NEUTRAL_PAIR, ClassificationValuePair, Dictionary, Kind, lookup

# word -> its dictionary pair, or the position of its gene in a genome.
SlotTable = Dict[str, Union[ClassificationValuePair, int]]


class Semantics(enum.Enum):
    LITERAL = "literal"
    PROSE = "prose"


class Verdict(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    TIE = "tie"


def evaluate_pairs(
    pairs: Sequence[ClassificationValuePair],
    semantics: Semantics = Semantics.LITERAL,
) -> float:
    """Score a sequence of already-resolved classification-value pairs."""
    sentiment = 0.0
    amplifier = 0.0
    for pair in pairs:
        if pair.kind is Kind.AMPLIFIER:
            amplifier += pair.value
        else:
            if amplifier != 0.0:
                sentiment += amplifier * pair.value
                if semantics is Semantics.PROSE:
                    amplifier = 0.0
            else:
                sentiment += pair.value
    if semantics is Semantics.LITERAL:
        if amplifier != 0.0:
            sentiment += amplifier
    elif pairs and pairs[-1].kind is Kind.AMPLIFIER:
        sentiment += amplifier
    return sentiment


def evaluate_sentence(
    tokens: Sequence[str],
    resolve: Callable[[str], ClassificationValuePair],
    semantics: Semantics = Semantics.LITERAL,
) -> float:
    """Resolve every token to its pair and score the sentence."""
    return evaluate_pairs([resolve(word) for word in tokens], semantics)


def slot_table(
    index: UnknownWordIndex, sentiment_dict: Dictionary, amplifier_dict: Dictionary
) -> SlotTable:
    """Resolve every dictionary and unknown word once: `lookup` decides, and
    a word it does not know reads its gene."""
    table = {}
    for word in (*index.words, *sentiment_dict.entries, *amplifier_dict.entries):
        pair = lookup(word, sentiment_dict, amplifier_dict)
        table[word] = index.position_of[word] if pair is None else pair
    return table


def resolve(genome, tokens: Sequence[str], table: SlotTable) -> list:
    """One pair per token: a gene slot is answered by `genome.pair_at`, and a
    word missing from the table is neutral."""
    pairs = []
    for position, word in enumerate(tokens):
        slot = table.get(word, NEUTRAL_PAIR)
        if isinstance(slot, int):
            slot = genome.pair_at(slot, tokens, position)
        pairs.append(slot)
    return pairs


def predict(
    genome, tokens: Sequence[str], table: SlotTable, semantics: Semantics
) -> Verdict:
    """The polarity a genome gives a token sequence."""
    return classify_score(evaluate_pairs(resolve(genome, tokens, table), semantics))


def classify_score(score: float) -> Verdict:
    if score > 0.0:
        return Verdict.POSITIVE
    if score < 0.0:
        return Verdict.NEGATIVE
    return Verdict.TIE
