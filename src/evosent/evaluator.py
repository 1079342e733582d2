"""Arithmetic sentence scoring: sentiment words accumulate, amplifiers scale.
The library's one scorer is the kernel `gasa.accumulate`.

Two semantics modes are provided because the accumulation rule admits two
readings that differ in when the amplifier accumulator is consumed:

* LITERAL: the amplifier accumulator is never reset; after the loop it is
  added to the score whenever it is nonzero.
* PROSE: the accumulator resets to zero once it has been applied to a
  sentiment word, and the trailing addition happens only when the final
  token is an amplifier.

Gene values are multiples of one half, and sums and products of such values
are exact in double precision. Dictionaries accept any finite value, and
then the arithmetic rounds. The kernel still gives the same scores as the
straight-line reference, `reference_sentence_score` in `tests/oracles.py`,
because it performs the same operations in the same order; the padding it
adds contributes only exact zeros.
"""

from __future__ import annotations

import enum
from typing import Dict, Union

from .corpus import UnknownWordIndex
from .lexicon import ClassificationValuePair, Dictionary, lookup

# word -> its dictionary pair, or the position of its gene in a genome.
SlotTable = Dict[str, Union[ClassificationValuePair, int]]


class Semantics(enum.Enum):
    LITERAL = "literal"
    PROSE = "prose"


class Verdict(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    TIE = "tie"


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


def classify_score(score: float) -> Verdict:
    if score > 0.0:
        return Verdict.POSITIVE
    if score < 0.0:
        return Verdict.NEGATIVE
    return Verdict.TIE
