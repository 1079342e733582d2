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
straight-line reference, `reference_sentence_score` in `tests/oracles.py`:
while its sums stay finite it makes the reference's sums and products in
the same order, and exact extras (an amplifier word adds ±0.0 to the
sentiment sum, the PROSE reset multiplies the accumulator by 0, the padding
adds zeros). A non-finite score has overflowed, and an amplifier word may
then have added NaN, so the kernel scores that row again with amplifier
words masked to add exactly 0, as the reference does.
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
