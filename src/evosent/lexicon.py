"""Classification-value pairs and the seed word dictionaries.

Every word in the model carries a classification-value pair: it is either a
*sentiment* word (adds its value to the sentence score) or an *amplifier*
word (scales the sentiment words that follow it). Known words live in two
immutable dictionaries; everything else is learned by evolution.
"""

from __future__ import annotations

import enum
import math
import os
import re
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Tuple, Union


class Kind(enum.Enum):
    SENTIMENT = "sentiment"
    AMPLIFIER = "amplifier"


# Value sets an evolved gene may take. Dictionary seeds are allowed to carry
# values outside these sets (the negator seeds use amplifier value -1.0).
SENTIMENT_VALUES = (-1.0, 0.0, 1.0)
AMPLIFIER_VALUES = (0.5, 1.0, 1.5)


@dataclass(frozen=True)
class ClassificationValuePair:
    kind: Kind
    value: float

    def is_evolvable(self) -> bool:
        """True when the value is in the gene value set for this kind."""
        allowed = SENTIMENT_VALUES if self.kind is Kind.SENTIMENT else AMPLIFIER_VALUES
        return self.value in allowed


NEUTRAL_PAIR = ClassificationValuePair(Kind.SENTIMENT, 0.0)

# All six gene payloads an evolved chromosome can hold.
EVOLVABLE_PAIRS = tuple(
    [ClassificationValuePair(Kind.SENTIMENT, v) for v in SENTIMENT_VALUES]
    + [ClassificationValuePair(Kind.AMPLIFIER, v) for v in AMPLIFIER_VALUES]
)


# A token is a maximal run of letters, digits or apostrophes; everything
# else (including underscore) splits. No stop-word filtering.
_TOKEN_CHAR = re.compile(r"[^\W_]|'")


class _Separators(dict):
    """The `str.translate` table behind tokenizing: it keeps token characters
    and "\n" and turns every other code point into a space. It remembers the
    code points below 0x10000 it has mapped, at most 0x10000 entries (about
    5 MB), and maps a higher one again each time it is seen."""

    def __missing__(self, code: int) -> int:
        kept = code if code == 10 or _TOKEN_CHAR.match(chr(code)) else 32
        if code < 0x10000:
            self[code] = kept
        return kept


_SEPARATORS = _Separators()


def translate(text: str) -> str:
    """`text` lowercased, with token characters and "\n" kept and all else a space."""
    return text.lower().translate(_SEPARATORS)


def tokenize(text: str) -> list:
    return translate(text).split()


class LexiconParseError(ValueError):
    """A lexicon or word-list file could not be parsed."""


class ConflictingWordError(ValueError):
    """A word was assigned two incompatible classifications."""


class TextDecodeError(ValueError):
    """An input text file is not UTF-8."""


@dataclass(frozen=True)
class Dictionary:
    """Immutable word -> classification-value table of a single kind."""

    entries: dict
    kind: Kind

    def __post_init__(self):
        for word, pair in self.entries.items():
            if pair.kind is not self.kind:
                raise ConflictingWordError(
                    f"entry {word!r} has kind {pair.kind.value}, "
                    f"dictionary requires {self.kind.value}"
                )

    def get(self, word: str) -> Optional[ClassificationValuePair]:
        return self.entries.get(word)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def without(self, words: Iterable[str]) -> "Dictionary":
        """Copy with the given words removed (used to hide held-out words)."""
        drop = set(words)
        return Dictionary(
            {w: p for w, p in self.entries.items() if w not in drop}, self.kind
        )


def empty_sentiment_dictionary() -> Dictionary:
    return Dictionary({}, Kind.SENTIMENT)


def seed_amplifier_dictionary() -> Dictionary:
    """The default amplifier dictionary: the negators 'not' and 'never'."""
    negate = ClassificationValuePair(Kind.AMPLIFIER, -1.0)
    return Dictionary({"not": negate, "never": negate}, Kind.AMPLIFIER)


# Characters `text_lines` reads at a time.
TEXT_CHUNK_CHARS = 1 << 16


def text_lines(source: Union[str, Path, TextIO]) -> Iterator[str]:
    """The lines of a UTF-8 text file, less a leading byte-order mark, or of
    an open text stream, without their newlines, read TEXT_CHUNK_CHARS
    characters at a time. A file's lines end at LF only, less one CR just
    before it. Text that is not UTF-8 raises TextDecodeError, naming the file."""
    path = isinstance(source, (str, os.PathLike))
    with open(source, encoding="utf-8-sig", newline="\n") if path else nullcontext(source) as fh:
        try:
            head, tail = [], ""  # the open line's pieces, and its CR that an LF may end
            while chunk := fh.read(TEXT_CHUNK_CHARS):
                lines = (tail + chunk).replace("\r\n", "\n").split("\n")
                tail = lines.pop()
                if lines:
                    lines[0] = "".join(head) + lines[0]
                    head = []
                    yield from lines
                cut = len(tail) - tail.endswith("\r")
                head.append(tail[:cut])
                tail = tail[cut:]
        except UnicodeDecodeError as exc:
            raise TextDecodeError(f"{source}: {exc}") from None
        if last := "".join(head) + tail:
            yield last


def record_lines(source: Union[str, Path, TextIO]) -> Iterator[Tuple[str, str]]:
    """(place, stripped line) for each line of `text_lines` that is neither
    blank nor a # comment; the place, for errors, is "FILE: line N", or
    "line N" for a stream without a name."""
    name = source if isinstance(source, (str, os.PathLike)) else getattr(source, "name", None)
    prefix = "" if name is None else f"{name}: "
    for lineno, line in enumerate(text_lines(source), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield f"{prefix}line {lineno}", line


def _single_word(place: str, text: str) -> str:
    """`text` lowercased, or LexiconParseError naming the place unless it
    tokenizes to itself: any other word matches no token of any text."""
    word = text.lower()
    if tokenize(word) != [word]:
        raise LexiconParseError(f"{place}: expected a single word, got {text!r}")
    return word


def load_polarity_lists(positive_source, negative_source) -> Dictionary:
    """Build a sentiment dictionary from two one-word-per-line polarity files."""
    entries = {}
    for source, value in ((positive_source, 1.0), (negative_source, -1.0)):
        pair = ClassificationValuePair(Kind.SENTIMENT, value)
        for place, line in record_lines(source):
            word = _single_word(place, line)
            existing = entries.get(word)
            if existing is not None and existing.value != value:
                raise ConflictingWordError(f"{place}: word {word!r} appears in both polarity lists")
            entries[word] = pair
    return Dictionary(entries, Kind.SENTIMENT)


def parse_pair(kind_text: str, value_text: str) -> ClassificationValuePair:
    """Inverse of `format_pair`; raises ValueError on an unknown kind or a
    value that is not a finite float."""
    try:
        kind = Kind(kind_text)
    except ValueError:
        raise ValueError(f"unknown kind {kind_text!r}") from None
    try:
        value = float(value_text)
    except ValueError:
        raise ValueError(f"bad value {value_text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {value_text!r}")
    return ClassificationValuePair(kind, value)


def parse_lexicon(source, kind: Optional[Kind] = None) -> dict:
    """Parse `word<TAB>kind<TAB>value` records into a word -> pair mapping,
    each record of `kind` if one is given. Errors name the file and line."""
    entries = {}
    for place, line in record_lines(source):
        fields = line.split("\t")
        if len(fields) != 3:
            raise LexiconParseError(f"{place}: expected 3 tab-separated fields")
        word = _single_word(place, fields[0])
        try:
            pair = parse_pair(fields[1], fields[2])
        except ValueError as exc:
            raise LexiconParseError(f"{place}: {exc}") from None
        if kind is not None and pair.kind is not kind:
            kinds = f"has kind {pair.kind.value}, dictionary requires {kind.value}"
            raise ConflictingWordError(f"{place}: entry {word!r} {kinds}")
        if word in entries and entries[word] != pair:
            raise ConflictingWordError(f"{place}: word {word!r} listed twice with different pairs")
        entries[word] = pair
    return entries


def load_labeled_dictionary(source, kind: Kind) -> Dictionary:
    """Load a single-file lexicon, requiring every record to be of `kind`."""
    return Dictionary(parse_lexicon(source, kind), kind)


def lookup(
    word: str, sentiment_dict: Dictionary, amplifier_dict: Dictionary
) -> Optional[ClassificationValuePair]:
    """Resolve a word through the dictionaries, sentiment first."""
    pair = sentiment_dict.get(word)
    if pair is not None:
        return pair
    return amplifier_dict.get(word)


def check_disjoint(sentiment_dict: Dictionary, amplifier_dict: Dictionary) -> None:
    """Reject words present in both dictionaries (resolution would be ambiguous)."""
    overlap = set(sentiment_dict.entries) & set(amplifier_dict.entries)
    if overlap:
        word = sorted(overlap)[0]
        raise ConflictingWordError(f"word {word!r} appears in both dictionaries")


def format_pair(pair: ClassificationValuePair) -> str:
    """`kind<TAB>value`, the value as its shortest round-trip repr."""
    return f"{pair.kind.value}\t{float(pair.value)!r}"


def export_lexicon(
    words: Sequence[str],
    pairs: Sequence[ClassificationValuePair],
    sink: Union[str, Path, TextIO],
) -> None:
    """Write `word<TAB>kind<TAB>value` records, one per word, in gene order."""
    if len(words) != len(pairs):
        raise ValueError(
            f"length mismatch: {len(words)} words vs {len(pairs)} pairs"
        )
    path = isinstance(sink, (str, os.PathLike))
    with open(sink, "w", encoding="utf-8") if path else nullcontext(sink) as fh:
        for word, pair in zip(words, pairs):
            fh.write(f"{word}\t{format_pair(pair)}\n")
