"""Tokenization, labeled-corpus ingestion, unknown-word discovery and splits."""

from __future__ import annotations

import enum
import logging
import os
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from .lexicon import Dictionary, text_lines

logger = logging.getLogger(__name__)


class Label(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class Instance:
    tokens: tuple
    label: Label


@dataclass(frozen=True)
class Corpus:
    instances: tuple

    def __len__(self) -> int:
        return len(self.instances)


@dataclass(frozen=True)
class UnknownWordIndex:
    """Frozen first-occurrence ordering of the corpus words absent from both
    dictionaries; gene i of every chromosome corresponds to words[i]."""

    words: tuple
    position_of: dict

    def __len__(self) -> int:
        return len(self.words)


class CorpusParseError(ValueError):
    """A corpus file line could not be parsed."""


class SplitError(ValueError):
    """A corpus cannot be split as asked: a holdout split misses a label or
    leaves a side empty, or too few dictionary words pass for the folds."""


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
# The characters `tokenize_lines` joins before it lowercases and translates
# them at once; one call per line costs more than the work it does.
TOKENIZE_BLOCK_CHARS = 1 << 16


def tokenize(text: str) -> list:
    return text.lower().translate(_SEPARATORS).split()


def tokenize_lines(texts: Iterable[str]) -> Iterator[list]:
    """`tokenize` of each text, in order, read in blocks of at least
    TOKENIZE_BLOCK_CHARS characters."""
    block, chars = [], 0
    for text in texts:
        block.append(text)
        chars += len(text)
        if chars >= TOKENIZE_BLOCK_CHARS:
            yield from _tokenize_block(block)
            block, chars = [], 0
    yield from _tokenize_block(block)


def _tokenize_block(texts: list) -> Iterator[list]:
    joined = "\n".join(texts)
    # `str.lower` and `str.translate` are fast on ASCII strings only, so a
    # block that holds another character is tokenized text by text, as is
    # one whose texts hold "\n"
    rows = joined.lower().translate(_SEPARATORS).split("\n") if joined.isascii() else ()
    return map(str.split, rows) if len(rows) == len(texts) else map(tokenize, texts)


def load_corpus(source: Union[str, Path]) -> Corpus:
    """Load a `label<TAB>text` file; instances that tokenize to nothing are
    skipped with a warning. The file is read and tokenized as a stream."""
    labels = []

    def texts():
        for lineno, line in enumerate(text_lines(source), start=1):
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise CorpusParseError(f"line {lineno}: expected `label<TAB>text`")
            label_text, text = parts
            try:
                labels.append(Label(label_text.strip().lower()))
            except ValueError:
                raise CorpusParseError(f"line {lineno}: unknown label {label_text!r}") from None
            yield text

    tokens = tokenize_lines(texts())
    instances = [Instance(tuple(t), labels[i]) for i, t in enumerate(tokens) if t]
    skipped = len(labels) - len(instances)
    if skipped:
        name = os.path.basename(source)
        logger.warning("%s: skipped %d instance(s) with no tokens", name, skipped)
    return Corpus(tuple(instances))


def save_corpus(corpus: Corpus, sink: Union[str, Path]) -> None:
    with open(sink, "w", encoding="utf-8") as fh:
        for inst in corpus.instances:
            fh.write(f"{inst.label.value}\t{' '.join(inst.tokens)}\n")


def concat_corpora(corpora: Sequence[Corpus]) -> Corpus:
    instances = []
    for corpus in corpora:
        instances.extend(corpus.instances)
    return Corpus(tuple(instances))


def build_unknown_index(
    corpus: Corpus, sentiment_dict: Dictionary, amplifier_dict: Dictionary
) -> UnknownWordIndex:
    """Collect corpus words in neither dictionary, in first-occurrence order."""
    words = []
    position_of = {}
    for inst in corpus.instances:
        for word in inst.tokens:
            if word in position_of or word in sentiment_dict or word in amplifier_dict:
                continue
            position_of[word] = len(words)
            words.append(word)
    return UnknownWordIndex(tuple(words), position_of)


def word_frequencies(corpus: Corpus) -> Counter:
    """Token occurrence counts across all instances."""
    counts = Counter()
    for inst in corpus.instances:
        counts.update(inst.tokens)
    return counts


def make_folds(items: Sequence, k: int, seed: int) -> list:
    """Shuffle and partition into k folds whose sizes differ by at most one."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if len(items) < k:
        raise ValueError(f"cannot split {len(items)} items into {k} folds")
    rng = random.Random(seed)
    shuffled = list(items)
    rng.shuffle(shuffled)
    return [shuffled[i::k] for i in range(k)]


def split_holdout(corpus: Corpus, train_fraction: float, seed: int) -> tuple:
    """Label-stratified holdout split; classes are shuffled and split
    independently, then interleaved."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    by_label = {Label.POSITIVE: [], Label.NEGATIVE: []}
    for inst in corpus.instances:
        by_label[inst.label].append(inst)
    for label, group in by_label.items():
        if not group:
            raise SplitError(f"corpus has no {label.value} instances")
    rng = random.Random(seed)
    train_parts, test_parts = [], []
    for label in (Label.POSITIVE, Label.NEGATIVE):
        group = list(by_label[label])
        rng.shuffle(group)
        n_train = int(len(group) * train_fraction + 0.5)
        train_parts.append(group[:n_train])
        test_parts.append(group[n_train:])
    return (
        Corpus(tuple(_interleave(train_parts))),
        Corpus(tuple(_interleave(test_parts))),
    )


def _interleave(groups) -> list:
    out = []
    longest = max(len(g) for g in groups)
    for i in range(longest):
        for group in groups:
            if i < len(group):
                out.append(group[i])
    return out
