"""Tokenization, labeled-corpus ingestion, unknown-word discovery and splits."""

from __future__ import annotations

import enum
import logging
import os
import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, zip_longest
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Tuple, Union

import numpy as np

# `_Separators`, `_SEPARATORS` and `tokenize` are re-exported here.
from .lexicon import _SEPARATORS, Dictionary, _Separators, text_lines, tokenize, translate

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

    def flat_tokens(self) -> Tuple[list, list]:
        """(tokens, lengths), as `tokenize_block` gives them: the instances'
        tokens as one flat list, and each instance's number of tokens."""
        token_lists = [inst.tokens for inst in self.instances]
        return list(chain.from_iterable(token_lists)), list(map(len, token_lists))


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


# The characters `tokenize_lines` and `tokenize_block` join before they
# lowercase and translate them at once; one call per line costs more than the
# work it does.
TOKENIZE_BLOCK_CHARS = 1 << 16


def _translated(block: list) -> str:
    """The texts of `block` translated and joined by "\n"; a "\n" inside a
    text becomes a space, so line k holds the tokens of text k."""
    joined = "\n".join(block)
    # `str.lower` and `str.translate` are fast on ASCII strings only, so a
    # block that holds another character is translated text by text, as is
    # one whose texts hold "\n"
    if joined.isascii() and joined.count("\n") == len(block) - 1:
        return translate(joined)
    return "\n".join(translate(text).replace("\n", " ") for text in block)


def tokenize_lines(texts: Iterable[str]) -> Iterator[list]:
    """`tokenize` of each text, in order, read in blocks of at least
    TOKENIZE_BLOCK_CHARS characters."""
    block, chars = [], 0
    for text in texts:
        block.append(text)
        chars += len(text)
        if chars >= TOKENIZE_BLOCK_CHARS:
            yield from map(str.split, _translated(block).split("\n"))
            block, chars = [], 0
    if block:
        yield from map(str.split, _translated(block).split("\n"))


def tokenize_block(texts: Sequence[str]) -> Tuple[list, np.ndarray]:
    """(tokens, lengths): `tokenize` of each text, in order, as one flat list,
    and each text's number of tokens. Runs of about TOKENIZE_BLOCK_CHARS
    characters are translated at once, so long texts make no large temporaries."""
    tokens, lengths = [], [np.zeros(0, dtype=np.int64)]
    step = max(1, len(texts) * TOKENIZE_BLOCK_CHARS // max(1, sum(map(len, texts))))
    for start in range(0, len(texts), step):
        translated = _translated(texts[start : start + step])
        # a token starts at a byte above " " after one that is not (all UTF-8
        # bytes of a non-ASCII character are); its line counts the "\n" before it
        data = np.frombuffer(b"\n" + translated.encode(), dtype=np.uint8)
        inside = data > 32
        starts = np.flatnonzero(inside[1:] > inside[:-1])
        lines = np.searchsorted(np.flatnonzero(data == 10), starts, side="right") - 1
        lengths.append(np.bincount(lines, minlength=translated.count("\n") + 1))
        tokens += translated.split()
    return tokens, np.concatenate(lengths)


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
    return Corpus(tuple(chain.from_iterable(corpus.instances for corpus in corpora)))


def build_unknown_index(
    corpus: Corpus, sentiment_dict: Dictionary, amplifier_dict: Dictionary
) -> UnknownWordIndex:
    """Collect corpus words in neither dictionary, in first-occurrence order."""
    seen = dict.fromkeys(chain.from_iterable(inst.tokens for inst in corpus.instances))
    words = tuple(w for w in seen if w not in sentiment_dict and w not in amplifier_dict)
    return UnknownWordIndex(words, {word: k for k, word in enumerate(words)})


def word_frequencies(corpus: Corpus) -> Counter:
    """Token occurrence counts across all instances."""
    return Counter(chain.from_iterable(inst.tokens for inst in corpus.instances))


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
    """The first item of each group, in group order, then the second, and so on."""
    gap = object()
    return [item for row in zip_longest(*groups, fillvalue=gap) for item in row if item is not gap]
