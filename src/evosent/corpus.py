"""Tokenization, labeled-corpus ingestion, unknown-word discovery and splits.

A `Corpus` holds its sentences as word ids from the file to the scoring
kernel: `tokenize_block` is the one place that turns text into ids, and
`Corpus.instances` shows the sentences as token tuples.
"""

from __future__ import annotations

import enum
import logging
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import count, zip_longest
from pathlib import Path
from typing import Sequence, Tuple, Union

import numpy as np

from .lexicon import Dictionary, text_lines, tokenize, translate  # re-exports `tokenize`

logger = logging.getLogger(__name__)


class Label(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


# Whether a label is positive, by its text once stripped and lowercased.
_IS_POSITIVE = {label.value: label is Label.POSITIVE for label in Label}


@dataclass(frozen=True)
class Instance:
    tokens: tuple
    label: Label


@dataclass(frozen=True, eq=False)
class Corpus:
    """Labelled sentences as word ids: sentence k is the next lengths[k] of
    `ids`, each an index into `words`, and positive[k] tells its label. A
    word may be in `words` and in no sentence, as after `take`."""

    words: tuple  # each word once
    ids: np.ndarray  # (tokens,) int32
    lengths: np.ndarray  # (sentences,) int64
    positive: np.ndarray  # (sentences,) bool

    def __len__(self) -> int:
        return len(self.lengths)

    @cached_property
    def instances(self) -> tuple:
        """The sentences as `Instance`s, built on first use."""
        tokens = list(map(self.words.__getitem__, self.ids.tolist()))
        ends, labels = np.cumsum(self.lengths).tolist(), (Label.NEGATIVE, Label.POSITIVE)
        rows = zip(ends, self.lengths.tolist(), self.positive.tolist())
        return tuple(Instance(tuple(tokens[end - n : end]), labels[p]) for end, n, p in rows)

    def take(self, rows) -> Corpus:
        """The corpus of sentences `rows`, in that order, on the same `words`."""
        lengths = self.lengths[rows]
        ids = self.ids[token_cells((np.cumsum(self.lengths) - self.lengths)[rows], lengths)]
        return Corpus(self.words, ids, lengths, self.positive[rows])


def token_cells(firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices into a flat token array of the sentences whose tokens
    start at `firsts` and number `lengths`, sentence by sentence."""
    cells = np.repeat(firsts - np.cumsum(lengths) + lengths, lengths)
    cells += np.arange(len(cells))
    return cells


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


# The characters `tokenize_block` and `load_corpus` join before they lowercase
# and translate them at once; one call per line costs more than the work it does.
TOKENIZE_BLOCK_CHARS = 1 << 16


def tokenize_block(texts: Sequence[str], vocabulary: dict) -> Tuple[np.ndarray, np.ndarray]:
    """(ids, lengths): the ids in `vocabulary` of the tokens `tokenize` gives
    each text, as one flat int32 array, and each text's number of tokens. A
    word new to `vocabulary` must get the next id, as `defaultdict(count().__next__)`
    gives it. Runs of TOKENIZE_BLOCK_CHARS characters are translated at once."""
    ids, lengths = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int64)]
    step = max(1, len(texts) * TOKENIZE_BLOCK_CHARS // max(1, sum(map(len, texts))))
    for start in range(0, len(texts), step):
        block = texts[start : start + step]
        joined = "\n".join(block)
        # `str.lower` and `str.translate` are fast on ASCII strings only, so a
        # block that holds another character is translated text by text, as is
        # one whose texts hold "\n", which becomes a space: line k holds the
        # tokens of text k
        if joined.isascii() and joined.count("\n") == len(block) - 1:
            translated = translate(joined)
        else:
            translated = "\n".join(translate(text).replace("\n", " ") for text in block)
        # a token starts at a byte above " " after one that is not (all UTF-8
        # bytes of a non-ASCII character are); line k starts at the k-th "\n",
        # after the tokens of the lines before it
        data = np.frombuffer(b"\n" + translated.encode(), dtype=np.uint8)
        inside = data > 32
        starts = np.flatnonzero(inside[1:] > inside[:-1])
        firsts = np.searchsorted(starts, np.flatnonzero(data == 10))
        lengths.append(np.diff(firsts, append=len(starts)))
        tokens = translated.split()
        ids.append(np.fromiter(map(vocabulary.__getitem__, tokens), np.int32, len(tokens)))
    return np.concatenate(ids), np.concatenate(lengths)


def load_corpus(source: Union[str, Path]) -> Corpus:
    """Load a `label<TAB>text` file, tokenized in blocks of at most TOKENIZE_BLOCK_CHARS
    characters, or of one longer text; instances with no tokens are skipped with a warning.
    A label is a `Label` value up to surrounding whitespace and case; the first bad line
    raises CorpusParseError as "FILE: line N: ...", blank lines counted."""
    vocabulary, positive, parts, block, chars = defaultdict(count().__next__), [], [], [], 0
    for lineno, line in enumerate(text_lines(source), start=1):
        if not line:
            continue
        label_text, tab, text = line.partition("\t")
        if not tab:
            raise CorpusParseError(f"{source}: line {lineno}: expected `label<TAB>text`")
        try:
            positive.append(_IS_POSITIVE[label_text.strip().lower()])
        except KeyError:
            message = f"{source}: line {lineno}: unknown label {label_text!r}"
            raise CorpusParseError(message) from None
        if block and chars + len(text) > TOKENIZE_BLOCK_CHARS:  # one translate run per block
            parts.append(tokenize_block(block, vocabulary))
            block, chars = [], 0
        block.append(text)
        chars += len(text)
    parts.append(tokenize_block(block, vocabulary))
    ids, lengths = (np.concatenate(arrays) for arrays in zip(*parts))
    kept = lengths > 0
    if skipped := len(kept) - np.count_nonzero(kept):
        logger.warning("%s: skipped %d instance(s) with no tokens", Path(source).name, skipped)
    return Corpus(tuple(vocabulary), ids, lengths[kept], np.array(positive, dtype=bool)[kept])


def save_corpus(corpus: Corpus, sink: Union[str, Path]) -> None:
    with open(sink, "w", encoding="utf-8") as fh:
        for inst in corpus.instances:
            fh.write(f"{inst.label.value}\t{' '.join(inst.tokens)}\n")


def concat_corpora(corpora: Sequence[Corpus]) -> Corpus:
    """The sentences of `corpora`, in order, on their words, each once."""
    words = tuple(dict.fromkeys(word for corpus in corpora for word in corpus.words))
    id_of = dict(zip(words, count()))
    parts = [(np.array([id_of[w] for w in c.words], np.int32)[c.ids], c.lengths, c.positive)
             for c in corpora]
    return Corpus(words, *map(np.concatenate, zip(*parts)))


def build_unknown_index(
    corpus: Corpus, sentiment_dict: Dictionary, amplifier_dict: Dictionary
) -> UnknownWordIndex:
    """Collect corpus words in neither dictionary, in first-occurrence order."""
    first = np.full(len(corpus.words), len(corpus.ids))
    np.minimum.at(first, corpus.ids, np.arange(len(corpus.ids)))
    used = np.argsort(first, kind="stable")[: np.count_nonzero(first < len(corpus.ids))]
    seen = map(corpus.words.__getitem__, used.tolist())
    words = tuple(w for w in seen if w not in sentiment_dict and w not in amplifier_dict)
    return UnknownWordIndex(words, {word: k for k, word in enumerate(words)})


def word_frequencies(corpus: Corpus) -> Counter:
    """Token occurrence counts across all instances."""
    counts = np.bincount(corpus.ids, minlength=len(corpus.words)).tolist()
    return Counter({word: n for word, n in zip(corpus.words, counts) if n})


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
    rng, sides = random.Random(seed), ([], [])
    for label in (Label.POSITIVE, Label.NEGATIVE):
        group = np.flatnonzero(corpus.positive == (label is Label.POSITIVE)).tolist()
        if not group:
            raise SplitError(f"corpus has no {label.value} instances")
        rng.shuffle(group)
        n_train = int(len(group) * train_fraction + 0.5)
        sides[0].append(group[:n_train])
        sides[1].append(group[n_train:])
    return tuple(corpus.take(_interleave(parts)) for parts in sides)


def _interleave(groups) -> list:
    """The first item of each group, in group order, then the second, and so on."""
    return [item for row in zip_longest(*groups) for item in row if item is not None]
