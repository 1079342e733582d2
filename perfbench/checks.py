"""Output checks and behaviour fingerprints.

Labels are recomputed without the library's resolvers or scorers: each token
is resolved here from a model's dictionaries and genes, and the resolved
pairs are scored by `tests/oracles.reference_sentence_score`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from evosent.evaluator import Semantics
from evosent.lexicon import NEUTRAL_PAIR


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class ReferenceLabeler:
    """Labels token lists the way a model should, from its parts alone."""

    def __init__(self, oracles, algo, sentiment_dict, amplifier_dict, words, genes, semantics):
        self._score = oracles.reference_sentence_score
        self._context = algo == "cagasa"
        self._dicts = (sentiment_dict.entries, amplifier_dict.entries)
        self._genes = dict(zip(words, genes))
        self._prose = semantics is Semantics.PROSE

    @classmethod
    def for_model(cls, oracles, model):
        return cls(
            oracles,
            model.algo,
            model.sentiment_dict,
            model.amplifier_dict,
            model.index.words,
            model.chromosome.genes,
            model.semantics,
        )

    def _pair(self, tokens, position):
        word = tokens[position]
        for entries in self._dicts:
            if word in entries:
                return entries[word]
        gene = self._genes.get(word)
        if gene is None:
            return NEUTRAL_PAIR
        if not self._context:
            return gene
        rule = gene.rule
        ahead = set(tokens[position + 1 : position + 1 + rule.number_ahead])
        behind = set(tokens[max(0, position - rule.number_behind) : position])
        size = len(ahead) + len(behind)
        hits = len(ahead & rule.list_next) + len(behind & rule.list_previous)
        if size and 2 * hits >= size:
            return rule.context_pair
        return gene.context_free_pair

    def label(self, tokens) -> str:
        pairs = [self._pair(tokens, i) for i in range(len(tokens))]
        score = self._score(pairs, self._prose)
        if score > 0.0:
            return "positive"
        if score < 0.0:
            return "negative"
        return "tie"

    def correct_count(self, corpus) -> int:
        """Instances labelled with their own label; a tie is never correct."""
        return sum(self.label(inst.tokens) == inst.label.value for inst in corpus.instances)


def predict_output(labels) -> bytes:
    """What `evosent predict --show-ties` writes for these labels (ties go
    to the default tie policy, negative)."""
    lines = ("negative\ttie" if label == "tie" else f"{label}\t-" for label in labels)
    return ("\n".join(lines) + "\n").encode("utf-8") if labels else b""


def trajectory_ok(trajectory, generations: int) -> bool:
    """One entry per generation plus the initial one, never decreasing."""
    return len(trajectory) == generations + 1 and all(
        a <= b for a, b in zip(trajectory, trajectory[1:])
    )


def sha256(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class Ops:
    """Counts checked operations; a failed check or an exception is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail or 'check failed'}")
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)
