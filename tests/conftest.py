import random
import sys
from pathlib import Path

import numpy as np
import pytest

from evosent.cagasa import CagasaGene, ContextCorpus
from evosent.corpus import Corpus, Instance, Label, UnknownWordIndex
from evosent.evaluator import Semantics, Verdict, classify_score, slot_table
from evosent.ga_engine import GAConfig
from evosent.gasa import GasaChromosome, compile_ids
from evosent.lexicon import ClassificationValuePair, Dictionary, Kind
from evosent.model import TrainedModel
from oracles import cagasa_chromosome, corpus_of

# The experiment scripts are importable, so that tests run the code users run.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))


def S(value: float) -> ClassificationValuePair:
    return ClassificationValuePair(Kind.SENTIMENT, value)


def A(value: float) -> ClassificationValuePair:
    return ClassificationValuePair(Kind.AMPLIFIER, value)


def make_corpus(rows) -> Corpus:
    """rows: iterable of (tokens, 'positive'|'negative')."""
    return corpus_of(Instance(tuple(tokens), Label(label)) for tokens, label in rows)


def neighbor_pools(corpus, index) -> tuple:
    """(words, pools) of `ContextCorpus.pools` on `corpus`, whose genes are
    `index`'s words: what a `CagasaProblem` on them draws from."""
    empty = Dictionary({}, Kind.SENTIMENT), Dictionary({}, Kind.AMPLIFIER)
    return ContextCorpus(compiled_corpus(corpus, slot_table(index, *empty))).pools(len(index))


def compiled_corpus(corpus, table):
    """`corpus` compiled as a training problem compiles it."""
    return compile_ids(corpus.words, corpus.ids, corpus.lengths, table, corpus.positive)


def flat(token_lists) -> tuple:
    """(vocabulary, ids, lengths): token lists as `tokenize_block` gives
    texts, one flat int32 array of ids into a vocabulary dict and each list's
    length, the form `compile_ids` and `TrainedModel.sentence_scores` take."""
    token_lists = list(token_lists)
    vocabulary: dict = {}
    ids = [vocabulary.setdefault(t, len(vocabulary)) for tokens in token_lists for t in tokens]
    return vocabulary, np.array(ids, dtype=np.int32), [len(t) for t in token_lists]


def predicted(model, token_lists) -> list:
    """The verdict value the model gives each token list, all scored as one
    block."""
    return [classify_score(s).value for s in model.sentence_scores(*flat(token_lists)).tolist()]


def trained_model(
    chromosome, index, sentiment_dict, amplifier_dict, semantics=Semantics.LITERAL
) -> TrainedModel:
    """A model that labels text with `chromosome`, as `evosent predict` does."""
    algo = "gasa" if isinstance(chromosome, GasaChromosome) else "cagasa"
    return TrainedModel(
        algo, semantics, GAConfig(), sentiment_dict, amplifier_dict, index, chromosome, 0, 0
    )


def fires(rule, tokens, position) -> bool:
    """Whether a CA-GASA model picks the rule's context pair, S(-1), over the
    context-free pair S(1) at `tokens[position]`. The model's one gene is that
    word's, which occurs once, and it has no dictionaries, so it labels the
    sentence NEGATIVE exactly when the rule fires there."""
    word = tokens[position]
    assert rule.context_pair == S(-1.0) and list(tokens).count(word) == 1
    model = trained_model(
        cagasa_chromosome((CagasaGene(rule, S(1.0)),)),
        UnknownWordIndex((word,), {word: 0}),
        Dictionary({}, Kind.SENTIMENT),
        Dictionary({}, Kind.AMPLIFIER),
    )
    return model.predict(tokens) is Verdict.NEGATIVE


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
