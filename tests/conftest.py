import random

import pytest

from evosent.cagasa import CagasaChromosome, CagasaGene
from evosent.corpus import Corpus, Instance, Label, UnknownWordIndex
from evosent.evaluator import Semantics, Verdict
from evosent.ga_engine import GAConfig
from evosent.gasa import GasaChromosome
from evosent.lexicon import ClassificationValuePair, Dictionary, Kind
from evosent.model import TrainedModel


def S(value: float) -> ClassificationValuePair:
    return ClassificationValuePair(Kind.SENTIMENT, value)


def A(value: float) -> ClassificationValuePair:
    return ClassificationValuePair(Kind.AMPLIFIER, value)


def make_corpus(rows) -> Corpus:
    """rows: iterable of (tokens, 'positive'|'negative')."""
    return Corpus(
        tuple(Instance(tuple(tokens), Label(label)) for tokens, label in rows)
    )


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
        CagasaChromosome((CagasaGene(word, rule, S(1.0)),)),
        UnknownWordIndex((word,), {word: 0}),
        Dictionary({}, Kind.SENTIMENT),
        Dictionary({}, Kind.AMPLIFIER),
    )
    return model.predict(tokens) is Verdict.NEGATIVE


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
