"""evosent: evolving word-level sentiment lexicons for polarity classification."""

from .corpus import (
    Corpus,
    Instance,
    Label,
    UnknownWordIndex,
    build_unknown_index,
    load_corpus,
    tokenize,
)
from .evaluator import Semantics, Verdict, classify_score
from .ga_engine import GAConfig, run_ga
from .gasa import GasaChromosome, GasaProblem
from .cagasa import CagasaChromosome, CagasaProblem
from .lexicon import (
    ClassificationValuePair,
    Dictionary,
    Kind,
    lookup,
    seed_amplifier_dictionary,
)

__version__ = "0.1.0"

__all__ = [
    "CagasaChromosome",
    "CagasaProblem",
    "ClassificationValuePair",
    "Corpus",
    "Dictionary",
    "GAConfig",
    "GasaChromosome",
    "GasaProblem",
    "Instance",
    "Kind",
    "Label",
    "Semantics",
    "UnknownWordIndex",
    "Verdict",
    "build_unknown_index",
    "classify_score",
    "load_corpus",
    "lookup",
    "run_ga",
    "seed_amplifier_dictionary",
    "tokenize",
    "__version__",
]
