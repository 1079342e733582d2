"""Self-contained trained-model files.

A model embeds the training configuration, the semantics mode and both
dictionaries, so prediction reproduces the training-time resolution order
exactly. Gene records extend the lexicon line format; CA-GASA genes carry
the full context rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .cagasa import CagasaChromosome, CagasaGene, ContextRule
from .corpus import UnknownWordIndex
from .evaluator import Semantics
from .ga_engine import CONFIG_FIELDS, GAConfig, config_records, parse_config_field
from .gasa import GasaChromosome
from .lexicon import ClassificationValuePair, Dictionary, Kind, format_pair, parse_pair

FORMAT_VERSION = "1"


@dataclass
class TrainedModel:
    algo: str  # "gasa" | "cagasa"
    semantics: Semantics
    config: GAConfig
    sentiment_dict: Dictionary
    amplifier_dict: Dictionary
    index: UnknownWordIndex
    chromosome: object  # GasaChromosome | CagasaChromosome
    best_fitness: int
    train_instances: int

    def gene_pairs(self) -> list:
        """One classification-value pair per unknown word (context-free for
        CA-GASA), in gene order."""
        if self.algo == "gasa":
            return list(self.chromosome.genes)
        return [g.context_free_pair for g in self.chromosome.genes]


class ModelFormatError(ValueError):
    """A model file could not be parsed."""


def _words(items) -> str:
    return ",".join(sorted(items))


def _gene_line(word: str, gene) -> str:
    if isinstance(gene, ClassificationValuePair):
        return f"gene\t{word}\t{format_pair(gene)}"
    rule = gene.rule
    return "\t".join(
        [
            "cgene",
            word,
            str(rule.next_size),
            str(rule.previous_size),
            _words(rule.list_next),
            _words(rule.list_previous),
            str(rule.number_ahead),
            str(rule.number_behind),
            format_pair(rule.context_pair),
            format_pair(gene.context_free_pair),
        ]
    )


def save_model(model: TrainedModel, sink: Union[str, Path]) -> None:
    with open(sink, "w", encoding="utf-8") as fh:
        fh.write(f"model\t{FORMAT_VERSION}\n")
        fh.write(f"algo\t{model.algo}\n")
        fh.write(f"semantics\t{model.semantics.value}\n")
        for key, value in config_records(model.config):
            fh.write(f"{key}\t{value}\n")
        fh.write(f"best_fitness\t{model.best_fitness}\n")
        fh.write(f"train_instances\t{model.train_instances}\n")
        for word, pair in model.sentiment_dict.entries.items():
            fh.write(f"dict\t{word}\t{format_pair(pair)}\n")
        for word, pair in model.amplifier_dict.entries.items():
            fh.write(f"dict\t{word}\t{format_pair(pair)}\n")
        if model.algo == "gasa":
            for word, gene in zip(model.index.words, model.chromosome.genes):
                fh.write(_gene_line(word, gene) + "\n")
        else:
            for gene in model.chromosome.genes:
                fh.write(_gene_line(gene.word, gene) + "\n")


def _split_words(text: str) -> frozenset:
    return frozenset(w for w in text.split(",") if w)


def _evolvable(pair: ClassificationValuePair) -> ClassificationValuePair:
    if not pair.is_evolvable():
        raise ValueError(f"gene pair {pair.kind.value} {pair.value!r} is not evolvable")
    return pair


def load_model(source: Union[str, Path]) -> TrainedModel:
    """Parse a model file; ModelFormatError on a malformed record or on a
    model that `save_model` could not have written from a training run."""
    header = {}
    sentiment_entries = {}
    amplifier_entries = {}
    gene_positions = {}
    gasa_genes = []
    cagasa_genes = []
    with open(source, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            tag = fields[0]
            try:
                if tag == "dict":
                    if len(fields) != 4:
                        raise ValueError("bad dict record")
                    pair = parse_pair(fields[2], fields[3])
                    target = (
                        sentiment_entries if pair.kind is Kind.SENTIMENT else amplifier_entries
                    )
                    target[fields[1]] = pair
                elif tag == "gene":
                    if len(fields) != 4:
                        raise ValueError("bad gene record")
                    gasa_genes.append(_evolvable(parse_pair(fields[2], fields[3])))
                elif tag == "cgene":
                    if len(fields) != 12:
                        raise ValueError("bad cgene record")
                    rule = ContextRule(
                        next_size=int(fields[2]),
                        previous_size=int(fields[3]),
                        list_next=_split_words(fields[4]),
                        list_previous=_split_words(fields[5]),
                        number_ahead=int(fields[6]),
                        number_behind=int(fields[7]),
                        context_pair=_evolvable(parse_pair(fields[8], fields[9])),
                    )
                    context_free_pair = _evolvable(parse_pair(fields[10], fields[11]))
                    cagasa_genes.append(CagasaGene(fields[1], rule, context_free_pair))
                elif len(fields) == 2:
                    header[tag] = fields[1]
                else:
                    raise ValueError(f"unrecognized record {tag!r}")
                if tag in ("gene", "cgene"):
                    if fields[1] in gene_positions:
                        raise ValueError(f"duplicate gene word {fields[1]!r}")
                    gene_positions[fields[1]] = len(gene_positions)
            except ValueError as exc:
                raise ModelFormatError(f"line {lineno}: {exc}") from exc
    if header.get("model") != FORMAT_VERSION:
        raise ModelFormatError("missing or unsupported model version header")
    algo = header.get("algo")
    if algo not in ("gasa", "cagasa"):
        raise ModelFormatError(f"unknown algo {algo!r}")
    if algo == "gasa" and cagasa_genes:
        raise ModelFormatError("gasa model contains context genes")
    if algo == "cagasa" and gasa_genes:
        raise ModelFormatError("cagasa model contains plain genes")
    try:
        config = GAConfig(
            **{key: parse_config_field(key, header[key]) for key in CONFIG_FIELDS}
        )
        config.validate()
        semantics = Semantics(header["semantics"])
        best_fitness = int(header["best_fitness"])
        train_instances = int(header["train_instances"])
    except (KeyError, ValueError) as exc:
        raise ModelFormatError(f"bad model header: {exc}") from exc
    if not 0 <= best_fitness <= train_instances:
        raise ModelFormatError(
            f"best_fitness {best_fitness} is outside 0..train_instances ({train_instances})"
        )
    for word in gene_positions:
        if word in sentiment_entries or word in amplifier_entries:
            raise ModelFormatError(f"gene word {word!r} is also a dictionary word")
    index = UnknownWordIndex(tuple(gene_positions), gene_positions)
    chromosome = (
        GasaChromosome(tuple(gasa_genes))
        if algo == "gasa"
        else CagasaChromosome(tuple(cagasa_genes))
    )
    return TrainedModel(
        algo=algo,
        semantics=semantics,
        config=config,
        sentiment_dict=Dictionary(sentiment_entries, Kind.SENTIMENT),
        amplifier_dict=Dictionary(amplifier_entries, Kind.AMPLIFIER),
        index=index,
        chromosome=chromosome,
        best_fitness=best_fitness,
        train_instances=train_instances,
    )
