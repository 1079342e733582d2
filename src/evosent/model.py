"""Self-contained trained-model files.

A model embeds the training configuration, the semantics mode and both
dictionaries, so prediction reproduces the training-time resolution order
exactly. Gene records extend the lexicon line format; CA-GASA genes carry
the full context rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .cagasa import (
    MAX_CONTEXT,
    CagasaChromosome,
    CagasaGene,
    ContextCorpus,
    ContextRule,
    EncodedGenes,
    encode_genes,
)
from .corpus import UnknownWordIndex
from .evaluator import Semantics, SlotTable, Verdict, classify_score, slot_table
from .ga_engine import CONFIG_FIELDS, GAConfig, config_records, parse_config_field
from .gasa import PAIR_CODES, SLICE_CELLS, GasaChromosome, compile_tokens, scores
from .lexicon import ClassificationValuePair, Dictionary, Kind, format_pair, parse_pair, text_lines

FORMAT_VERSION = "1"
# Token sequences `TrainedModel.predict_many` holds and scores together. It
# bounds the memory prediction holds, whatever the input's size.
PREDICT_BLOCK_LINES = 1024
# The two-field records `save_model` writes, each exactly once.
HEADER_KEYS = ("model", "algo", "semantics", *CONFIG_FIELDS, "best_fitness", "train_instances")


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

    @cached_property
    def table(self) -> SlotTable:
        """Built on first use, from the dictionaries and index of that time."""
        return slot_table(self.index, self.sentiment_dict, self.amplifier_dict)

    @cached_property
    def _encoded_genes(self) -> EncodedGenes:
        """A CA-GASA model's genes, encoded on first use."""
        return encode_genes(self.chromosome.genes)

    def predict(self, tokens: Sequence[str]) -> Verdict:
        """The polarity the model gives a token sequence."""
        return next(self.predict_many([tokens]))

    def predict_many(self, token_lists: Iterable[Sequence[str]]) -> Iterator[Verdict]:
        """The polarity the model gives each token sequence, in order. The
        sequences are read PREDICT_BLOCK_LINES at a time; within a block
        they are sorted by length and scored in slices of at most
        SLICE_CELLS slot-matrix elements, so that short sentences are not
        padded to the width of long ones."""
        token_lists = iter(token_lists)
        while block := list(islice(token_lists, PREDICT_BLOCK_LINES)):
            lengths = np.fromiter(map(len, block), dtype=np.int64, count=len(block))
            order = np.argsort(lengths, kind="stable")
            lengths = lengths[order]
            block_scores = np.empty(len(block))
            start = 0
            while start < len(block):
                # the longest prefix whose rows times its width fits, at least one row
                elements = np.arange(1, len(block) - start + 1) * lengths[start:]
                end = start + max(1, int(np.searchsorted(elements, SLICE_CELLS, side="right")))
                rows = order[start:end]
                block_scores[rows] = self._scores([block[k] for k in rows.tolist()])
                start = end
            yield from map(classify_score, block_scores.tolist())

    def _scores(self, token_lists: list) -> np.ndarray:
        """Each token sequence's sentence score, on the training kernel."""
        compiled = compile_tokens(token_lists, self.table)
        if self.algo == "gasa":
            codes = np.frombuffer(self.chromosome.codes, dtype=np.int8)
        else:
            context = ContextCorpus(compiled)
            compiled = context.compiled
            codes = context.decide(range(len(self.index)), self._encoded_genes)[0]
        return scores(compiled, codes[:, None], self.semantics)[0]


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
        # a CA-GASA gene's word is its index word: training and `load_model`
        # build them aligned
        for word, gene in zip(model.index.words, model.chromosome.genes):
            fh.write(_gene_line(word, gene) + "\n")


def _split_words(text: str) -> frozenset:
    return frozenset(w for w in text.split(",") if w)


def _context_int(text: str, name: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_CONTEXT:
        raise ValueError(f"{name} {value} is outside 1..{MAX_CONTEXT}")
    return value


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
    gasa_codes = []
    cagasa_genes = []
    for lineno, line in enumerate(text_lines(source), start=1):
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
                if fields[1] in target:
                    raise ValueError(f"duplicate {pair.kind.value} word {fields[1]!r}")
                target[fields[1]] = pair
            elif tag == "gene":
                if len(fields) != 4:
                    raise ValueError("bad gene record")
                gasa_codes.append(PAIR_CODES[_evolvable(parse_pair(fields[2], fields[3]))])
            elif tag == "cgene":
                if len(fields) != 12:
                    raise ValueError("bad cgene record")
                rule = ContextRule(
                    next_size=_context_int(fields[2], "next_size"),
                    previous_size=_context_int(fields[3], "previous_size"),
                    list_next=_split_words(fields[4]),
                    list_previous=_split_words(fields[5]),
                    number_ahead=_context_int(fields[6], "number_ahead"),
                    number_behind=_context_int(fields[7], "number_behind"),
                    context_pair=_evolvable(parse_pair(fields[8], fields[9])),
                )
                context_free_pair = _evolvable(parse_pair(fields[10], fields[11]))
                cagasa_genes.append(CagasaGene(fields[1], rule, context_free_pair))
            elif len(fields) == 2:
                if tag not in HEADER_KEYS:
                    raise ValueError(f"unknown header record {tag!r}")
                if tag in header:
                    raise ValueError(f"repeated header record {tag!r}")
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
    if algo == "cagasa" and gasa_codes:
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
        GasaChromosome(bytes(gasa_codes))
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
