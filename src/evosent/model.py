"""Self-contained trained-model files.

A model embeds the training configuration, the semantics mode and both
dictionaries, so prediction reproduces the training-time resolution order
exactly. Gene records extend the lexicon line format; CA-GASA genes carry
the full context rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .cagasa import MAX_CONTEXT, ContextCorpus, from_fields
from .corpus import UnknownWordIndex, token_cells, tokenize
from .evaluator import Semantics, SlotTable, Verdict, classify_score, slot_table
from .ga_engine import CONFIG_FIELDS, GAConfig, config_records, parse_config_field
from .gasa import PAIR_CODES, SLICE_CELLS, GasaChromosome, compile_ids, left_padded, scores
from .lexicon import ClassificationValuePair, Dictionary, Kind, format_pair, parse_pair, text_lines

FORMAT_VERSION = "1"
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

    def predict(self, tokens: Sequence[str]) -> Verdict:
        """The polarity the model gives a token sequence."""
        words = {word: k for k, word in enumerate(dict.fromkeys(tokens))}
        ids = [words[token] for token in tokens]
        return classify_score(self.sentence_scores(words, ids, [len(ids)])[0])

    def sentence_scores(self, words, ids, lengths: Sequence[int]) -> np.ndarray:
        """The score of each line of a block as `tokenize_block` gives it, ids
        into `words`, line k the next lengths[k]. The block is compiled as one
        row, then its lines are sorted by length and scored on the training
        kernel in slices of at most SLICE_CELLS slot-matrix elements, so short
        lines are not padded to the width of long ones; a longer line is one slice."""
        row = compile_ids(words, ids, [len(ids)], self.table)
        lengths = np.asarray(lengths, dtype=np.int64)
        order = np.argsort(lengths, kind="stable")
        firsts, lengths = (np.cumsum(lengths) - lengths)[order], lengths[order]
        block_scores, start = np.empty(len(lengths)), 0
        while start < len(lengths):
            # the longest run of lines whose rows times its width fits, at least one
            elements = np.arange(1, len(lengths) - start + 1) * lengths[start:]
            end = start + max(1, int(np.searchsorted(elements, SLICE_CELLS, side="right")))
            part, cells = lengths[start:end], token_cells(firsts[start:end], lengths[start:end])
            padded, slots = (left_padded(m[0, cells], part) for m in (row.words, row.slots))
            compiled = replace(row, words=padded, slots=slots)
            if self.algo == "gasa":
                codes = np.frombuffer(self.chromosome.codes, dtype=np.int8)
            else:
                context = ContextCorpus(compiled)
                compiled = context.compiled
                genome = self.chromosome
                codes = context.decide(range(len(self.index)), genome.rows, genome.words)[0]
            block_scores[order[start:end]] = scores(compiled, codes[:, None], self.semantics)[0]
            start = end
        return block_scores


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
        for word, gene in zip(model.index.words, model.chromosome.genes):
            fh.write(_gene_line(word, gene) + "\n")


def _split_words(text: str) -> frozenset:
    return frozenset(filter(None, text.split(",")))


# The int fields of a cgene record, in the order they are checked.
_CGENE_INTS = ((2, "next_size"), (3, "previous_size"), (6, "number_ahead"), (7, "number_behind"))


def _context_int(text: str, name: str) -> int:
    value = int(text)
    if not 1 <= value <= MAX_CONTEXT:
        raise ValueError(f"{name} {value} is outside 1..{MAX_CONTEXT}")
    return value


# The code of each evolvable pair as `format_pair` writes it, read without parsing.
_WRITTEN_CODES = {tuple(format_pair(pair).split("\t")): code for pair, code in PAIR_CODES.items()}


def _gene_code(kind_text: str, value_text: str) -> int:
    """The pair code of a gene's pair, which must be evolvable."""
    code = _WRITTEN_CODES.get((kind_text, value_text))
    if code is None:
        pair = parse_pair(kind_text, value_text)
        if (code := PAIR_CODES.get(pair)) is None:  # the evolvable pairs are its keys
            raise ValueError(f"gene pair {pair.kind.value} {pair.value!r} is not evolvable")
    return code


def load_model(source: Union[str, Path]) -> TrainedModel:
    """Parse a model file; ModelFormatError on a malformed record or on a
    model that `save_model` could not have written from a training run."""
    header = {}
    sentiment_entries = {}
    amplifier_entries = {}
    gene_positions = {}
    gasa_codes = []
    cagasa_genes = []
    named = []  # (line number, the words it names) for each record that names words
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
                named.append((lineno, fields[1]))
            elif tag == "gene":
                if len(fields) != 4:
                    raise ValueError("bad gene record")
                gasa_codes.append(_gene_code(fields[2], fields[3]))
                named.append((lineno, fields[1]))
            elif tag == "cgene":
                if len(fields) != 12:
                    raise ValueError("bad cgene record")
                *sizes, ahead, behind = (_context_int(fields[k], name) for k, name in _CGENE_INTS)
                lists = [_split_words(fields[4]), _split_words(fields[5])]
                context = _gene_code(fields[8], fields[9])
                for name, size, words in zip(("list_next", "list_previous"), sizes, lists):
                    if len(words) > size:
                        raise ValueError(f"{name} exceeds its declared capacity")
                free = _gene_code(fields[10], fields[11])
                cagasa_genes.append((ahead, behind, free, context, *sizes, *lists))
                named.append((lineno, fields[1], *lists[0], *lists[1]))
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
    # the tokens of the words joined are the words exactly when each word is
    # a token of itself; any other word matches no token of any text
    if tokenize(" ".join(words := [w for record in named for w in record[1:]])) != words:
        lineno, word = next((r[0], w) for r in named for w in r[1:] if tokenize(w) != [w])
        raise ModelFormatError(f"line {lineno}: expected a single word, got {word!r}")
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
    chromosome = GasaChromosome(bytes(gasa_codes)) if algo == "gasa" else from_fields(cagasa_genes)
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
