"""Command-line interface.

Subcommands: train, predict, holdout, cv-sentamp, cv-polarity, synth,
export-lexicon. Exit codes: 0 success, 1 usage/validation error, 2 runtime
error. All randomness flows from --seed; nothing reads the clock or OS
entropy.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import defaultdict
from dataclasses import replace
from itertools import count
from pathlib import Path

from .corpus import (
    Corpus,
    CorpusParseError,
    SplitError,
    concat_corpora,
    load_corpus,
    save_corpus,
    tokenize_block,
)
from .evaluator import Semantics, Verdict
from .experiments import (
    Algo,
    GenerationError,
    PlantedLexicon,
    Protocol,
    format_report,
    generate_synthetic_corpus,
    random_planted_lexicon,
    run_holdout_accuracy,
    run_word_cv,
    train,
    write_report,
)
from .ga_engine import CONFIG_FIELDS, GAConfig, parse_config_file
from .lexicon import (
    NEUTRAL_PAIR,
    ConflictingWordError,
    Kind,
    LexiconParseError,
    TextDecodeError,
    check_disjoint,
    empty_sentiment_dictionary,
    export_lexicon,
    load_labeled_dictionary,
    load_polarity_lists,
    parse_lexicon,
    seed_amplifier_dictionary,
    text_lines,
)
from .model import ModelFormatError, load_model, save_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
# The input lines `predict` tokenizes and scores together. It bounds the
# memory prediction holds, whatever the input's size.
PREDICT_BLOCK_LINES = 1024


class ValidationError(ValueError):
    """User input failed validation (exit code 1)."""


# Malformed input files, text that is not UTF-8 among them, and requests that
# cannot be met (a split, a balanced synthetic corpus) are input errors too.
INPUT_ERRORS = (
    ValidationError, ModelFormatError, TextDecodeError, CorpusParseError,
    LexiconParseError, ConflictingWordError, SplitError, GenerationError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _require(valid: bool, message: str) -> None:
    if not valid:
        raise ValidationError(message)


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"{what} not found: {p}")
    return p


def _add_common_flags(parser):
    parser.add_argument("--seed", type=int, default=None, help="root RNG seed")
    parser.add_argument(
        "--semantics",
        choices=[s.value for s in Semantics],
        default=Semantics.LITERAL.value,
        help="sentence evaluation semantics",
    )


def _add_training_flags(parser):
    """The common flags, then the GA, dictionary and corpus flags. Each GA
    flag's dest is its GAConfig field."""
    _add_common_flags(parser)
    parser.add_argument("--config", default=None, help="key=value GA config file")
    parser.add_argument("--pop", dest="population_size", type=int, help="population size")
    parser.add_argument("--tournament", dest="tournament_size", type=int, help="tournament size")
    parser.add_argument("--generations", dest="max_generations", type=int, help="max generations")
    parser.add_argument("--crossover-rate", type=float)
    parser.add_argument("--mutation-rate", type=float)
    parser.add_argument("--positive-words", default=None, help="positive word list")
    parser.add_argument("--negative-words", default=None, help="negative word list")
    parser.add_argument(
        "--sentiment-dict", default=None, help="single-file sentiment lexicon"
    )
    parser.add_argument(
        "--amplifier-dict",
        default=None,
        help="amplifier lexicon (default: seeded negators 'not' and 'never')",
    )
    parser.add_argument(
        "--corpus",
        action="append",
        required=True,
        help="label<TAB>text corpus file (repeatable; files concatenate)",
    )


def _build_config(args) -> GAConfig:
    config = GAConfig()
    try:
        if args.config is not None:
            path = _require_file(args.config, "config file")
            config = replace(config, **parse_config_file(path))
        flags = {key: getattr(args, key) for key in CONFIG_FIELDS}
        config = replace(config, **{key: v for key, v in flags.items() if v is not None})
        config.validate()
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return config


def _load_dictionaries(args):
    two_file = args.positive_words is not None or args.negative_words is not None
    if two_file and args.sentiment_dict is not None:
        raise ValidationError(
            "--sentiment-dict cannot be combined with --positive-words/--negative-words"
        )
    if two_file:
        if args.positive_words is None or args.negative_words is None:
            raise ValidationError("--positive-words and --negative-words must be given together")
        sentiment = load_polarity_lists(
            _require_file(args.positive_words, "positive word list"),
            _require_file(args.negative_words, "negative word list"),
        )
    elif args.sentiment_dict is not None:
        sentiment = load_labeled_dictionary(
            _require_file(args.sentiment_dict, "sentiment lexicon"), Kind.SENTIMENT
        )
    else:
        sentiment = empty_sentiment_dictionary()
    if args.amplifier_dict is not None:
        amplifier = load_labeled_dictionary(
            _require_file(args.amplifier_dict, "amplifier lexicon"), Kind.AMPLIFIER
        )
    else:
        amplifier = seed_amplifier_dictionary()
    check_disjoint(sentiment, amplifier)
    return sentiment, amplifier


def _load_corpora(args) -> Corpus:
    corpora = [load_corpus(_require_file(p, "corpus")) for p in args.corpus]
    corpus = corpora[0] if len(corpora) == 1 else concat_corpora(corpora)
    if len(corpus) == 0:
        raise ValidationError("corpus is empty")
    return corpus


def _training_inputs(args) -> tuple:
    """(corpus, sentiment, amplifier, config, semantics), in `train`'s
    argument order; the config is validated first, then the files."""
    config = _build_config(args)
    semantics = Semantics(args.semantics)
    corpus = _load_corpora(args)
    sentiment, amplifier = _load_dictionaries(args)
    return corpus, sentiment, amplifier, config, semantics


def cmd_train(args) -> int:
    model, stats = train(*_training_inputs(args), Algo(args.algo))
    trajectory = stats.best_fitness_per_generation
    print(f"unknown words: {len(model.index)}")
    print(
        f"best fitness: {model.best_fitness}/{model.train_instances} "
        f"(initial {trajectory[0]}, generations {stats.generations_executed}, "
        f"early stop {str(stats.terminated_early).lower()})"
    )
    if args.model_out:
        save_model(model, args.model_out)
        print(f"model written to {args.model_out}")
    if args.export_lexicon:
        export_lexicon(list(model.index.words), model.gene_pairs(), args.export_lexicon)
        print(f"lexicon written to {args.export_lexicon}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(_require_file(args.model, "model file"))
    if (args.text is None) == (args.input is None):
        raise ValidationError("exactly one of --text or --input is required")
    if args.text is not None:
        lines = [args.text]
    else:
        lines = list(text_lines(_require_file(args.input, "input file")))
    # the output for a negative, a tied and a positive score
    marks = ("\t-", "\ttie", "\t-") if args.show_ties else ("", "", "")
    labels = (Verdict.NEGATIVE.value, args.tie_policy, Verdict.POSITIVE.value)
    text = [f"{label}{mark}\n" for label, mark in zip(labels, marks)]
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for start in range(0, len(lines), PREDICT_BLOCK_LINES):
            words = defaultdict(count().__next__)  # each block's own vocabulary
            ids, lengths = tokenize_block(lines[start : start + PREDICT_BLOCK_LINES], words)
            score = model.sentence_scores(words, ids, lengths)
            out.write("".join(map(text.__getitem__, (1 + (score > 0) - (score < 0)).tolist())))
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _emit_report(report, args) -> None:
    print(format_report(report))
    if args.report_out:
        write_report(report, args.report_out)
        print(f"report written to {args.report_out}")


def cmd_holdout(args) -> int:
    _require(0.0 < args.train_fraction < 1.0, "--train-fraction must be in (0, 1)")
    report = run_holdout_accuracy(
        *_training_inputs(args), Algo(args.algo), args.train_fraction
    )
    _emit_report(report, args)
    return EXIT_OK


def cmd_word_cv(args) -> int:
    _require(args.folds >= 2, "--folds must be at least 2")
    _require(args.freq_threshold >= 0, "--freq-threshold must be non-negative")
    corpus, sentiment, amplifier, config, semantics = _training_inputs(args)
    report = run_word_cv(
        args.protocol, corpus, sentiment, amplifier, args.freq_threshold, args.folds,
        config, semantics,
    )
    _emit_report(report, args)
    return EXIT_OK


def cmd_synth(args) -> int:
    _require(args.instances > 0 and args.instances % 2 == 0, "--instances must be positive, even")
    _require(1 <= args.min_length <= args.max_length, "--min-length must be in 1..--max-length")
    _require(args.planted_words > 0, "--planted-words must be positive")
    _require(args.filler_words >= 0, "--filler-words must be non-negative")
    semantics = Semantics(args.semantics)
    seed = args.seed if args.seed is not None else 0
    rng = random.Random(seed)
    if args.lexicon is not None:
        entries = parse_lexicon(_require_file(args.lexicon, "planted lexicon"))
        # only neutral sentiment words are fillers: an amplifier 0 is planted
        planted = {w: p for w, p in entries.items() if p != NEUTRAL_PAIR}
        nonzero = any(p.value != 0.0 for p in planted.values())
        _require(nonzero, "planted lexicon has no word with a nonzero value")
        lexicon = PlantedLexicon(planted, frozenset(entries.keys() - planted.keys()))
    else:
        lexicon = random_planted_lexicon(args.planted_words, args.filler_words, rng)
    lengths = (args.min_length, args.max_length)
    corpus = generate_synthetic_corpus(lexicon, args.instances, lengths, semantics, rng)
    save_corpus(corpus, args.out)
    print(f"wrote {len(corpus)} instances to {args.out}")
    if args.lexicon_out:
        words = sorted(lexicon.entries) + sorted(lexicon.fillers)
        pairs = [lexicon.resolve(w) for w in words]
        export_lexicon(words, pairs, args.lexicon_out)
        print(f"ground-truth lexicon written to {args.lexicon_out}")
    return EXIT_OK


def cmd_export_lexicon(args) -> int:
    model = load_model(_require_file(args.model, "model file"))
    export_lexicon(list(model.index.words), model.gene_pairs(), args.out)
    print(f"lexicon written to {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="evosent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="evolve a lexicon on a labeled corpus")
    _add_training_flags(p_train)
    p_train.add_argument("--algo", choices=["gasa", "cagasa"], default="gasa")
    p_train.add_argument("--model-out", default=None, help="trained model path")
    p_train.add_argument("--export-lexicon", default=None, help="learned lexicon path")
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", help="classify text with a trained model")
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--text", default=None, help="classify a single text")
    p_predict.add_argument("--input", default=None, help="file of one text per line")
    p_predict.add_argument("--out", default=None, help="write labels here (default stdout)")
    p_predict.add_argument("--tie-policy", choices=["positive", "negative"], default="negative")
    p_predict.add_argument("--show-ties", action="store_true")
    p_predict.set_defaults(func=cmd_predict)

    p_holdout = sub.add_parser("holdout", help="stratified holdout accuracy run")
    _add_training_flags(p_holdout)
    p_holdout.add_argument("--algo", choices=["gasa", "cagasa"], default="gasa")
    p_holdout.add_argument("--train-fraction", type=float, default=0.7)
    p_holdout.add_argument("--report-out", default=None)
    p_holdout.set_defaults(func=cmd_holdout)

    for name, protocol, help_text in (
        ("cv-sentamp", Protocol.SENT_VS_AMP, "sentiment-vs-amplifier word CV"),
        ("cv-polarity", Protocol.POLARITY_VALUE, "polarity-value word CV"),
    ):
        p_cv = sub.add_parser(name, help=help_text)
        _add_training_flags(p_cv)
        p_cv.add_argument("--freq-threshold", type=int, default=0)
        p_cv.add_argument("--folds", type=int, default=10)
        p_cv.add_argument("--report-out", default=None)
        p_cv.set_defaults(func=cmd_word_cv, protocol=protocol)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    _add_common_flags(p_synth)
    p_synth.add_argument("--out", required=True, help="corpus output path")
    p_synth.add_argument("--instances", type=int, default=500)
    p_synth.add_argument("--min-length", type=int, default=3)
    p_synth.add_argument("--max-length", type=int, default=8)
    p_synth.add_argument("--planted-words", type=int, default=30)
    p_synth.add_argument("--filler-words", type=int, default=10)
    p_synth.add_argument("--lexicon", default=None, help="planted lexicon file")
    p_synth.add_argument("--lexicon-out", default=None, help="write ground truth here")
    p_synth.set_defaults(func=cmd_synth)

    p_export = sub.add_parser("export-lexicon", help="extract a lexicon from a model")
    p_export.add_argument("--model", required=True)
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_export_lexicon)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
