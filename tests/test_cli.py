import pytest

from evosent import experiments
from evosent.cli import main
from evosent.corpus import Label, load_corpus
from evosent.lexicon import parse_lexicon
from evosent.model import load_model

from oracles import reference_sentence_score


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    rows = [
        ("positive", "zorp blick"),
        ("negative", "not zorp"),
        ("positive", "zorp zorp quux"),
        ("negative", "flern flern"),
        ("positive", "blick zorp"),
        ("negative", "not blick flern"),
    ]
    path.write_text("".join(f"{label}\t{text}\n" for label, text in rows))
    return path


def train_args(corpus_file, model_path, extra=()):
    return [
        "train",
        "--corpus",
        str(corpus_file),
        "--model-out",
        str(model_path),
        "--seed",
        "3",
        "--pop",
        "20",
        "--generations",
        "15",
        *extra,
    ]


class TestTrain:
    def test_trains_and_writes_model(self, corpus_file, tmp_path, capsys):
        model_path = tmp_path / "model.tsv"
        assert main(train_args(corpus_file, model_path)) == 0
        out = capsys.readouterr().out
        assert "unknown words: 4" in out
        assert "best fitness:" in out
        model = load_model(model_path)
        assert model.algo == "gasa"
        assert model.index.words == ("zorp", "blick", "quux", "flern")

    def test_byte_identical_reruns(self, corpus_file, tmp_path):
        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        main(train_args(corpus_file, p1))
        main(train_args(corpus_file, p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_cagasa_algo(self, corpus_file, tmp_path):
        model_path = tmp_path / "model.tsv"
        code = main(train_args(corpus_file, model_path, extra=["--algo", "cagasa"]))
        assert code == 0
        assert load_model(model_path).algo == "cagasa"

    def test_export_lexicon(self, corpus_file, tmp_path):
        model_path = tmp_path / "model.tsv"
        lex_path = tmp_path / "lexicon.tsv"
        main(train_args(corpus_file, model_path, extra=["--export-lexicon", str(lex_path)]))
        lines = lex_path.read_text().splitlines()
        assert len(lines) == 4
        assert all(len(line.split("\t")) == 3 for line in lines)

    def test_missing_corpus_exits_1(self, tmp_path):
        code = main(train_args(tmp_path / "absent.tsv", tmp_path / "m"))
        assert code == 1

    def test_invalid_rates_exit_1(self, corpus_file, tmp_path):
        code = main(
            train_args(corpus_file, tmp_path / "m", extra=["--crossover-rate", "0.9"])
        )
        assert code == 1

    def test_zero_generations(self, corpus_file, tmp_path, capsys):
        model_path = tmp_path / "m"
        code = main(train_args(corpus_file, model_path) + ["--generations", "0"])
        assert code == 0
        assert "generations 0" in capsys.readouterr().out

    def test_config_file(self, corpus_file, tmp_path):
        conf = tmp_path / "ga.conf"
        conf.write_text("population_size=10\nmax_generations=5\n")
        model_path = tmp_path / "m"
        code = main(
            [
                "train",
                "--corpus",
                str(corpus_file),
                "--model-out",
                str(model_path),
                "--seed",
                "1",
                "--config",
                str(conf),
            ]
        )
        assert code == 0
        model = load_model(model_path)
        assert model.config.population_size == 10
        assert model.config.max_generations == 5

    def test_unknown_flag_exits_1(self, corpus_file):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--corpus", str(corpus_file), "--bogus"])
        assert exc.value.code == 1

    def test_missing_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


class TestPredict:
    @pytest.fixture
    def model_path(self, corpus_file, tmp_path):
        path = tmp_path / "model.tsv"
        main(train_args(corpus_file, path))
        return path

    def test_single_text(self, model_path, capsys):
        assert main(["predict", "--model", str(model_path), "--text", "zorp blick"]) == 0
        out = capsys.readouterr().out.strip()
        assert out in ("positive", "negative")

    def test_tie_policy_default_negative(self, model_path, capsys):
        # unseen words are neutral, so the score is zero: a tie
        assert main(["predict", "--model", str(model_path), "--text", "mystery word"]) == 0
        assert capsys.readouterr().out.strip() == "negative"

    def test_tie_policy_positive(self, model_path, capsys):
        main(
            [
                "predict",
                "--model",
                str(model_path),
                "--text",
                "mystery word",
                "--tie-policy",
                "positive",
            ]
        )
        assert capsys.readouterr().out.strip() == "positive"

    def test_show_ties_annotation(self, model_path, capsys):
        main(["predict", "--model", str(model_path), "--text", "mystery", "--show-ties"])
        assert capsys.readouterr().out.strip() == "negative\ttie"

    def test_lone_carriage_return_stays_in_its_line(self, model_path, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_bytes(b"zorp blick\rnot zorp\nflern\n")
        assert main(["predict", "--model", str(model_path), "--input", str(inp)]) == 0
        labels = capsys.readouterr().out.splitlines()
        for text in ("zorp blick not zorp", "flern"):
            assert main(["predict", "--model", str(model_path), "--text", text]) == 0
        assert labels == capsys.readouterr().out.splitlines()

    def test_input_file_to_output_file(self, model_path, tmp_path):
        inp = tmp_path / "in.txt"
        inp.write_text("zorp blick\nmystery\n")
        out = tmp_path / "out.txt"
        code = main(
            ["predict", "--model", str(model_path), "--input", str(inp), "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert all(line in ("positive", "negative") for line in lines)

    def test_text_and_input_conflict(self, model_path, tmp_path, capsys):
        inp = tmp_path / "in.txt"
        inp.write_text("x\n")
        code = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--text",
                "a",
                "--input",
                str(inp),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_corrupt_model_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a model\n")
        code = main(["predict", "--model", str(bad), "--text", "x"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_inconsistent_model_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text(
            "model\t1\nalgo\tgasa\nsemantics\tliteral\npopulation_size\t-1\n"
            "tournament_size\t7\nmax_generations\t5\ncrossover_rate\t0.600000\n"
            "mutation_rate\t0.400000\nseed\t0\nbest_fitness\t99\n"
            "train_instances\t1\ngene\tzorp\tsentiment\t9.0\n"
            "gene\tzorp\tsentiment\t1.0\n"
        )
        code = main(["predict", "--model", str(bad), "--text", "zorp"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algo, tag, field, text, message",
        [
            ("cagasa", "cgene", 2, "99", "next_size 99 is outside 1..3"),
            ("cagasa", "cgene", 6, "0", "number_ahead 0 is outside 1..3"),
            ("cagasa", "cgene", 7, "-4", "number_behind -4 is outside 1..3"),
            ("gasa", "dict", None, "dict\tnot\tamplifier\t1.5", "duplicate amplifier word"),
            ("gasa", None, None, "semantics\tprose", "repeated header record 'semantics'"),
            ("gasa", None, None, "bogus_field\tx", "unknown header record 'bogus_field'"),
            ("gasa", None, None, "seed\t5", "repeated header record 'seed'"),
            # a word no token can match
            ("gasa", "gene", 1, "Good-Day", "expected a single word, got 'Good-Day'"),
            ("gasa", "dict", 1, "well-done", "expected a single word, got 'well-done'"),
            ("cagasa", "cgene", 1, "Zorp", "expected a single word, got 'Zorp'"),
            ("cagasa", "cgene", 4, "good!", "expected a single word, got 'good!'"),
        ],
    )
    def test_impossible_model_exits_1(
        self, algo, tag, field, text, message, corpus_file, tmp_path, capsys
    ):
        path = tmp_path / "model.tsv"
        assert main(train_args(corpus_file, path, ["--algo", algo])) == 0
        lines = path.read_text().splitlines()
        if field is None:  # a record appended to the model
            lines.append(text)
        else:
            lineno = next(i for i, line in enumerate(lines) if line.startswith(f"{tag}\t"))
            fields = lines[lineno].split("\t")
            fields[field] = text
            lines[lineno] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(path), "--text", "not zorp blick"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and message in captured.err


@pytest.mark.parametrize(
    "flag, content, message",
    [
        ("--corpus", "maybe\tgood text\n", "line 1"),
        ("--corpus", "no tab here\n", "line 1"),
        # a byte-order mark is dropped only at the start of a file
        ("--corpus", "positive\tzorp\n\ufeffnegative\tflern\n", "line 2: unknown label"),
        ("--sentiment-dict", "good\tsentiment\tlots\n", "line 1"),
        ("--sentiment-dict", "good\tsentiment\n", "line 1"),
        ("--sentiment-dict", "good\tsentiment\t1.0\ngood\tsentiment\t-1\n", "line 2: word 'good'"),
        ("--sentiment-dict", "bad\tsentiment\t-1.0\ngood\tsentiment\n", "line 2: expected 3"),
        ("--amplifier-dict", "not\tamplifier\tnan\n", "non-finite"),
        # a record of the other kind
        ("--amplifier-dict", "not\tamplifier\t-1.0\nsplendid\tsentiment\t1\n", "line 2: entry"),
        ("--sentiment-dict", "good\tsentiment\t1.0\nnot\tamplifier\t-1\n", "line 2: entry"),
        # a word no token can match
        ("--sentiment-dict", "very good\tsentiment\t1.0\nbad\tsentiment\t-1.0\n", "line 1"),
        ("--sentiment-dict", "bad\tsentiment\t-1.0\ngood \tsentiment\t1\n", "line 2"),
        ("--sentiment-dict", "bad\tsentiment\t-1.0\nwell-done\tsentiment\t1\n", "line 2"),
        ("--amplifier-dict", "very!\tamplifier\t1.5\n", "line 1: expected a single word"),
        ("--positive-words", "good\ngood!\n", "line 2: expected a single word"),
        ("--positive-words", "don't\nwell-done\n", "line 2: expected a single word"),
        # files that are not UTF-8
        ("--corpus", b"positive\tgood \xff\n", "utf-8"),
        ("--sentiment-dict", b"good\tsentiment\t1.0\n\xff\n", "utf-8"),
        ("--positive-words", b"good\n\xff\n", "utf-8"),
        ("--model", b"model\t1\n\xff\n", "utf-8"),
        ("--input", b"zorp\n\xfe\xff\n", "utf-8"),
        ("--config", b"seed=1\n\xff\n", "utf-8"),
        ("--config", "population_size=10\npopulation_size=6\n", "line 2: repeated key"),
        ("--model", "model\t1\nbogus\t1\n", "line 2: unknown header record 'bogus'"),
    ],
)
def test_malformed_input_file_exits_1(flag, content, message, corpus_file, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    model = tmp_path / "model"
    args = train_args(corpus_file, model)
    if flag == "--corpus":
        args[2] = str(bad)
    elif flag == "--positive-words":
        args += [flag, str(bad), "--negative-words", str(corpus_file)]
    elif flag == "--model":
        args = ["predict", "--model", str(bad), "--text", "zorp"]
    elif flag == "--input":
        assert main(args) == 0
        capsys.readouterr()
        args = ["predict", "--model", str(model), "--input", str(bad)]
    else:
        args += [flag, str(bad)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    if isinstance(content, bytes):  # a decode error names the file
        assert f"error: {bad}: " in captured.err
    elif flag in ("--corpus", "--sentiment-dict", "--amplifier-dict", "--positive-words",
                  "--config", "--model"):
        # a corpus, lexicon, word-list, config or model error names the file and the line
        assert f"error: {bad}: line " in captured.err
    if flag == "--input":
        assert captured.out == ""
        # nor is an existing --out file touched
        out = tmp_path / "labels.txt"
        out.write_bytes(b"positive\n")
        assert main([*args, "--out", str(out)]) == 1
        assert out.read_bytes() == b"positive\n"


@pytest.mark.parametrize(
    "flag", ["--corpus", "--sentiment-dict", "--positive-words", "--config", "--model", "--input"]
)
def test_leading_byte_order_mark_is_dropped(flag, corpus_file, tmp_path, capsys):
    """Each text input reads the same with a leading UTF-8 byte-order mark,
    as Windows editors write one, as without it."""
    model = tmp_path / "model"
    assert main(train_args(corpus_file, model)) == 0
    negative = tmp_path / "negative.txt"
    negative.write_text("flern\n")
    content = {
        "--corpus": corpus_file.read_text(),
        "--sentiment-dict": "zorp\tsentiment\t1.0\n",
        "--positive-words": "zorp\n",
        "--config": "population_size=10\n",
        "--model": model.read_text(),
        "--input": "zorp blick\nnot zorp\n",
    }[flag]
    results = []
    for mark in ("", "\ufeff"):
        path, out = tmp_path / f"input{len(mark)}", tmp_path / f"out{len(mark)}"
        path.write_text(mark + content, encoding="utf-8")
        args = train_args(corpus_file, out)
        if flag == "--corpus":
            args[2] = str(path)
        elif flag == "--positive-words":
            args += [flag, str(path), "--negative-words", str(negative)]
        elif flag == "--model":
            args = ["predict", "--model", str(path), "--text", "zorp blick"]
        elif flag == "--input":
            args = ["predict", "--model", str(model), "--input", str(path), "--out", str(out)]
        else:
            args += [flag, str(path)]
        capsys.readouterr()
        assert main(args) == 0, capsys.readouterr().err
        results.append(out.read_bytes() if out.exists() else capsys.readouterr().out)
    assert results[0] == results[1]


def test_corpus_error_names_the_bad_one_of_two_files(corpus_file, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("positive\tgood\nneutral\tmeh\n")
    args = [*train_args(corpus_file, tmp_path / "model"), "--corpus", str(bad)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 2: unknown label 'neutral'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--instances", "7"], "--instances"),
        (["synth", "--instances", "-2"], "--instances"),
        (["synth", "--instances", "0"], "--instances"),
        (["synth", "--min-length", "0"], "--min-length"),
        (["synth", "--min-length", "5", "--max-length", "2"], "--min-length"),
        (["synth", "--planted-words", "0"], "--planted-words"),
        (["synth", "--filler-words", "-1"], "--filler-words"),
        (["holdout", "--train-fraction", "1.5"], "--train-fraction"),
        (["holdout", "--train-fraction", "0"], "--train-fraction"),
        (["cv-sentamp", "--folds", "1"], "--folds"),
    ],
)
def test_invalid_flag_value_exits_1(argv, message, corpus_file, tmp_path, capsys):
    out = tmp_path / "out.tsv"
    if argv[0] == "synth":
        argv = [*argv, "--out", str(out)]
    else:
        argv = [*argv, "--corpus", str(corpus_file), "--report-out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error:") and message in captured.err


@pytest.mark.parametrize(
    "labels, flags, message",
    [
        (["positive", "positive"], [], "corpus has no negative instances"),
        # at the default --train-fraction each one-instance class trains
        (["positive", "negative"], [], "leaves the test side empty"),
        (["positive", "negative"], ["--train-fraction", "0.2"], "leaves the train side empty"),
    ],
)
def test_holdout_impossible_split_exits_1(labels, flags, message, tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("".join(f"{label}\tzorp\n" for label in labels))
    report = tmp_path / "report.tsv"
    argv = ["holdout", "--corpus", str(corpus), "--report-out", str(report), *flags]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    assert captured.err.startswith("error:") and message in captured.err


class TestSynth:
    def test_writes_corpus_and_lexicon(self, tmp_path, capsys):
        out = tmp_path / "synth.tsv"
        lex = tmp_path / "truth.tsv"
        code = main(
            [
                "synth",
                "--out",
                str(out),
                "--instances",
                "40",
                "--planted-words",
                "6",
                "--filler-words",
                "2",
                "--seed",
                "5",
                "--lexicon-out",
                str(lex),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 40
        assert len(lex.read_text().splitlines()) == 8

    def test_deterministic(self, tmp_path):
        args = ["synth", "--instances", "20", "--planted-words", "4", "--seed", "11"]
        o1, o2 = tmp_path / "a", tmp_path / "b"
        main(args + ["--out", str(o1)])
        main(args + ["--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_config_flag_rejected(self, tmp_path):
        out = tmp_path / "c.tsv"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(out), "--config", str(tmp_path / "ga.conf")])
        assert exc.value.code == 1
        assert not out.exists()

    def test_planted_lexicon_file(self, tmp_path):
        lex = tmp_path / "planted.tsv"
        lex.write_text(
            "up\tsentiment\t1.0\ndown\tsentiment\t-1.0\nmeh\tsentiment\t0.0\n"
        )
        out = tmp_path / "c.tsv"
        code = main(
            ["synth", "--out", str(out), "--instances", "10", "--lexicon", str(lex)]
        )
        assert code == 0
        tokens = {
            tok
            for line in out.read_text().splitlines()
            for tok in line.split("\t")[1].split()
        }
        assert tokens <= {"up", "down", "meh"}

    @pytest.mark.parametrize("word", ["well-done", "good!", "snake_case"])
    def test_planted_word_that_splits_exits_1(self, word, tmp_path, capsys):
        """A planted word that tokenizes to other tokens would write a corpus
        whose ground truth the tokens it loads back as do not match."""
        lex = tmp_path / "planted.tsv"
        lex.write_text(f"bad\tsentiment\t-1.0\n{word}\tsentiment\t1.0\n")
        out = tmp_path / "c.tsv"
        assert main(["synth", "--out", str(out), "--lexicon", str(lex)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {lex}: line 2: expected a single word, got {word!r}\n"
        assert not out.exists()

    def test_planted_lexicon_without_sentiment_exits_1(self, tmp_path, capsys):
        lex = tmp_path / "planted.tsv"
        lex.write_text("meh\tsentiment\t0.0\n")
        out = tmp_path / "c.tsv"
        assert main(["synth", "--out", str(out), "--lexicon", str(lex)]) == 1
        assert "nonzero" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_amplifier_is_planted_not_a_filler(self, tmp_path):
        """An amplifier 0 adds to the PROSE accumulator, which a filler, a
        neutral sentiment word, would consume: every label is the sign of
        the reference score, and the ground truth keeps the amplifier."""
        lex, out, truth_out = (tmp_path / name for name in ("planted.tsv", "c.tsv", "truth.tsv"))
        lex.write_text(
            "big\tamplifier\t1.5\nzero\tamplifier\t0.0\n"
            "good\tsentiment\t1.0\nbad\tsentiment\t-1.0\n"
        )
        flags = "--semantics prose --instances 200 --min-length 3 --max-length 3 --seed 3"
        argv = ["synth", "--out", str(out), "--lexicon", str(lex), "--lexicon-out", str(truth_out)]
        assert main(argv + flags.split()) == 0
        truth = parse_lexicon(lex)
        assert parse_lexicon(truth_out) == truth
        for inst in load_corpus(out).instances:
            score = reference_sentence_score([truth[w] for w in inst.tokens], prose=True)
            assert score > 0.0 if inst.label is Label.POSITIVE else score < 0.0, inst.tokens

    @pytest.mark.parametrize(
        "flags, lexicon",
        [
            (["--instances", "200", "--planted-words", "1", "--filler-words", "0", "--seed", "8"],
             None),
            # nonzero words of one sign and no amplifier
            (["--instances", "20"], "up\tsentiment\t1\nfine\tsentiment\t0.5\nmeh\tsentiment\t0\n"),
        ],
        ids=["one-planted-word", "one-signed-lexicon"],
    )
    def test_unbalanceable_request_exits_1(self, flags, lexicon, tmp_path, capsys):
        out = tmp_path / "c.tsv"
        argv = ["synth", "--out", str(out), *flags]
        if lexicon is not None:
            (tmp_path / "planted.tsv").write_text(lexicon)
            argv += ["--lexicon", str(tmp_path / "planted.tsv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "could not balance" in err
        assert not out.exists()


class TestReports:
    def test_holdout_report(self, corpus_file, tmp_path, capsys):
        report_path = tmp_path / "report.tsv"
        code = main(
            [
                "holdout",
                "--corpus",
                str(corpus_file),
                "--seed",
                "2",
                "--pop",
                "10",
                "--generations",
                "5",
                "--report-out",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean_accuracy" in out
        assert report_path.read_text().startswith("protocol\tholdout-accuracy\n")

    def test_cv_sentamp(self, tmp_path, capsys):
        # corpus where dictionary words appear often enough to cross-validate
        corpus = tmp_path / "c.tsv"
        rows = []
        for i in range(10):
            rows.append(("positive", "good good fine"))
            rows.append(("negative", "bad bad fine"))
        corpus.write_text("".join(f"{l}\t{t}\n" for l, t in rows))
        pos = tmp_path / "pos.txt"
        neg = tmp_path / "neg.txt"
        pos.write_text("good\n")
        neg.write_text("bad\n")
        code = main(
            [
                "cv-sentamp",
                "--corpus",
                str(corpus),
                "--positive-words",
                str(pos),
                "--negative-words",
                str(neg),
                "--folds",
                "2",
                "--seed",
                "1",
                "--pop",
                "10",
                "--generations",
                "5",
            ]
        )
        assert code == 0
        assert "protocol" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cv-sentamp", "--sentiment-dict", "LEX", "--folds", "4"],
             "the 3 dictionary words that pass the frequency threshold 0 into 4 folds"),
            (["cv-polarity", "--sentiment-dict", "LEX", "--freq-threshold", "100", "--folds", "2"],
             "threshold 100"),
            (["cv-polarity", "--sentiment-dict", "LEX", "--freq-threshold", "-3"],
             "--freq-threshold must be non-negative"),
            (["cv-sentamp", "--folds", "2"], "the 0 dictionary words"),  # default dictionary
        ],
        ids=["more-folds-than-words", "threshold-too-high", "negative-threshold", "empty-dict"],
    )
    def test_word_cv_bad_input_exits_1_before_training(
        self, argv, message, corpus_file, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("trained on bad input")

        monkeypatch.setattr(experiments, "train", no_training)
        lexicon = tmp_path / "lex.tsv"
        lexicon.write_text("".join(f"{w}\tsentiment\t1.0\n" for w in ("zorp", "blick", "quux")))
        report = tmp_path / "report.tsv"
        argv = [str(lexicon) if a == "LEX" else a for a in argv]
        assert main([*argv, "--corpus", str(corpus_file), "--report-out", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not report.exists()
        assert captured.err.startswith("error:") and message in captured.err


class TestExportLexicon:
    def test_round_trip(self, corpus_file, tmp_path):
        model_path = tmp_path / "model.tsv"
        main(train_args(corpus_file, model_path))
        out = tmp_path / "lex.tsv"
        assert main(["export-lexicon", "--model", str(model_path), "--out", str(out)]) == 0
        words = [line.split("\t")[0] for line in out.read_text().splitlines()]
        assert words == ["zorp", "blick", "quux", "flern"]
