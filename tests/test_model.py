import collections
import dataclasses
import io
import itertools
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evosent.cagasa
import evosent.cli
import evosent.model
from evosent.cagasa import (
    MAX_CONTEXT,
    CagasaGene,
    ContextRule,
    random_cagasa_chromosome,
)
from evosent.cli import main
from evosent.corpus import UnknownWordIndex, build_unknown_index, tokenize_block
from evosent.evaluator import Semantics, slot_table
from evosent.ga_engine import GAConfig
from evosent.gasa import GasaChromosome, compiler
from evosent.lexicon import EVOLVABLE_PAIRS, Dictionary, Kind, seed_amplifier_dictionary
from evosent.model import ModelFormatError, TrainedModel, load_model, save_model

import oracles
from conftest import A, S, make_corpus, neighbor_pools, predicted
from oracles import cagasa_chromosome, cagasa_verdict, gasa_chromosome, gasa_verdict

NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])

# Any printable text, tabs and line breaks included, or a value that is valid
# in some field of a model file.
FIELD_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs", "Cc")) | st.sampled_from("\t\n\r")),
    st.sampled_from(
        ["", "0", "1", "3", "4", "-1", "99", "1.5", "-0.5", "sentiment", "amplifier",
         "gasa", "cagasa", "prose", "zorp", "blick", "good", "not", "never", "a,b"]
    ),
)


def gasa_model():
    corpus = make_corpus([(["zorp", "blick"], "positive")])
    sd = Dictionary({"good": S(1.0)}, Kind.SENTIMENT)
    ad = seed_amplifier_dictionary()
    index = build_unknown_index(corpus, sd, ad)
    return TrainedModel(
        algo="gasa",
        semantics=Semantics.PROSE,
        config=GAConfig(population_size=50, seed=3),
        sentiment_dict=sd,
        amplifier_dict=ad,
        index=index,
        chromosome=gasa_chromosome((S(-1.0), A(0.5))),
        best_fitness=1,
        train_instances=1,
    )


def cagasa_model():
    corpus = make_corpus([(["zorp", "blick", "zorp"], "positive")])
    sd = Dictionary({}, Kind.SENTIMENT)
    ad = seed_amplifier_dictionary()
    index = build_unknown_index(corpus, sd, ad)
    chromosome = random_cagasa_chromosome(*neighbor_pools(corpus, index), random.Random(1))
    return TrainedModel(
        algo="cagasa",
        semantics=Semantics.LITERAL,
        config=GAConfig(seed=7),
        sentiment_dict=sd,
        amplifier_dict=ad,
        index=index,
        chromosome=chromosome,
        best_fitness=1,
        train_instances=1,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("make", [gasa_model, cagasa_model])
    def test_all_fields_preserved(self, make, tmp_path):
        model = make()
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.algo == model.algo
        assert loaded.semantics is model.semantics
        assert loaded.config == model.config
        assert loaded.sentiment_dict.entries == model.sentiment_dict.entries
        assert loaded.amplifier_dict.entries == model.amplifier_dict.entries
        assert loaded.index.words == model.index.words
        # a loaded CA-GASA genome's word table holds only its list words
        assert loaded.chromosome.genes == model.chromosome.genes
        assert loaded.best_fitness == model.best_fitness
        assert loaded.train_instances == model.train_instances

    @pytest.mark.parametrize("make", [gasa_model, cagasa_model])
    def test_crlf_file_loads_as_lf(self, make, tmp_path):
        lf, crlf, again = tmp_path / "lf", tmp_path / "crlf", tmp_path / "again"
        save_model(make(), lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        save_model(load_model(crlf), again)
        assert again.read_bytes() == lf.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_model(gasa_model(), p1)
        save_model(gasa_model(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    # Huge values overflow to inf and nan in the model and the oracle alike;
    # numpy warns.
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @given(
        make=st.sampled_from([gasa_model, cagasa_model]),
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4
        ),
    )
    def test_arbitrary_finite_dictionary_values(self, make, values):
        good, bad, negator, very = values
        model = dataclasses.replace(
            make(),
            sentiment_dict=Dictionary({"good": S(good), "bad": S(bad)}, Kind.SENTIMENT),
            amplifier_dict=Dictionary({"not": A(negator), "very": A(very)}, Kind.AMPLIFIER),
        )
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a"), Path(tmp, "b")
            save_model(model, first)
            loaded = load_model(first)
            save_model(loaded, second)
            assert first.read_bytes() == second.read_bytes()
        assert loaded.sentiment_dict == model.sentiment_dict
        assert loaded.amplifier_dict == model.amplifier_dict
        verdict = gasa_verdict if model.algo == "gasa" else cagasa_verdict
        words = ["good", "bad", "not", "very", "zorp", "blick", "unseen"]
        token_lists = list(itertools.permutations(words, 3))
        expected = [
            verdict(model.chromosome, tokens, model.index, model.sentiment_dict,
                    model.amplifier_dict, model.semantics)
            for tokens in token_lists
        ]
        assert predicted(loaded, token_lists) == expected

    def test_word_in_both_dictionaries(self, tmp_path):
        """`save_model` writes a word in both dictionaries, so it loads."""
        model = dataclasses.replace(
            gasa_model(), sentiment_dict=Dictionary({"not": S(1.0)}, Kind.SENTIMENT)
        )
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert loaded.sentiment_dict == model.sentiment_dict
        assert loaded.amplifier_dict == model.amplifier_dict

    def test_predict_reads_the_slot_table(self):
        model = gasa_model()
        table = slot_table(model.index, model.sentiment_dict, model.amplifier_dict)
        assert model.table == table
        sd, ad = model.sentiment_dict, model.amplifier_dict
        for tokens in itertools.permutations(["good", "not", "zorp", "blick", "unseen"], 3):
            assert model.predict(tokens).value == gasa_verdict(
                model.chromosome, tokens, model.index, sd, ad, model.semantics
            )

    @given(st.lists(st.integers(0, len(EVOLVABLE_PAIRS) - 1), max_size=12).map(bytes))
    def test_code_genome_round_trip(self, codes):
        words = tuple(f"w{k}" for k in range(len(codes)))
        model = dataclasses.replace(
            gasa_model(),
            index=UnknownWordIndex(words, {w: k for k, w in enumerate(words)}),
            chromosome=GasaChromosome(codes),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "m")
            save_model(model, path)
            loaded = load_model(path)
        assert loaded.chromosome == model.chromosome
        assert loaded.gene_pairs() == [EVOLVABLE_PAIRS[c] for c in codes]

    def test_gene_pairs_context_free(self):
        model = cagasa_model()
        pairs = model.gene_pairs()
        assert pairs == [g.context_free_pair for g in model.chromosome.genes]


class TestFormatErrors:
    def test_missing_version(self, tmp_path):
        path = tmp_path / "m"
        path.write_text("algo\tgasa\n")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_unknown_algo(self, tmp_path):
        path = tmp_path / "m"
        path.write_text("model\t1\nalgo\tmystery\n")
        with pytest.raises(ModelFormatError, match="algo"):
            load_model(path)

    def test_bad_gene_record(self, tmp_path):
        path = tmp_path / "m"
        path.write_text("model\t1\ngene\tonly_two\n")
        with pytest.raises(ModelFormatError, match="line 2"):
            load_model(path)

    def test_mixed_gene_kinds(self, tmp_path):
        model = gasa_model()
        path = tmp_path / "m"
        save_model(model, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(
                "cgene\tw\t1\t1\t\t\t1\t1\tsentiment\t1.0\tsentiment\t0.0\n"
            )
        with pytest.raises(ModelFormatError, match="context genes"):
            load_model(path)

    def _saved_lines(self, make, tmp_path):
        path = tmp_path / "m"
        save_model(make(), path)
        return path, path.read_text().splitlines()

    @given(value=NON_FINITE, record=st.sampled_from(["dict", "gene", "cgene"]))
    def test_non_finite_values_rejected(self, value, record):
        make = cagasa_model if record == "cgene" else gasa_model
        with tempfile.TemporaryDirectory() as tmp:
            path, lines = self._saved_lines(make, Path(tmp))
            lineno = next(i for i, line in enumerate(lines) if line.startswith(f"{record}\t"))
            fields = lines[lineno].split("\t")
            fields[-1] = value
            lines[lineno] = "\t".join(fields)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ModelFormatError, match=f"line {lineno + 1}: non-finite"):
                load_model(path)

    @pytest.mark.parametrize(
        "field, text",
        [(2, "x"), (3, "1.5"), (6, ""), (7, "two"), (4, "a,b,c,d")],
    )
    def test_bad_cgene_field(self, field, text, tmp_path):
        path, lines = self._saved_lines(cagasa_model, tmp_path)
        lineno = next(i for i, line in enumerate(lines) if line.startswith("cgene\t"))
        fields = lines[lineno].split("\t")
        fields[2] = fields[3] = "3"  # capacity 3 holds any sampled list
        fields[field] = text
        lines[lineno] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=f"line {lineno + 1}"):
            load_model(path)

    @pytest.mark.parametrize(
        "make, tag, occurrence, field, text, match",
        [
            (gasa_model, "population_size", 0, 1, "-1", "population_size"),
            (gasa_model, "tournament_size", 0, 1, "51", "tournament_size"),
            (gasa_model, "crossover_rate", 0, 1, "0.900000", "must equal 1.0"),
            (gasa_model, "max_generations", 0, 1, "-5", "max_generations"),
            (gasa_model, "best_fitness", 0, 1, "2", "best_fitness 2 is outside"),
            (gasa_model, "best_fitness", 0, 1, "-1", "best_fitness -1 is outside"),
            (gasa_model, "train_instances", 0, 1, "0", "best_fitness 1 is outside"),
            (gasa_model, "gene", 0, 3, "9.0", "not evolvable"),
            (gasa_model, "gene", 1, 2, "sentiment", "not evolvable"),
            (cagasa_model, "cgene", 0, 9, "9.0", "not evolvable"),
            (cagasa_model, "cgene", 1, 11, "-0.5", "not evolvable"),
            (gasa_model, "gene", 1, 1, "zorp", "duplicate gene word 'zorp'"),
            (cagasa_model, "cgene", 1, 1, "zorp", "duplicate gene word 'zorp'"),
            (gasa_model, "gene", 0, 1, "good", "'good' is also a dictionary word"),
            (gasa_model, "gene", 1, 1, "not", "'not' is also a dictionary word"),
            (cagasa_model, "cgene", 0, 1, "never", "'never' is also a dictionary word"),
            (cagasa_model, "cgene", 0, 2, "99", "next_size 99 is outside 1..3"),
            (cagasa_model, "cgene", 1, 3, "0", "previous_size 0 is outside 1..3"),
            (cagasa_model, "cgene", 0, 6, "0", "number_ahead 0 is outside 1..3"),
            (cagasa_model, "cgene", 1, 7, "-4", "number_behind -4 is outside 1..3"),
            (cagasa_model, "cgene", 0, 7, "4", "number_behind 4 is outside 1..3"),
            (gasa_model, "dict", 2, 1, "not", "duplicate amplifier word 'not'"),
            # a word no token can match
            (gasa_model, "gene", 0, 1, "Good-Day", "line 15: expected a single word, got 'Good-"),
            (gasa_model, "gene", 1, 1, "Zorp", "expected a single word, got 'Zorp'"),
            (gasa_model, "dict", 0, 1, "well-done", "line 12: expected a single word"),
            (gasa_model, "dict", 1, 1, "", "expected a single word, got ''"),
            (cagasa_model, "cgene", 0, 1, "a b", "expected a single word, got 'a b'"),
            (cagasa_model, "cgene", 0, 4, "good!", "expected a single word, got 'good!'"),
            (cagasa_model, "cgene", 1, 5, "Blick", "expected a single word, got 'Blick'"),
        ],
    )
    def test_inconsistent_model_rejected(
        self, make, tag, occurrence, field, text, match, tmp_path
    ):
        path, lines = self._saved_lines(make, tmp_path)
        lineno = [i for i, line in enumerate(lines) if line.startswith(f"{tag}\t")][occurrence]
        fields = lines[lineno].split("\t")
        fields[field] = text
        lines[lineno] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    @pytest.mark.parametrize(
        "appended, match",
        [
            (["semantics\tprose"], "line 17: repeated header record 'semantics'"),
            (["bogus_field\tx"], "line 17: unknown header record 'bogus_field'"),
            (["seed\t5"], "line 17: repeated header record 'seed'"),
            (["semantics\tprose", "bogus_field\tx"], "line 17: repeated header record"),
        ],
    )
    def test_header_record_appended(self, appended, match, tmp_path):
        def literal():
            return dataclasses.replace(gasa_model(), semantics=Semantics.LITERAL)

        path, lines = self._saved_lines(literal, tmp_path)
        assert len(lines) == 16 and "semantics\tliteral" in lines
        path.write_text("\n".join(lines + appended) + "\n")
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    @settings(max_examples=300, deadline=None)
    @given(make=st.sampled_from([gasa_model, cagasa_model]), data=st.data())
    def test_any_single_field_corruption(self, make, data):
        """A model with one field replaced loads or raises ModelFormatError,
        and `predict` exits 0 or 1 accordingly."""
        with tempfile.TemporaryDirectory() as tmp:
            path, lines = self._saved_lines(make, Path(tmp))
            lineno = data.draw(st.integers(0, len(lines) - 1), label="line")
            fields = lines[lineno].split("\t")
            field = data.draw(st.integers(0, len(fields) - 1), label="field")
            fields[field] = data.draw(FIELD_TEXT, label="text")
            lines[lineno] = "\t".join(fields)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            try:
                load_model(path)
                rejected = False
            except ModelFormatError:
                rejected = True
            argv = ["predict", "--model", str(path), "--text", "zorp blick good not x"]
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code == (1 if rejected else 0)


# Gene words, dictionary words, a word missing from the model, and
# punctuation, which tokenizes to nothing, or a word in other case. Any word may be in a dictionary,
# in both or be a gene word.
LINE_WORDS = ["g0", "g1", "g2", "good", "bad", "not", "very", "oov", "café"]
line_word = st.sampled_from(LINE_WORDS)
line_texts = st.one_of(
    st.lists(line_word | st.sampled_from(["!", "...", ", --", "Café", "ΑΣ"]), max_size=9).map(
        " ".join
    ),
    # repeated neighbours: w x x x y
    st.builds(
        lambda w, x, n, y: " ".join([w] + [x] * n + [y]),
        line_word, line_word, st.integers(1, 4), line_word,
    ),
)


@st.composite
def dictionaries(draw):
    """Sentiment and amplifier dictionaries over the line words, with exact
    small values or any finite ones; they may overlap, as nothing but
    `check_disjoint` keeps them apart."""
    values = st.sampled_from([-1.5, -1.0, -0.25, 0.0, 0.5, 1.0, 1.25, 2.0]) | st.floats(
        allow_nan=False, allow_infinity=False
    )
    sentiment = draw(st.dictionaries(line_word, values.map(S), max_size=4))
    amplifier = draw(st.dictionaries(line_word, values.map(A), max_size=4))
    return Dictionary(sentiment, Kind.SENTIMENT), Dictionary(amplifier, Kind.AMPLIFIER)


@st.composite
def context_genes(draw):
    """A gene with any fields a rule allows, zero capacities and look
    distances among them, whose lists may name words that no line holds."""
    list_words = st.sampled_from(LINE_WORDS + ["absent"])
    sizes = st.integers(0, MAX_CONTEXT)
    next_size, previous_size = draw(sizes), draw(sizes)
    rule = ContextRule(
        next_size=next_size,
        previous_size=previous_size,
        list_next=frozenset(draw(st.lists(list_words, max_size=next_size))),
        list_previous=frozenset(draw(st.lists(list_words, max_size=previous_size))),
        number_ahead=draw(sizes),
        number_behind=draw(sizes),
        context_pair=draw(st.sampled_from(EVOLVABLE_PAIRS)),
    )
    return CagasaGene(rule, draw(st.sampled_from(EVOLVABLE_PAIRS)))


class TestBlockPath:
    """`evosent predict` with both algorithms' models against the per-token
    oracles, with blocks and slices small enough that lines cross both, one
    line longer than a slice, CRLF-ended lines and a `--text` that holds
    "\n". The model is the one drawn, not one loaded back: a saved model
    holds no zero-capacity rule and no gene word that is a dictionary word."""

    # Huge values overflow to inf and nan in both paths alike; numpy warns.
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        algo=st.sampled_from(["gasa", "cagasa"]),
        semantics=st.sampled_from(list(Semantics)),
        dicts=dictionaries(),
        gene_words=st.lists(line_word, unique=True, max_size=6),
        lines=st.lists(st.tuples(line_texts, st.sampled_from(["\n", "\r\n"])), max_size=12),
        long_line=st.lists(line_word, min_size=7, max_size=12).map(" ".join),
        text=st.lists(line_texts, min_size=2, max_size=3).map("\n".join),
    )
    def test_matches_oracle_line_by_line(
        self, data, algo, semantics, dicts, gene_words, lines, long_line, text
    ):
        sd, ad = dicts
        # a gene word that is also a dictionary word is dead
        index = UnknownWordIndex(tuple(gene_words), {w: k for k, w in enumerate(gene_words)})
        if algo == "gasa":
            code = st.integers(0, len(EVOLVABLE_PAIRS) - 1)
            codes = st.lists(code, min_size=len(gene_words), max_size=len(gene_words))
            chromosome, verdict = GasaChromosome(bytes(data.draw(codes))), gasa_verdict
        else:
            genes = tuple(data.draw(context_genes()) for _ in gene_words)
            chromosome, verdict = cagasa_chromosome(genes), cagasa_verdict
        model = TrainedModel(algo, semantics, GAConfig(), sd, ad, index, chromosome, 0, 0)
        lines.insert(data.draw(st.integers(0, len(lines))), (long_line, "\n"))
        texts = [line for line, _ in lines] + [text]

        token_lists = [oracles.tokenize(t) for t in texts]
        vocabulary = collections.defaultdict(itertools.count().__next__)
        ids, lengths = tokenize_block(texts, vocabulary)
        words = list(vocabulary)
        assert [words[k] for k in ids.tolist()] == [t for line in token_lists for t in line]
        assert lengths.tolist() == [len(line) for line in token_lists]

        def shown(tokens):
            label = verdict(chromosome, tokens, index, sd, ad, semantics)
            return "negative\ttie" if label == "tie" else f"{label}\t-"

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(evosent.cli, "load_model", lambda path: model)
            patch.setattr(evosent.cli, "PREDICT_BLOCK_LINES", 3)
            for module in (evosent.model, evosent.cagasa):
                patch.setattr(module, "SLICE_CELLS", 6)
            inp, out = Path(tmp, "in.txt"), Path(tmp, "out.txt")
            inp.write_bytes("".join(line + end for line, end in lines).encode())
            argv = ["predict", "--model", str(inp), "--show-ties"]
            assert main([*argv, "--input", str(inp), "--out", str(out)]) == 0
            assert out.read_text().split("\n") == [*map(shown, token_lists[:-1]), ""]
            with redirect_stdout(io.StringIO()) as stdout:
                assert main([*argv, "--text", text]) == 0
            assert stdout.getvalue() == shown(token_lists[-1]) + "\n"

    @pytest.mark.parametrize("make", [gasa_model, cagasa_model])
    def test_each_compile_holds_one_slice(self, make, monkeypatch):
        """`sentence_scores` resolves a block's words once, with one
        `compiler`, and compiles each slice alone: every compile holds at
        most SLICE_CELLS rows times width, or a single line, and the
        compiles hold each line of the block exactly once."""
        model = make()
        token_lists = [["zorp", "blick", "good"][: k % 4] * (1 + k // 4) for k in range(12)]
        expected = predicted(model, token_lists)
        built, calls = [], []

        def spy(words, table):
            compile_sentences, names = compiler(words, table), list(words)
            built.append(names)

            def spied(ids, lengths, *rest):
                counts = np.asarray(lengths).tolist()
                tokens, ends = [names[k] for k in ids.tolist()], np.cumsum(counts).tolist()
                calls.append([tokens[end - n : end] for end, n in zip(ends, counts)])
                return compile_sentences(ids, lengths, *rest)

            return spied

        monkeypatch.setattr(evosent.model, "SLICE_CELLS", 6)
        monkeypatch.setattr(evosent.model, "compiler", spy)
        assert predicted(model, token_lists) == expected
        assert built == [["zorp", "blick", "good"]]
        assert len(calls) > 1
        for lines in calls:
            assert len(lines) == 1 or len(lines) * max(map(len, lines)) <= 6
        assert sorted(line for lines in calls for line in lines) == sorted(token_lists)
