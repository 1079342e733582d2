import dataclasses
import itertools
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from evosent.cagasa import corpus_neighbors, random_cagasa_chromosome
from evosent.corpus import build_unknown_index
from evosent.evaluator import Semantics, predict, slot_table
from evosent.ga_engine import GAConfig
from evosent.gasa import GasaChromosome
from evosent.lexicon import Dictionary, Kind, seed_amplifier_dictionary
from evosent.model import ModelFormatError, TrainedModel, load_model, save_model

from conftest import A, S, make_corpus

NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])


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
        chromosome=GasaChromosome((S(-1.0), A(0.5))),
        best_fitness=1,
        train_instances=1,
    )


def cagasa_model():
    corpus = make_corpus([(["zorp", "blick", "zorp"], "positive")])
    sd = Dictionary({}, Kind.SENTIMENT)
    ad = seed_amplifier_dictionary()
    index = build_unknown_index(corpus, sd, ad)
    chromosome = random_cagasa_chromosome(index, corpus_neighbors(corpus), random.Random(1))
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
        assert loaded.chromosome == model.chromosome
        assert loaded.best_fitness == model.best_fitness
        assert loaded.train_instances == model.train_instances

    def test_save_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_model(gasa_model(), p1)
        save_model(gasa_model(), p2)
        assert p1.read_bytes() == p2.read_bytes()

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
        before = slot_table(model.index, model.sentiment_dict, model.amplifier_dict)
        after = slot_table(loaded.index, loaded.sentiment_dict, loaded.amplifier_dict)
        words = ["good", "bad", "not", "very", "zorp", "blick", "unseen"]
        for tokens in itertools.permutations(words, 3):
            assert predict(loaded.chromosome, tokens, after, loaded.semantics) == predict(
                model.chromosome, tokens, before, model.semantics
            )

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
