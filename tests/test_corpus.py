import logging
import random
import sys
import tempfile
from collections import Counter, defaultdict
from itertools import count
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from evosent import corpus, lexicon
from evosent.corpus import (
    CorpusParseError,
    Instance,
    Label,
    SplitError,
    build_unknown_index,
    concat_corpora,
    load_corpus,
    make_folds,
    save_corpus,
    split_holdout,
    tokenize,
    tokenize_block,
    word_frequencies,
)
from evosent.lexicon import Dictionary, Kind, seed_amplifier_dictionary

from conftest import S, make_corpus

# Every code point a `str` can hold in UTF-8 text.
CODE_POINTS = [chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF]
# Text with line breaks, separators that are not whitespace, final and
# medial sigmas, a lowercase that grows, and characters beyond the BMP.
TEXTS = st.lists(
    st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from(
            ["\n", "\r", "\r\n", "_", "'", "\u2019", "\xa0", "\u2028", "\x85", "\u0130",
             "ΑΣ", "aΣ", "Σ\u0301", "ς", "Σa", "don't", "Word", "\U0001d538", "\U0001f600"]
        ),
    ),
    max_size=12,
).map("".join)
LABELS = st.sampled_from(["positive", "negative", " Negative", "POSITIVE "])
# Label fields near a label: whitespace that `str.strip` removes, mixed
# case, a lowercase that grows, a letter that only casefolds to "s",
# punctuation, inner space and an empty field.
NEAR_MISSES = ["\x85positive", "positive\xa0", "\u3000Negative", "PoSiTiVe", "positive!",
               "pos\u0130tive", "po\u017fitive", "pos itive", ""]


class TestTokenize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("I LOVE it!", ["i", "love", "it"]),
            ("", []),
            ("don't stop", ["don't", "stop"]),
            ("snake_case splits", ["snake", "case", "splits"]),
            ("semi-colons, dashes...and  spaces", ["semi", "colons", "dashes", "and", "spaces"]),
            ("42 3rd", ["42", "3rd"]),
        ],
    )
    def test_rules(self, text, expected):
        assert tokenize(text) == expected

    def test_deterministic(self):
        text = "Some, fairly! long TEXT with   mixed-up punctuation?"
        assert tokenize(text) == tokenize(text)

    @pytest.mark.parametrize("sep", [" ", "_", "'"])
    def test_every_code_point_matches_oracle(self, sep, monkeypatch):
        # a table of its own, so that every code point is mapped afresh
        monkeypatch.setattr(lexicon, "_SEPARATORS", lexicon._Separators())
        text = sep.join(CODE_POINTS)
        assert tokenize(text) == oracles.tokenize(text)

    def test_table_keeps_the_bmp_only(self, monkeypatch):
        # code points past the BMP are mapped again each time, and alike
        monkeypatch.setattr(lexicon, "_SEPARATORS", lexicon._Separators())
        text = " ".join(CODE_POINTS)
        first = tokenize(text)
        assert len(lexicon._SEPARATORS) <= 0x10000
        assert max(lexicon._SEPARATORS) < 0x10000
        assert tokenize(text) == first

    @pytest.mark.parametrize("block_chars", [1, 7])
    @given(st.lists(st.one_of(st.none(), st.tuples(LABELS, TEXTS)), max_size=10))
    @example([])
    @example([None, ("positive", ""), None])
    @example([("positive", "AΣ"), ("negative", "Σ"), ("positive", "a\rΣ"), ("negative", "İ")])
    def test_lines_match_oracle(self, block_chars, rows):
        """`load_corpus` on lines drawn as (label, text) rows, or None for a
        blank line, labels and tokenizes each line as `oracles.tokenize` does
        alone, and skips blank lines and lines with no tokens. Its words are
        in order of first occurrence."""
        lines = ["" if row is None else f"{row[0]}\t{row[1].replace(chr(10), ' ')}" for row in rows]
        expected = [
            Instance(tuple(tokens), Label(label.strip().lower()))
            for label, text in filter(None, rows)
            if (tokens := oracles.tokenize(text))
        ]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "TOKENIZE_BLOCK_CHARS", block_chars)
            path = Path(tmp, "c.tsv")
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            loaded = load_corpus(path)
        assert loaded.instances == tuple(expected)
        assert loaded.words == tuple(dict.fromkeys(t for i in expected for t in i.tokens))
        assert (loaded.ids.dtype, loaded.lengths.dtype) == (np.int32, np.int64)

    @pytest.mark.parametrize("block_chars", [1, 7])
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.tuples(st.one_of(LABELS, st.sampled_from(NEAR_MISSES)), TEXTS),
                TEXTS.map(lambda text: text.replace("\t", " ")),
            ),
            max_size=10,
        )
    )
    @example([("positive", "good"), None, ("pos\u0130tive", "x"), ("neutral", "y")])
    @example([("positive", "a"), "no tab", ("neutral", "b")])
    @example([None, *[(label, "x") for label in NEAR_MISSES]])
    def test_label_rule_matches_oracle(self, block_chars, rows):
        """`load_corpus` accepts lines drawn as (label field, text) rows, lines
        with no tab, or None for a blank line, exactly when the per-line
        `oracles.reference_load_corpus` does, and otherwise names the file
        and the oracle's first bad line."""
        rows = [row if row is None or isinstance(row, str) else "\t".join(row) for row in rows]
        # a line break within a line would end it in the file
        lines = ["" if row is None else row.replace("\n", " ").replace("\r", " ") for row in rows]
        try:
            expected, error = oracles.reference_load_corpus(lines), None
        except ValueError as exc:
            expected, error = None, str(exc)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "TOKENIZE_BLOCK_CHARS", block_chars)
            path = Path(tmp, "c.tsv")
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            if error is None:
                assert load_corpus(path).instances == tuple(expected)
            else:
                with pytest.raises(CorpusParseError) as raised:
                    load_corpus(path)
                assert str(raised.value) == f"{path}: {error}"

    def test_lines_fall_back_for_newlines_and_non_ascii(self, monkeypatch):
        calls = []
        monkeypatch.setattr(corpus, "translate", lambda t: calls.append(t) or lexicon.translate(t))
        vocabulary = defaultdict(count().__next__)
        assert tokens_of(["A b", "", "c_d"], vocabulary) == [["a", "b"], [], ["c", "d"]]
        assert calls == ["A b\n\nc_d"]
        assert tokens_of(["a\nb", "c"], vocabulary) == [["a", "b"], ["c"]]
        assert calls[1:] == ["a\nb", "c"]
        assert tokens_of(["d", "Café"], vocabulary) == [["d"], ["café"]]
        assert calls[3:] == ["d", "Café"]
        assert vocabulary == {"a": 0, "b": 1, "c": 2, "d": 3, "café": 4}

    @pytest.mark.parametrize("block_chars", [1, 7, 1 << 16])
    @given(st.lists(TEXTS, max_size=10))
    @example([])
    @example(["", "", ""])
    @example(["AΣ", "Σ", "a\nΣ", "İ", " x"])
    @example(["...", "a b", "c"])  # a first text with no tokens
    @example(["a", "b c", ""])  # an empty last text
    @example(["ab", "...", "c d", "e"])  # each text a block of its own at block_chars 1
    def test_block_matches_oracle(self, block_chars, texts):
        """Ids of a vocabulary that holds some words already: a known word
        keeps its id and a new one takes the next."""
        token_lists = [oracles.tokenize(t) for t in texts]
        vocabulary = defaultdict(count(2).__next__, {"x": 0, "σ": 1})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "TOKENIZE_BLOCK_CHARS", block_chars)
            ids, lengths = tokenize_block(texts, vocabulary)
        words = list(vocabulary)
        assert [words[k] for k in ids.tolist()] == [t for line in token_lists for t in line]
        assert words[:2] == ["x", "σ"] and list(vocabulary.values()) == list(range(len(words)))
        assert (ids.dtype, lengths.dtype) == (np.int32, np.int64)
        assert lengths.tolist() == [len(line) for line in token_lists]


def tokens_of(texts, vocabulary) -> list:
    """Each text's tokens, read back from the ids `tokenize_block` gives."""
    ids, lengths = tokenize_block(texts, vocabulary)
    words, ends = list(vocabulary), np.cumsum(lengths).tolist()
    return [[words[k] for k in ids[end - n : end].tolist()] for end, n in zip(ends, lengths)]


class TestLoadCorpus:
    def test_basic(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("positive\tgreat phone\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert len(corpus) == 1
        assert corpus.instances[0].tokens == ("great", "phone")
        assert corpus.instances[0].label is Label.POSITIVE

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("", encoding="utf-8")
        assert len(load_corpus(path)) == 0

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("neutral\tmeh\n", encoding="utf-8")
        with pytest.raises(CorpusParseError, match="line 1"):
            load_corpus(path)

    def test_tokenless_instance_skipped(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("positive\t...\nnegative\tbad\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert len(corpus) == 1
        assert corpus.instances[0].label is Label.NEGATIVE

    def test_missing_tab(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("positive great phone\n", encoding="utf-8")
        with pytest.raises(CorpusParseError, match="line 1"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "bad,message",
        [("neutral\tmeh", "line 7: unknown label"), ("positive meh", "line 7: expected")],
    )
    def test_parse_error_past_first_block(self, tmp_path, monkeypatch, bad, message):
        monkeypatch.setattr(corpus, "TOKENIZE_BLOCK_CHARS", 4)
        path = tmp_path / "c.tsv"
        lines = ["positive\tgood phone"] * 3 + ["", "negative\tbad", "negative\t..."]
        path.write_text("\n".join([*lines, bad, "positive\tok"]) + "\n", encoding="utf-8")
        with pytest.raises(CorpusParseError, match=message):
            load_corpus(path)

    def test_tokenless_count_across_blocks(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setattr(corpus, "TOKENIZE_BLOCK_CHARS", 4)
        path = tmp_path / "c.tsv"
        rows = ["positive\t...", "negative\tbad", "negative\t_ -", "positive\tgood", "positive\t!"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="evosent.corpus"):
            loaded = load_corpus(path)
        assert [i.tokens for i in loaded.instances] == [("bad",), ("good",)]
        assert "c.tsv: skipped 3 instance(s) with no tokens" in caplog.text

    def test_each_block_is_one_translate_run(self, tmp_path, monkeypatch):
        """A block takes texts while they fit TOKENIZE_BLOCK_CHARS, so that
        `tokenize_block` translates it in one run; a longer text is a block
        alone."""
        monkeypatch.setattr(corpus, "TOKENIZE_BLOCK_CHARS", 10)
        calls = []
        monkeypatch.setattr(corpus, "translate", lambda t: calls.append(t) or lexicon.translate(t))
        texts = [f"w{k:02d}" for k in range(12)] + ["a long text", "x"]
        path = tmp_path / "c.tsv"
        path.write_text("".join(f"positive\t{t}\n" for t in texts), encoding="utf-8")
        loaded = load_corpus(path)
        assert [i.tokens for i in loaded.instances] == [tuple(t.split()) for t in texts]
        blocks = [texts[k : k + 3] for k in range(0, 12, 3)] + [["a long text"], ["x"]]
        assert calls == ["\n".join(block) for block in blocks]

    def test_crlf_matches_lf(self, tmp_path, monkeypatch):
        monkeypatch.setattr(corpus, "TOKENIZE_BLOCK_CHARS", 4)
        rows = ["positive\tGood phone", "negative\tbad ΑΣ", "positive\t...", "negative\tno"]
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes("\n".join(rows).encode() + b"\n")
        crlf.write_bytes("\r\n".join(rows).encode() + b"\r\n")
        assert load_corpus(crlf).instances == load_corpus(lf).instances
        assert len(load_corpus(lf)) == 3

    def test_lone_carriage_return_stays_in_its_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_bytes(b"positive\tgood\rbad one\nnegative\tno\n")
        loaded = load_corpus(path)
        assert [i.tokens for i in loaded.instances] == [("good", "bad", "one"), ("no",)]

    def test_save_round_trip(self, tmp_path):
        corpus = make_corpus([(["a", "b"], "positive"), (["c"], "negative")])
        path = tmp_path / "c.tsv"
        save_corpus(corpus, path)
        reloaded = load_corpus(path)
        assert reloaded.instances == corpus.instances


class TestUnknownIndex:
    def test_set_difference(self):
        corpus = make_corpus([(["good", "zorp"], "positive")])
        sd = Dictionary({"good": S(1.0)}, Kind.SENTIMENT)
        index = build_unknown_index(corpus, sd, seed_amplifier_dictionary())
        assert index.words == ("zorp",)
        assert index.position_of == {"zorp": 0}

    def test_fully_covered(self):
        corpus = make_corpus([(["good"], "positive")])
        sd = Dictionary({"good": S(1.0)}, Kind.SENTIMENT)
        index = build_unknown_index(corpus, sd, seed_amplifier_dictionary())
        assert len(index) == 0

    def test_first_occurrence_order(self):
        corpus = make_corpus([(["a", "b"], "positive"), (["b", "c"], "negative")])
        sd = Dictionary({}, Kind.SENTIMENT)
        index = build_unknown_index(corpus, sd, seed_amplifier_dictionary())
        assert index.words == ("a", "b", "c")

    def test_disjoint_from_dictionaries(self):
        corpus = make_corpus([(["good", "not", "zorp", "never"], "positive")])
        sd = Dictionary({"good": S(1.0)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        index = build_unknown_index(corpus, sd, ad)
        assert set(index.words) & (set(sd.entries) | set(ad.entries)) == set()


class TestWordFrequencies:
    def test_counts_tokens(self):
        corpus = make_corpus([(["a", "a", "b"], "positive")])
        assert word_frequencies(corpus) == Counter({"a": 2, "b": 1})

    def test_empty(self):
        assert word_frequencies(make_corpus([])) == Counter()

    def test_counts_across_instances(self):
        corpus = make_corpus([(["a"], "positive"), (["a"], "negative")])
        assert word_frequencies(corpus) == Counter({"a": 2})


class TestMakeFolds:
    def test_singletons(self):
        folds = make_folds(list(range(10)), 10, 1)
        assert sorted(x for fold in folds for x in fold) == list(range(10))
        assert all(len(fold) == 1 for fold in folds)

    def test_too_few_items(self):
        with pytest.raises(ValueError):
            make_folds(list(range(9)), 10, 1)

    def test_balanced_sizes(self):
        folds = make_folds(list(range(10)), 3, 1)
        assert sorted(len(f) for f in folds) == [3, 3, 4]

    def test_reproducible(self):
        items = list(range(40))
        assert make_folds(items, 7, 99) == make_folds(items, 7, 99)

    @given(
        st.lists(st.integers(), min_size=2, max_size=60, unique=True),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_partition_property(self, items, k, seed):
        if len(items) < k:
            with pytest.raises(ValueError):
                make_folds(items, k, seed)
            return
        folds = make_folds(items, k, seed)
        assert len(folds) == k
        flat = [x for fold in folds for x in fold]
        assert sorted(flat) == sorted(items)
        assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1


class TestSplitHoldout:
    def _balanced(self, n_per_class):
        rows = []
        for i in range(n_per_class):
            rows.append(([f"p{i}"], "positive"))
            rows.append(([f"n{i}"], "negative"))
        return make_corpus(rows)

    def test_paper_scale_split(self):
        corpus = self._balanced(1000)
        train, test = split_holdout(corpus, 0.7, 5)
        assert (len(train), len(test)) == (1400, 600)
        train_pos = sum(1 for i in train.instances if i.label is Label.POSITIVE)
        test_pos = sum(1 for i in test.instances if i.label is Label.POSITIVE)
        assert (train_pos, test_pos) == (700, 300)

    def test_minimal_rounds_half_up(self):
        corpus = self._balanced(1)
        train, test = split_holdout(corpus, 0.5, 5)
        assert len(train) == 2 and len(test) == 0
        train, test = split_holdout(corpus, 0.3, 5)
        assert len(train) == 0 and len(test) == 2

    def test_single_class_rejected(self):
        corpus = make_corpus([(["a"], "positive")])
        with pytest.raises(ValueError, match="negative"):
            split_holdout(corpus, 0.7, 5)

    def test_disjoint_union(self):
        corpus = self._balanced(17)
        train, test = split_holdout(corpus, 0.7, 11)
        combined = sorted(i.tokens for i in train.instances + test.instances)
        assert combined == sorted(i.tokens for i in corpus.instances)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            split_holdout(self._balanced(2), 1.0, 0)

    @given(
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=2, max_value=50),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stratification_property(self, n_pos, n_neg, fraction, seed):
        rows = [([f"p{i}"], "positive") for i in range(n_pos)]
        rows += [([f"n{i}"], "negative") for i in range(n_neg)]
        train, _test = split_holdout(make_corpus(rows), fraction, seed)
        train_pos = sum(1 for i in train.instances if i.label is Label.POSITIVE)
        train_neg = len(train) - train_pos
        assert abs(train_pos - n_pos * fraction) <= 1
        assert abs(train_neg - n_neg * fraction) <= 1


class TestConcat:
    def test_order_preserved(self):
        c1 = make_corpus([(["a"], "positive")])
        c2 = make_corpus([(["b"], "negative")])
        combined = concat_corpora([c1, c2])
        assert [i.tokens for i in combined.instances] == [("a",), ("b",)]


WORDS = st.sampled_from(["a", "b", "c", "d", "good", "bad", "not", "very"])
ROWS = st.lists(
    st.tuples(st.lists(WORDS, min_size=1, max_size=4), st.sampled_from(["positive", "negative"])),
    max_size=12,
)


class TestIdPaths:
    @given(ROWS, ROWS, st.data())
    def test_match_token_walks(self, rows1, rows2, data):
        """Unknown words, word counts and holdout splits read off the ids equal
        the token walks of `tests/oracles.py`, also on a concatenation, on
        rows taken with repeats and on split sides, whose word tables hold
        words no sentence of theirs uses."""
        c1, c2 = make_corpus(rows1), make_corpus(rows2)
        joined = concat_corpora([c1, c2])
        assert joined.instances == c1.instances + c2.instances
        rows = data.draw(st.lists(st.integers(0, len(joined) - 1), max_size=10)) if len(joined) else []
        taken = joined.take(rows)
        assert taken.instances == tuple(joined.instances[r] for r in rows)
        fraction = data.draw(st.floats(min_value=0.1, max_value=0.9))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        corpora = [c1, joined, taken]
        try:
            expected = oracles.reference_split_holdout(joined, fraction, seed)
        except ValueError:
            with pytest.raises(SplitError):
                split_holdout(joined, fraction, seed)
        else:
            sides = split_holdout(joined, fraction, seed)
            assert tuple(side.instances for side in sides) == expected
            corpora += sides
        sd = Dictionary({"good": S(1.0), "bad": S(-1.0)}, Kind.SENTIMENT)
        ad = seed_amplifier_dictionary()
        for c in corpora:
            assert build_unknown_index(c, sd, ad).words == oracles.reference_unknown_words(c, sd, ad)
            assert dict(word_frequencies(c)) == dict(oracles.reference_word_frequencies(c))
