import io
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import evosent.lexicon
from evosent.lexicon import (
    AMPLIFIER_VALUES,
    EVOLVABLE_PAIRS,
    SENTIMENT_VALUES,
    ClassificationValuePair,
    ConflictingWordError,
    Dictionary,
    Kind,
    LexiconParseError,
    TextDecodeError,
    check_disjoint,
    export_lexicon,
    load_labeled_dictionary,
    load_polarity_lists,
    lookup,
    parse_lexicon,
    seed_amplifier_dictionary,
    text_lines,
)

from conftest import A, S


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestValueSets:
    def test_six_evolvable_pairs(self):
        assert len(EVOLVABLE_PAIRS) == 6
        assert all(p.is_evolvable() for p in EVOLVABLE_PAIRS)

    def test_sentiment_set(self):
        assert SENTIMENT_VALUES == (-1.0, 0.0, 1.0)

    def test_amplifier_set(self):
        assert AMPLIFIER_VALUES == (0.5, 1.0, 1.5)

    def test_seed_negator_outside_evolvable_set(self):
        assert not A(-1.0).is_evolvable()


class TestPolarityLists:
    def test_basic_mapping(self, tmp_path):
        pos = write(tmp_path, "pos.txt", "good\n")
        neg = write(tmp_path, "neg.txt", "bad\n")
        d = load_polarity_lists(pos, neg)
        assert d.get("good") == S(1.0)
        assert d.get("bad") == S(-1.0)

    def test_empty_files(self, tmp_path):
        pos = write(tmp_path, "pos.txt", "")
        neg = write(tmp_path, "neg.txt", "")
        assert len(load_polarity_lists(pos, neg)) == 0

    def test_conflicting_word_rejected(self, tmp_path):
        pos = write(tmp_path, "pos.txt", "good\n")
        neg = write(tmp_path, "neg.txt", "bad\ngood\n")
        # the error names the file and line of the second listing
        with pytest.raises(ConflictingWordError, match=re.escape(f"{neg}: line 2: word 'good'")):
            load_polarity_lists(pos, neg)

    def test_comments_blanks_and_case(self, tmp_path):
        pos = write(tmp_path, "pos.txt", "# header\n\nGood\n")
        neg = write(tmp_path, "neg.txt", "bad\nbad\n")
        d = load_polarity_lists(pos, neg)
        assert d.get("good") == S(1.0)
        assert len(d) == 2

    @pytest.mark.parametrize("word", ["well-done", "good!"])
    def test_word_that_splits_is_parse_error(self, word, tmp_path):
        pos = write(tmp_path, "pos.txt", "")
        neg = write(tmp_path, "neg.txt", f"bad\n{word}\n")
        with pytest.raises(LexiconParseError, match="line 2: expected a single word"):
            load_polarity_lists(pos, neg)

    def test_multiword_line_is_parse_error(self, tmp_path):
        pos = write(tmp_path, "pos.txt", "two words\n")
        neg = write(tmp_path, "neg.txt", "")
        with pytest.raises(LexiconParseError, match="line 1"):
            load_polarity_lists(pos, neg)


class TestSeedAmplifiers:
    def test_seed_words(self):
        d = seed_amplifier_dictionary()
        assert d.get("not") == A(-1.0)
        assert d.get("never") == A(-1.0)
        assert len(d) == 2

    def test_unseeded_word_absent(self):
        assert seed_amplifier_dictionary().get("good") is None


class TestLookup:
    def test_amplifier_hit(self):
        sd = Dictionary({"good": S(1.0)}, Kind.SENTIMENT)
        assert lookup("never", sd, seed_amplifier_dictionary()) == A(-1.0)

    def test_out_of_vocabulary(self):
        sd = Dictionary({"good": S(1.0)}, Kind.SENTIMENT)
        assert lookup("qwerty", sd, seed_amplifier_dictionary()) is None

    def test_sentiment_checked_first(self):
        # overlap is normally forbidden at load; precedence is still defined
        sd = Dictionary({"w": S(1.0)}, Kind.SENTIMENT)
        ad = Dictionary({"w": A(0.5)}, Kind.AMPLIFIER)
        assert lookup("w", sd, ad) == S(1.0)

    def test_check_disjoint_rejects_overlap(self):
        sd = Dictionary({"w": S(1.0)}, Kind.SENTIMENT)
        ad = Dictionary({"w": A(0.5)}, Kind.AMPLIFIER)
        with pytest.raises(ConflictingWordError, match="'w'"):
            check_disjoint(sd, ad)


class TestDictionary:
    def test_kind_constraint_enforced(self):
        with pytest.raises(ConflictingWordError):
            Dictionary({"w": A(0.5)}, Kind.SENTIMENT)

    def test_without_hides_words(self):
        d = Dictionary({"a": S(1.0), "b": S(-1.0)}, Kind.SENTIMENT)
        assert "a" not in d.without(["a"])
        assert "b" in d.without(["a"])


class TestExport:
    def test_single_record(self):
        buf = io.StringIO()
        export_lexicon(["great"], [S(1.0)], buf)
        assert buf.getvalue() == "great\tsentiment\t1.0\n"

    def test_amplifier_record(self):
        buf = io.StringIO()
        export_lexicon(["very"], [A(1.5)], buf)
        assert buf.getvalue() == "very\tamplifier\t1.5\n"

    def test_values_written_exactly(self):
        buf = io.StringIO()
        export_lexicon(["a", "b"], [S(1.25), A(0.05)], buf)
        assert buf.getvalue() == "a\tsentiment\t1.25\nb\tamplifier\t0.05\n"

    def test_empty(self):
        buf = io.StringIO()
        export_lexicon([], [], buf)
        assert buf.getvalue() == ""

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            export_lexicon(["a"], [], io.StringIO())

    def test_round_trip(self, tmp_path):
        words = ["alpha", "beta", "gamma"]
        pairs = [S(-1.0), A(0.5), S(0.0)]
        path = tmp_path / "lex.tsv"
        export_lexicon(words, pairs, path)
        assert parse_lexicon(path) == dict(zip(words, pairs))

    def test_crlf_matches_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        export_lexicon(["alpha", "beta"], [S(-1.0), A(1.5)], lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert parse_lexicon(crlf) == parse_lexicon(lf) == {"alpha": S(-1.0), "beta": A(1.5)}

    @given(
        st.dictionaries(
            st.text(alphabet="abcdefghij", min_size=1, max_size=8),
            st.sampled_from(EVOLVABLE_PAIRS),
            max_size=20,
        )
    )
    def test_round_trip_property(self, entries):
        buf = io.StringIO()
        export_lexicon(list(entries), list(entries.values()), buf)
        buf.seek(0)
        assert parse_lexicon(buf) == entries


class TestLabeledDictionary:
    def test_kind_mismatch_rejected(self, tmp_path):
        path = write(tmp_path, "amp.tsv", "not\tamplifier\t-1.0\nvery\tsentiment\t1.0\n")
        with pytest.raises(ConflictingWordError, match=re.escape(f"{path}: line 2: entry 'very'")):
            load_labeled_dictionary(path, Kind.AMPLIFIER)

    @given(value=st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999"]))
    def test_non_finite_value_is_parse_error(self, value):
        with pytest.raises(LexiconParseError, match="line 2: non-finite"):
            parse_lexicon(io.StringIO(f"good\tsentiment\t1.0\nbad\tsentiment\t{value}\n"))

    @pytest.mark.parametrize("record", ["very good\tsentiment\t1.0", "good \tsentiment\t1"])
    def test_word_with_a_space_is_parse_error(self, record):
        with pytest.raises(LexiconParseError, match="line 2: expected a single word"):
            parse_lexicon(io.StringIO(f"bad\tsentiment\t-1.0\n{record}\n"))

    @pytest.mark.parametrize("word", ["well-done", "good!", "snake_case", "\u0130"])
    def test_word_that_is_not_one_token_is_parse_error(self, word):
        """No token can match a word that tokenizes otherwise: "İ" lowercases
        to "i" and a combining dot, which splits."""
        with pytest.raises(LexiconParseError, match="line 2: expected a single word"):
            parse_lexicon(io.StringIO(f"bad\tsentiment\t-1.0\n{word}\tsentiment\t1.0\n"))

    @pytest.mark.parametrize("word", ["Don't", "CAFÉ", "3rd", "ΑΣ"])
    def test_word_that_is_one_token_loads_lowercased(self, word):
        assert parse_lexicon(io.StringIO(f"{word}\tsentiment\t1.0\n")) == {word.lower(): S(1.0)}

    def test_bad_kind_is_parse_error(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "w\tnoise\t1.0\n")
        with pytest.raises(LexiconParseError, match="line 1"):
            load_labeled_dictionary(path, Kind.SENTIMENT)

    def test_loads(self, tmp_path):
        path = write(tmp_path, "lex.tsv", "good\tsentiment\t1.0\nbad\tsentiment\t-1.0\n")
        d = load_labeled_dictionary(path, Kind.SENTIMENT)
        assert d.get("bad") == S(-1.0)


def split_lines(text: str) -> list:
    """`text_lines`' rule through `str.split`: lines end at LF, less one CR
    just before it, and a last line without LF keeps a final CR."""
    lines = text.split("\n")
    last = lines.pop()
    return [line.removesuffix("\r") for line in lines] + ([last] if last else [])


class TestTextLines:
    """`text_lines` reads in chunks; a line, a CR or a CRLF may span chunks."""

    @given(text=st.text(alphabet="ab\r\n\u00e9", max_size=40), chunk=st.sampled_from([1, 2, 3, 5]))
    @example(text="a\rb\r\nc\n\r\n\r", chunk=3)  # CR, CRLF, an empty line, a lone final CR
    @example(text="ab\r\ncd", chunk=3)  # the CRLF split across chunks
    @example(text="abcdefgh\r\r\nb", chunk=2)  # a line of four chunks, ended by CR CRLF
    def test_matches_split(self, tmp_path_factory, text, chunk):
        path = tmp_path_factory.mktemp("lines") / "text.txt"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evosent.lexicon, "TEXT_CHUNK_CHARS", chunk)
            assert list(text_lines(path)) == split_lines(text)

    def test_bad_utf8_in_a_later_chunk_names_the_file(self, tmp_path):
        path = tmp_path / "text.txt"
        path.write_bytes(b"good\n" * 30_000 + b"\xff\n")  # past the first chunk
        lines = text_lines(path)
        assert next(lines) == "good"
        with pytest.raises(TextDecodeError, match=re.escape(str(path))):
            list(lines)
