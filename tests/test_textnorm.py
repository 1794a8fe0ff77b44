import sys
import unicodedata

import pytest
from hypothesis import given, strategies as st

import oracles

from bifilter.errors import DataError
from bifilter.textnorm import (
    StopList,
    SynonymLexicon,
    default_stoplist,
    expand_variants,
    remove_stopwords,
    stem,
    tokenize,
)


class TestTokenize:
    def test_plain_sentence(self):
        assert list(tokenize("I go to school.")) == ["i", "go", "to", "school", "."]

    def test_empty(self):
        assert list(tokenize("")) == []

    def test_origami(self):
        assert list(tokenize("It is origami.")) == ["it", "is", "origami", "."]

    def test_punctuation_split_both_ends(self):
        assert list(tokenize('"stop!"')) == ['"', "stop", "!", '"']

    @given(st.text(max_size=40))
    def test_never_produces_empty_tokens(self, s):
        assert all(tok for tok in tokenize(s))

    @given(st.text(alphabet=st.characters(blacklist_categories=("Z", "C")), max_size=30))
    def test_token_content_survives_joining(self, s):
        # spacing and punctuation attachment may change, characters may not
        joined = " ".join(tokenize(s))
        assert sorted(joined.replace(" ", "")) == sorted("".join(s.split()).lower())


    @given(st.text(max_size=40)
           | st.lists(st.sampled_from(["Ab", "1", "ż", "-", "«", "x.", ".x", "ą,ę", " "]),
                      max_size=12).map("".join))
    def test_equals_reference(self, s):
        assert tokenize(s) == oracles.reference_tokenize(s)


def test_no_code_point_is_alphanumeric_and_punctuation():
    # tokenize and remove_stopwords skip the punctuation checks for chunks
    # and tokens that start (and end) with an alphanumeric character
    both = [hex(cp) for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")]
    assert both == [], f"Unicode {unicodedata.unidata_version}"


class TestStopList:
    def test_membership_case_insensitive(self):
        sl = StopList.from_words(["The", "is"])
        assert "the" in sl and "THE" in sl and "is" in sl
        assert "origami" not in sl

    def test_load_with_comments(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("# header\nthe\n\nis\n", encoding="utf-8")
        sl = StopList.load(p)
        assert "the" in sl and "is" in sl

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            StopList.load(tmp_path / "nope.txt")

    def test_default_lists_ship(self):
        assert "it" in default_stoplist("en")
        assert "i" in default_stoplist("pl")

    def test_unknown_language_is_empty(self):
        sl = default_stoplist("xx")
        assert "the" not in sl


class TestRemoveStopwords:
    STOP = StopList.from_words(["it", "is", "this"])

    def test_origami(self):
        seq = tokenize("It is origami.")
        assert list(remove_stopwords(seq, self.STOP)) == ["origami"]

    def test_no_stopwords_unchanged(self):
        seq = tokenize("quick brown fox")
        assert list(remove_stopwords(seq, self.STOP)) == ["quick", "brown", "fox"]

    def test_all_stopwords(self):
        seq = tokenize("It is this")
        assert list(remove_stopwords(seq, self.STOP)) == []

    @given(st.lists(st.text(max_size=4) | st.sampled_from(["it", "is", "Fox", ",", "-a"]),
                    max_size=12).map(tuple))
    def test_equals_reference(self, tokens):
        assert (remove_stopwords(tokens, self.STOP)
                == oracles.reference_remove_stopwords(tokens, self.STOP))

    @given(st.lists(st.sampled_from(["it", "is", "fox", "dog", ",", "run"]), max_size=12))
    def test_idempotent(self, words):
        seq = tokenize(" ".join(words))
        once = remove_stopwords(seq, self.STOP)
        twice = remove_stopwords(once, self.STOP)
        assert list(once) == list(twice)


GAME_SYNS = ["play", "sport", "fun", "gaming", "action", "skittle"]


def game_lexicon():
    lex = SynonymLexicon()
    lex.add("game", GAME_SYNS)
    return lex


class TestExpandVariants:
    def test_game_enumeration(self):
        seq = tokenize("I do not like game.")
        out = expand_variants(seq, game_lexicon())
        assert len(out) == 7
        assert out[0] is seq
        assert list(out[1]) == ["i", "do", "not", "like", "play", "."]
        tails = {v[4] for v in out[1:]}
        assert tails == set(GAME_SYNS)

    def test_no_hits_identity(self):
        seq = tokenize("nothing matches here")
        out = expand_variants(seq, game_lexicon())
        assert len(out) == 1 and out[0] is seq

    def test_cap_truncates(self):
        out = expand_variants(tokenize("I do not like game."), game_lexicon(), cap=3)
        assert [v[4] for v in out] == ["game", "play", "sport"]

    def test_cap_below_one_rejected(self):
        with pytest.raises(ValueError):
            expand_variants(tokenize("x"), game_lexicon(), cap=0)

    @given(st.lists(st.sampled_from(["game", "like", "not", "do"]), min_size=1, max_size=8),
           st.integers(min_value=1, max_value=10))
    def test_original_first_and_cap_respected(self, words, cap):
        seq = tokenize(" ".join(words))
        out = expand_variants(seq, game_lexicon(), cap=cap)
        assert out[0] is seq
        assert len(out) <= cap


class TestSynonymLexicon:
    def test_no_self_maps(self):
        lex = SynonymLexicon()
        lex.add("game", ["game", "play"])
        assert lex.synonyms("game") == ("play",)

    def test_duplicate_heads_merge(self, tmp_path):
        p = tmp_path / "syn.tsv"
        p.write_text("game\tplay,sport\ngame\tfun\n", encoding="utf-8")
        lex = SynonymLexicon.load(p)
        assert set(lex.synonyms("game")) == {"play", "sport", "fun"}

    def test_absent_word_empty(self):
        assert SynonymLexicon().synonyms("ghost") == ()

    def test_case_folds(self):
        lex = SynonymLexicon()
        lex.add("Will", ["Would"])
        assert lex.synonyms("will") == ("would",)


class TestStemmer:
    def test_boys(self):
        assert stem("boys") == "boy"

    def test_short_word_untouched(self):
        assert stem("go") == "go"

    def test_running_strips_ing(self):
        # suffix table is ing/es/ed/s with minimum stem length 3,
        # so "running" loses "ing" and stops at "runn"
        assert stem("running") == "runn"

    def test_iterates_to_fixpoint(self):
        # "meetings" -> "meeting" -> "meet"
        assert stem("meetings") == "meet"

    @given(st.text(alphabet="abcdefgs", min_size=0, max_size=12))
    def test_idempotent(self, word):
        assert stem(stem(word)) == stem(word)

    @given(st.text(alphabet="abcdeginrs", min_size=1, max_size=12))
    def test_stem_is_prefix(self, word):
        assert word.startswith(stem(word))
