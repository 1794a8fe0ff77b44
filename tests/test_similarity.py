import dataclasses
import difflib
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from bifilter import similarity
from bifilter.bisentence_filter import FilterConfig, align_filter
from bifilter.corpus_io import Bitext
from bifilter.errors import ConfigError
from bifilter.similarity import (
    COMPARATORS,
    ChainContext,
    ComparatorChain,
    DEFAULT_CHAIN,
    chain_evaluate,
    load_chain_file,
    ratio,
    register_comparator,
)
from bifilter.textnorm import (
    StopList,
    SynonymLexicon,
    expand_variants,
    remove_stopwords,
    tokenize,
)

short_text = st.text(alphabet="abc", max_size=6)
WORDS = ["cat", "cats", "sat", "mat", "the", "a", "dog", "game", "sport", "play"]
THRESHOLDS = st.sampled_from([0.0, 0.3, 0.5, 0.55, 0.6, 0.75, 0.9, 1.0]) | st.floats(0.0, 1.0)


class TestMatchingBlocks:
    """The matched count behind ratio: the block decomposition of the two
    sequences in canonical order."""

    def test_token_sequences(self):
        a = tokenize("the cat sat")
        b = tokenize("the cat ran")
        assert ratio(a, b).matches == 2

    @given(short_text, short_text)
    def test_m_matches_independent_leftmost_recursion(self, a, b):
        lo, hi = sorted((a, b))
        assert ratio(a, b).matches == oracles.leftmost_longest_m(lo, hi)

    @given(short_text, short_text)
    @settings(max_examples=60)
    def test_m_reachable_by_some_longest_first_recursion(self, a, b):
        mine = ratio(a, b).matches
        reachable = oracles.tie_choice_m_set(*sorted((a, b)))
        assert mine in reachable
        assert mine <= max(reachable)


    # tokens that are prefixes of one another, one with a space inside and
    # multi-byte ones: a block search over the tokens' joined text would
    # match across token edges, as ("ab",) against ("a", "b") shows
    PREFIX_TOKENS = st.lists(
        st.sampled_from(["a", "ab", "b", "ba", "a b", "ża", "żab", "\U0001f600a"]),
        max_size=7).map(tuple)

    @given(PREFIX_TOKENS, PREFIX_TOKENS)
    @example(("ab",), ("a", "b"))
    @example(("a b",), ("a", "b"))
    @example(("ża", "b"), ("żab",))
    def test_token_tuples_equal_leftmost_recursion(self, a, b):
        assert ratio(a, b).matches == oracles.leftmost_longest_m(*sorted((a, b)))

    # non-BMP characters are one code point each, as are the BMP ones
    @given(st.text(alphabet="a\U0001f600\U0001d538żb", max_size=8),
           st.text(alphabet="a\U0001f600\U0001d538żb", max_size=8))
    @example("\U0001f600a\U0001d538", "a\U0001d538\U0001f600")
    def test_non_bmp_strings_equal_leftmost_recursion(self, a, b):
        assert ratio(a, b).matches == oracles.leftmost_longest_m(*sorted((a, b)))

    # elements beyond the code point range and negative ones, so they are
    # not taken as code points themselves
    @given(st.lists(st.sampled_from([0, 1, 2, -1, 10 ** 9]), max_size=12).map(tuple),
           st.lists(st.sampled_from([0, 1, 2, -1, 10 ** 9]), max_size=12).map(tuple))
    def test_int_tuples_agree_with_difflib(self, a, b):
        lo, hi = sorted((a, b))
        want = difflib.SequenceMatcher(None, lo, hi, autojunk=False)
        got = ratio(a, b)
        assert got.matches == sum(block.size for block in want.get_matching_blocks())
        assert got.score == want.ratio()


class CountingStr(str):
    """A str whose find calls are counted."""

    calls = 0

    def find(self, *args):
        self.calls += 1
        return super().find(*args)


class TestLongestMatch:
    """_longest_match grows a block by galloping and bisecting its length;
    oracles.reference_longest_match grows it one unit per find. Both give
    the same (i, j, k) in every window, so every ratio stays the same."""

    # strings and windows come from a seed: hypothesis's own text draws
    # favour short strings, whose blocks rarely need a bisection
    @given(st.sampled_from(["a", "ab", "abc", "aż\U0001f600"]), st.integers(0, 2 ** 32),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_one_unit_growth(self, alphabet, seed, whole):
        rng = random.Random(seed)
        a, b = ("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
                for _ in range(2))
        alo, ahi = sorted(rng.randint(0, len(a)) for _ in range(2))
        blo, bhi = sorted(rng.randint(0, len(b)) for _ in range(2))
        if whole:
            alo, ahi, blo, bhi = 0, len(a), 0, len(b)
        assert similarity._longest_match(a, b, alo, ahi, blo, bhi) == \
            oracles.reference_longest_match(a, b, alo, ahi, blo, bhi)

    # a block that fills the window, one whose end the bisection finds,
    # and one after a shorter incumbent
    @pytest.mark.parametrize("a, b", [("a" * 40, "a" * 40), ("abcdefg", "abcdefx"),
                                      ("abxcdefghij", "cdefghiyab")])
    def test_blocks_equal_one_unit_growth(self, a, b):
        assert similarity._longest_match(a, b, 0, len(a), 0, len(b)) == \
            oracles.reference_longest_match(a, b, 0, len(a), 0, len(b))

    def test_identical_long_strings_take_logarithmic_finds(self):
        # one-unit growth runs one find per unit of the block, plus one: 38,001
        # on these strings (1.3 s); galloping runs O(log L)
        rng = random.Random(0)
        a = "".join(rng.choice("abcdefghij ") for _ in range(38_000))
        b = CountingStr(a)
        assert similarity._decompose(a, b) == (38_000, 1.0)
        assert 0 < b.calls <= 2 * (38_000).bit_length() + 2
        # the counter sees the oracle's one find per unit, plus the last one
        small = CountingStr(a[:500])
        assert oracles.reference_longest_match(a[:500], small, 0, 500, 0, 500) == (0, 0, 500)
        assert small.calls == 501


def near_identical(tokens: int, seed: int = 0) -> tuple[list[str], list[str]]:
    """A seeded pair of token lists over a 50-word vocabulary of 3-7 letter
    words, the second with about 5 % of its tokens substituted."""
    rng = random.Random(seed)
    vocab = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                     for _ in range(rng.randint(3, 7))) for _ in range(50)]
    a = [rng.choice(vocab) for _ in range(tokens)]
    return a, [rng.choice(vocab) if rng.random() < 0.05 else w for w in a]


class TestHostileRatio:
    # about 12k characters a side: a block search that visits every pair of
    # equal characters in Python took 3.5-4.6 s on 2 vCPUs, the str.find
    # search 0.2-0.3 s
    BOUND_S = 2.5

    def test_long_near_identical_pair(self):
        a, b = near_identical(2000)
        start = time.perf_counter()
        got = ratio(" ".join(a), " ".join(b))
        elapsed = time.perf_counter() - start
        assert got.score > 0.9
        assert elapsed < self.BOUND_S, f"{elapsed:.2f} s"

    def test_filter_with_a_long_middle_pair(self):
        a, b = near_identical(2000)
        bitext = Bitext(source=("x", "y", "z"),
                        target=("red kite", " ".join(b), "blue moon"),
                        trans=("green field", " ".join(a), "grey rain"))
        start = time.perf_counter()
        got = align_filter(bitext, FilterConfig(chain=DEFAULT_CHAIN))
        elapsed = time.perf_counter() - start
        assert [(i, j) for i, j, _, _ in got.accepted] == [(1, 1)]
        assert elapsed < self.BOUND_S, f"{elapsed:.2f} s"


class TestRatio:
    def test_abxcd_exact_fraction(self):
        got = ratio("abxcd", "abcd")
        assert abs(got.score - 8.0 / 9.0) < 1e-12
        assert got.matches == 4 and got.total == 9

    def test_abxcd_confirmed_by_decomposition_search(self):
        assert oracles.decomposition_max_m("abxcd", "abcd") == 4

    def test_identity(self):
        assert ratio("same text", "same text").score == 1.0

    def test_disjoint(self):
        assert ratio("abc", "xyz").score == 0.0

    def test_both_empty(self):
        assert ratio("", "").score == 1.0

    def test_one_empty(self):
        assert ratio("", "abc").score == 0.0

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert ratio(a, b).score == ratio(b, a).score

    @given(short_text)
    def test_self_ratio_is_one(self, a):
        assert ratio(a, a).score == 1.0

    @given(short_text, short_text)
    def test_bounds(self, a, b):
        assert 0.0 <= ratio(a, b).score <= 1.0

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_agrees_with_difflib_on_canonical_order(self, a, b):
        # the stdlib gestalt matcher is an independent implementation of
        # the same measure; our result equals it on sorted arguments
        lo, hi = sorted((a, b))
        want = difflib.SequenceMatcher(None, lo, hi, autojunk=False).ratio()
        assert ratio(a, b).score == want


def comparator(name, a, b, stoplist=(), lexicon=None, variant_cap=64):
    """The registered comparator name on two sentences, outside the chain."""
    ctx = ChainContext(stoplist=StopList.from_words(stoplist),
                       lexicon=lexicon or SynonymLexicon(),
                       variant_cap=variant_cap)
    chain = ComparatorChain(tiers=((name, 0.5),))
    return COMPARATORS[name](ctx.prepare(a), ctx.prepare(b), ctx, chain)


def joined(text):
    return " ".join(tokenize(text))


class TestTokenOverlap:
    STOP = ["it", "is", "this"]

    def test_origami(self):
        assert comparator("overlap", "It is origami.", "This is origami.",
                          self.STOP) == 1.0

    def test_disjoint_content(self):
        assert comparator("overlap", "red fox", "blue whale", self.STOP) == 0.0

    def test_partial(self):
        assert comparator("overlap", "a b c", "a b") == pytest.approx(0.8)

    def test_multiset_counts_repeats(self):
        # one "go" on the small side, not three
        assert comparator("overlap", "go go go", "go stop") == pytest.approx(2 * 1 / 5)

    @given(st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join),
           st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join))
    def test_equals_multiset_overlap(self, a, b):
        ta, tb = tokenize(a), tokenize(b)
        common = sum((Counter(ta) & Counter(tb)).values())
        want = 1.0 if not ta and not tb else 2.0 * common / (len(ta) + len(tb))
        assert comparator("overlap", a, b) == want

    def test_both_sides_empty_after_filtering(self):
        assert comparator("overlap", "it is", "this is", self.STOP) == 1.0

    def test_one_side_empty_after_filtering(self):
        assert comparator("overlap", "it is", "whale", self.STOP) == 0.0


class TestSynonymRatio:
    def test_will_would(self):
        lex = SynonymLexicon()
        lex.add("will", ["would"])
        got = comparator("synonym_ratio", "i will call you tomorrow",
                         "i would call you tomorrow", lexicon=lex)
        assert got == 1.0

    def test_empty_lexicon_equals_ratio(self):
        a, b = "i will call you", "i would call you"
        want = ratio(joined(a), joined(b)).score
        assert comparator("synonym_ratio", a, b) == want

    def test_game_sport(self):
        lex = SynonymLexicon()
        lex.add("game", ["play", "sport", "fun", "gaming", "action", "skittle"])
        got = comparator("synonym_ratio", "i do not like game",
                         "i do not like sport", lexicon=lex)
        assert got == 1.0

    @given(st.lists(st.sampled_from(["game", "like", "cat", "dog"]), max_size=6),
           st.lists(st.sampled_from(["sport", "like", "cat", "fish"]), max_size=6))
    def test_never_below_plain_ratio(self, aw, bw):
        lex = SynonymLexicon()
        lex.add("game", ["sport", "play"])
        a, b = " ".join(aw), " ".join(bw)
        want = ratio(joined(a), joined(b)).score
        got = comparator("synonym_ratio", a, b, lexicon=lex)
        assert got >= want

    @given(st.lists(st.sampled_from(["game", "cat", "like", "the", "sport"]),
                    max_size=6).map(" ".join),
           st.lists(st.sampled_from(["play", "sport", "fun", "dog", "like", "the"]),
                    max_size=6).map(" ".join),
           st.integers(min_value=1, max_value=4))
    @example("game", "fun", 3)  # the third synonym lies past the cap
    @example("cat like", "cat like", 1)  # only variant zero scores 1.0
    @settings(max_examples=300)
    def test_best_ratio_over_the_variants(self, a, b, cap):
        stop = ["the"]
        lex = SynonymLexicon()
        lex.add("game", ["play", "sport", "fun"])
        lex.add("cat", ["dog"])

        def content(text):
            return remove_stopwords(tokenize(text), StopList.from_words(stop))

        want = max(ratio(" ".join(v), " ".join(content(b))).score
                   for v in expand_variants(content(a), lex, cap))
        got = comparator("synonym_ratio", a, b, stop, lex, cap)
        assert got == want


class TestRatioComparator:
    # short words over a two-letter alphabet make block ties, where the
    # canonical argument order decides the matched count
    SENTENCE = st.lists(st.sampled_from(WORDS) | st.text("ab", min_size=1, max_size=3),
                        max_size=8).map(" ".join)

    @given(SENTENCE, SENTENCE)
    @example("cat sat cat", "aa cat cat")  # 7 matches as given, 8 sorted
    @settings(max_examples=300)
    def test_equals_ratio_of_the_units(self, a, b):
        stop = ["the", "a"]
        content = [" ".join(w for w in t.split() if w not in stop) for t in (a, b)]
        want = ratio(*(joined(t) for t in content)).score
        got = comparator("ratio", a, b, stop)
        assert got == want


def counting_comparator(scores):
    """Comparator returning canned scores keyed by (a, b) original text,
    counting invocations."""
    calls = []

    def cmp(pa, pb, ctx, chain):
        calls.append((pa.text, pb.text))
        return scores[(pa.text, pb.text)]

    return cmp, calls


class TestChainEvaluate:
    def make_ctx(self):
        return ChainContext(stoplist=StopList.from_words([]), lexicon=SynonymLexicon())

    def test_short_circuit_skips_later_tiers(self):
        s = {("a", "b"): 0.95}
        fast, fast_calls = counting_comparator(s)
        slow, slow_calls = counting_comparator(s)
        register_comparator("t_fast", fast, replace=True)
        register_comparator("t_slow", slow, replace=True)
        try:
            chain = ComparatorChain(tiers=(("t_fast", 0.9), ("t_slow", 0.7)))
            got = chain_evaluate("a", "b", chain, self.make_ctx())
            assert got.accepted and got.tier == 0 and got.score == 0.95
            assert got.comparator == "t_fast"
            assert len(fast_calls) == 1 and len(slow_calls) == 0
        finally:
            COMPARATORS.pop("t_fast", None)
            COMPARATORS.pop("t_slow", None)

    def test_second_tier_accepts(self):
        fast, _ = counting_comparator({("a", "b"): 0.5})
        slow, _ = counting_comparator({("a", "b"): 0.75})
        register_comparator("t_fast", fast, replace=True)
        register_comparator("t_slow", slow, replace=True)
        try:
            chain = ComparatorChain(tiers=(("t_fast", 0.9), ("t_slow", 0.7)))
            got = chain_evaluate("a", "b", chain, self.make_ctx())
            assert got.accepted and got.tier == 1 and got.score == 0.75
        finally:
            COMPARATORS.pop("t_fast", None)
            COMPARATORS.pop("t_slow", None)

    def test_reject_carries_last_tier_score(self):
        fast, _ = counting_comparator({("a", "b"): 0.5})
        slow, _ = counting_comparator({("a", "b"): 0.3})
        register_comparator("t_fast", fast, replace=True)
        register_comparator("t_slow", slow, replace=True)
        try:
            chain = ComparatorChain(tiers=(("t_fast", 0.9), ("t_slow", 0.7)),
                                    final_threshold=0.5)
            got = chain_evaluate("a", "b", chain, self.make_ctx())
            assert not got.accepted and got.score == 0.3 and got.tier == 1
        finally:
            COMPARATORS.pop("t_fast", None)
            COMPARATORS.pop("t_slow", None)

    def test_final_threshold_rescues_last_tier(self):
        got = chain_evaluate("the cat sat", "the cat sat", DEFAULT_CHAIN, self.make_ctx())
        assert got.accepted and got.tier == 0

    def test_accepted_score_meets_tier_threshold(self):
        ctx = self.make_ctx()
        pairs = [("abc def", "abc deg"), ("x", "y"), ("same", "same"),
                 ("cat sat", "dog ran")]
        for a, b in pairs:
            got = chain_evaluate(a, b, DEFAULT_CHAIN, ctx)
            if got.accepted:
                if got.tier == len(DEFAULT_CHAIN.tiers) - 1:
                    floor = min(DEFAULT_CHAIN.tiers[got.tier][1],
                                DEFAULT_CHAIN.final_threshold)
                else:
                    floor = DEFAULT_CHAIN.tiers[got.tier][1]
                assert got.score >= floor


class TestComparatorRange:
    """chain_evaluate checks each comparator's score where it decides: a
    score outside [0, 1], or NaN, raises ValueError naming the comparator."""

    @pytest.mark.parametrize("score", [1.5, -0.1, float("nan")])
    def test_score_outside_unit_interval_rejected(self, score):
        register_comparator("out_of_range", lambda pa, pb, ctx, chain: score, replace=True)
        try:
            chain = ComparatorChain(tiers=(("out_of_range", 0.5),))
            with pytest.raises(ValueError, match=r"comparator 'out_of_range' returned"):
                chain_evaluate("a b", "a c", chain, ChainContext())
        finally:
            COMPARATORS.pop("out_of_range", None)

    def test_taken_name_needs_replace(self):
        fn = COMPARATORS["ratio"]
        with pytest.raises(ConfigError, match="comparator 'ratio' already registered"):
            register_comparator("ratio", lambda pa, pb, ctx, chain: 0.0)
        assert COMPARATORS["ratio"] is fn

    @pytest.mark.parametrize("score", [0.0, 1.0])
    def test_interval_ends_accepted(self, score):
        register_comparator("at_the_end", lambda pa, pb, ctx, chain: score, replace=True)
        try:
            chain = ComparatorChain(tiers=(("at_the_end", 0.5),))
            assert chain_evaluate("a b", "a c", chain, ChainContext()).score == score
        finally:
            COMPARATORS.pop("at_the_end", None)


class TestPrepare:
    STOP = StopList.from_words(["the", "a"])
    # chunks from a small pool, so the context's chunk table is hit, mixed
    # with punctuation-only chunks, case variants and random Unicode text,
    # joined by Unicode separators str.split knows
    CHUNK = (st.sampled_from(WORDS + ["Cat", "THE", "żółw", "İstanbul", "ß", ",", "...",
                                      "«»", "the.", "(a", "cat's", "¿Cat?", "—"])
             | st.text(min_size=1, max_size=4))
    SEPARATOR = st.sampled_from([" ", "  ", "\u2003", "\x1c", "\t", "\n", "\u3000"])
    SENTENCE = st.lists(st.tuples(SEPARATOR, CHUNK), max_size=8).map(
        lambda parts: "".join(sep + chunk for sep, chunk in parts))

    @given(st.lists(SENTENCE, min_size=2, max_size=20))
    @example(["The market opened", "a market closed"])
    @example(["Cat, the cat.", "\x1c(cat\u2003CAT)", "..."])
    def test_one_token_tuple_per_chunk(self, sentences):
        # the tokens are the definition's, and a chunk seen before gives
        # the very strings it gave then, from the chunk table
        ctx = ChainContext(stoplist=self.STOP)
        prepared = [ctx.prepare(s) for s in sentences]
        first: dict = {}
        for s, p in zip(sentences, prepared):
            assert p.tokens == remove_stopwords(tokenize(s), self.STOP)
            at = 0
            for chunk in s.split():
                size = len(remove_stopwords(tokenize(chunk), self.STOP))
                words = p.tokens[at:at + size]
                assert all(x is y for x, y in zip(first.setdefault(chunk, words), words))
                at += size
            assert at == len(p.tokens)

    def test_forget(self):
        ctx = ChainContext()
        p = ctx.prepare("the cat sat")
        assert ctx.prepare("the cat sat") is p
        ctx.forget("the cat sat")
        ctx.forget("never prepared")
        again = ctx.prepare("the cat sat")
        assert again is not p and again.tokens == p.tokens
        assert again.tokens[0] is p.tokens[0]


class TestLcsGate:
    """The bit-parallel LCS length behind the chain's gate, and the bound it
    gives: the decomposition's matched count never exceeds it."""

    # non-ASCII words; up to 90 tokens, so the joined strings reach several
    # hundred characters and their masks span more than one 64-bit word
    SENTENCE = st.lists(st.sampled_from(["ab", "b", "ża", "ółw", "ß", "naïve", "a"]),
                        max_size=90).map(" ".join)
    LONG = " ".join(["ab", "ża", "b", "ółw"] * 20)

    @given(SENTENCE, SENTENCE)
    @example(LONG, LONG[::-1])
    @example(LONG, " ".join(["ża", "ab"] * 40))
    @settings(max_examples=150, deadline=None)
    def test_bit_parallel_equals_oracle(self, a, b):
        assert len(self.LONG) == 239  # the examples' masks span four words
        ctx = ChainContext()
        pa, pb = ctx.prepare(a), ctx.prepare(b)
        got = similarity.PackedStrings([pb.joined]).lcs_lengths(pa.joined)
        assert got == [oracles.lcs_length(pa.joined, pb.joined)]

    @given(st.text(alphabet="abż", max_size=20), st.text(alphabet="abż", max_size=20),
           st.booleans())
    def test_matches_at_most_lcs(self, a, b, as_tokens):
        if as_tokens:
            a, b = tuple(a), tuple(b)
        assert ratio(a, b).matches <= oracles.lcs_length(a, b)

    # up to 150 characters, so b's masks span more than two 64-bit words
    TEXT = st.text(alphabet="ab żß", max_size=150)

    @given(TEXT, TEXT, THRESHOLDS)
    @example("a" * 55 + "b" * 45, "a" * 55 + "c" * 45, 0.55)
    @example("", "", 0.9)
    @settings(max_examples=300, deadline=None)
    def test_gated_ratio_is_exact_or_a_bound_below_floor(self, a, b, floor):
        lcs = similarity.PackedStrings([b]).lcs_lengths(a)[0]
        assert lcs == oracles.lcs_length(a, b)
        got = similarity._gated_ratio(a, b, floor, lcs)
        exact = ratio(a, b).score
        assert got == similarity._gated_ratio(b, a, floor, lcs)
        if exact >= floor:
            assert got == exact
        else:
            assert exact <= got < floor
        # floor 0 reads no LCS length: a wrong one changes nothing
        assert similarity._gated_ratio(a, b, 0.0, -1) == exact


class TestPackedTargets:
    """The row slot's chunks: target content strings laid end to end in a
    PackedStrings, with a zero guard bit after each, run through the LCS
    kernel once per row, when the gate first reads one of them."""

    # empty content strings (stopwords only), non-ASCII words, and up to 40
    # tokens, so one sentence's bits can span several 64-bit words
    SENTENCE = st.lists(st.sampled_from(["ab", "b", "ża", "ółw", "ß", "naïve", "the", "a"]),
                        max_size=40).map(" ".join)

    @given(SENTENCE, st.lists(SENTENCE, max_size=12))
    @example("", ["", "ab"])
    @example(TestLcsGate.LONG, [TestLcsGate.LONG, "", TestLcsGate.LONG[::-1]])
    @settings(max_examples=150, deadline=None)
    def test_each_segment_equals_oracle(self, a, targets):
        ctx = ChainContext(stoplist=StopList.from_words(["the", "a"]))
        pa = ctx.prepare(a)
        pack = similarity.PackedStrings([ctx.prepare(t).joined for t in targets])
        assert pack.strings == tuple(ctx.prepare(t).joined for t in targets)
        assert pack.lcs_lengths(pa.joined) == [
            oracles.lcs_length(pa.joined, ctx.prepare(t).joined) for t in targets]

    def test_guard_bit_absorbs_the_carry(self):
        # "b" against "ab": the second step carries out of the segment's
        # top bit; without the guard bit it would flip the next segment's
        # lowest bit
        pack = similarity.PackedStrings(["ab", "b"])
        assert pack.lcs_lengths("bab") == [2, 1]
        assert pack.full == 0b1011

    class PlantedPack(similarity.PackedStrings):
        """A chunk whose pass reports an LCS length of 0 for every string."""

        def lcs_lengths(self, a):
            return [0] * len(self.strings)

    def test_row_holds_only_its_own_sentence(self):
        # row chunks serve the pairs whose first sentence is the chunks'
        # own prepared sentence and whose second's joined string is in one
        # of them: a planted LCS length of 0 shows where it is taken
        ctx = ChainContext()
        a, b, c = "quick brown fox", "lazy dog sleeps", "pale moon rises"
        want = {pair: chain_evaluate(*pair, DEFAULT_CHAIN, ctx)
                for pair in [(a, b), (c, b), (a, c)]}
        assert want[a, b].score > 0.0
        ctx.set_row(ctx.prepare(a), [self.PlantedPack([ctx.prepare(b).joined])])
        assert chain_evaluate(a, b, DEFAULT_CHAIN, ctx).score == 0.0
        # the chunks are searched by joined string: another text with the
        # same content string takes the planted value too
        assert ctx.prepare(b.upper()).joined == ctx.prepare(b).joined
        assert chain_evaluate(a, b.upper(), DEFAULT_CHAIN, ctx).score == 0.0
        assert chain_evaluate(a, c, DEFAULT_CHAIN, ctx) == want[a, c]
        # exact scores read no gate, so not the chunks either
        assert chain_evaluate(a, b, DEFAULT_CHAIN, ctx, exact=True) == want[a, b]
        # another first side replaces the chunks
        assert chain_evaluate(c, b, DEFAULT_CHAIN, ctx) == want[c, b]
        assert chain_evaluate(a, b, DEFAULT_CHAIN, ctx) == want[a, b]
        # the same text prepared by another context is not the chunks' sentence
        ctx.set_row(ChainContext().prepare(a), [self.PlantedPack([ctx.prepare(b).joined])])
        assert chain_evaluate(a, b, DEFAULT_CHAIN, ctx) == want[a, b]

    def test_chain_takes_the_gate_from_the_row(self, monkeypatch):
        # without a lexicon, a pair the chunks hold needs no line pack;
        # each chunk's pass runs when the gate first reads a string in it,
        # and again only after a pass for another sentence; a chunk never
        # read runs none; a chunk's masks are built by its first pass and
        # kept across set_row calls
        ctx = ChainContext()
        a, c = "quick brown fox jumps", "pale moon rises"
        near, far = ["lazy dog sleeps all day", "brown owl hoots"], ["cold rain falls"]
        want = {b: chain_evaluate(a, b, DEFAULT_CHAIN, ChainContext()) for b in near + far}
        want_c = chain_evaluate(c, near[0], DEFAULT_CHAIN, ChainContext())
        pa = ctx.prepare(a)
        passes, builds = [], []
        run, build = similarity._lcs_run, similarity._build_masks
        monkeypatch.setattr(similarity, "_lcs_run",
                            lambda *args: passes.append(args[0]) or run(*args))
        monkeypatch.setattr(similarity, "_build_masks",
                            lambda *args: builds.append(args) or build(*args))
        chunks = [similarity.PackedStrings([ctx.prepare(b).joined for b in side])
                  for side in (near, far)]
        ctx.set_row(pa, chunks)
        assert passes == [] and builds == []
        assert [chunk.masks for chunk in chunks] == [None, None]
        for b in near:
            assert chain_evaluate(a, b, DEFAULT_CHAIN, ctx) == want[b]
        assert passes == [chunks[0].masks]
        assert builds == [(ctx.prepare(b).joined,) for b in near]
        ctx.set_row(pa, chunks)
        assert chain_evaluate(a, near[1], DEFAULT_CHAIN, ctx) == want[near[1]]
        assert chain_evaluate(a, far[0], DEFAULT_CHAIN, ctx) == want[far[0]]
        assert passes == [chunks[0].masks, chunks[1].masks]
        ctx.set_row(ctx.prepare(c), chunks)
        assert chain_evaluate(c, near[0], DEFAULT_CHAIN, ctx) == want_c
        ctx.set_row(pa, chunks)
        assert chain_evaluate(a, near[0], DEFAULT_CHAIN, ctx) == want[near[0]]
        assert passes == [chunks[0].masks, chunks[1].masks] + [chunks[0].masks] * 2
        assert builds == [(ctx.prepare(b).joined,) for b in near + far]

    def test_accepted_at_overlap_runs_no_pass(self, monkeypatch):
        # the overlap tier settles the pair before any gate reads the row
        ctx = ChainContext()
        a, b = "the quick brown fox", "The quick, brown fox!"
        ctx.set_row(ctx.prepare(a), [similarity.PackedStrings([ctx.prepare(b).joined])])
        calls = []
        monkeypatch.setattr(similarity, "_lcs_run", lambda *args: calls.append(args))
        assert chain_evaluate(a, b, DEFAULT_CHAIN, ctx).tier == 0
        assert calls == []


class TestChainFloor:
    """Inside chain_evaluate a ratio-family score whose LCS bound is below
    the chain's floor is that bound, and the block decomposition does not
    run; decisions and scores at or above the floor stay those of the
    exact evaluation."""

    def make_ctx(self, lexicon=None):
        return ChainContext(stoplist=StopList.from_words(["the", "a"]),
                            lexicon=lexicon or SynonymLexicon())

    def test_default_floor(self):
        assert DEFAULT_CHAIN.floor == 0.55
        chain = ComparatorChain(tiers=(("ratio", 0.4), ("overlap", 0.9)))
        assert chain.floor == 0.4

    def test_floor_is_set_once_and_not_compared(self):
        chain = ComparatorChain(tiers=(("ratio", 0.4), ("overlap", 0.9)))
        assert "floor" in vars(chain)
        with pytest.raises(dataclasses.FrozenInstanceError):
            chain.floor = 0.1
        same = ComparatorChain(tiers=(("ratio", 0.4), ("overlap", 0.9)))
        assert same == chain and hash(same) == hash(chain)
        assert "floor" not in repr(chain)
        assert dataclasses.replace(chain, final_threshold=0.2).floor == 0.2

    def test_score_exactly_at_floor_is_accepted(self):
        # 2.0 * 55 / 200 == 0.55 exactly (0.55 * 200 / 2 == 55.00000000000001),
        # so the score sits on the default floor
        a = "a" * 55 + "b" * 45
        b = "a" * 55 + "c" * 45
        assert ratio(a, b).matches == 55 and 0.55 * 200 / 2 > 55
        got = chain_evaluate(a, b, DEFAULT_CHAIN, self.make_ctx())
        assert got.accepted and got.score == 0.55 and got.tier == 2

    def test_bound_at_floor_is_not_taken_as_score(self):
        # after the 50-character block the bound is 2.0 * 55 / 200 == 0.55,
        # but only 4 of the 5 remaining characters match; the bound tested in
        # integer form (55 < 0.55 * 200 / 2) would stop there and report 0.55
        a = "abcde" + "x" * 50 + "n" * 45
        b = "abcd" + "z" * 46 + "x" * 50
        assert ratio(a, b).matches == 54
        got = chain_evaluate(a, b, DEFAULT_CHAIN, self.make_ctx())
        assert not got.accepted and got.score == 0.54

    def counting(self, monkeypatch, name):
        calls = []
        fn = getattr(similarity, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(similarity, name, counted)
        return calls

    def test_rejected_pair_scores_base_ratio_once(self, monkeypatch):
        # the ratio and synonym tiers share one base ratio
        calls = self.counting(monkeypatch, "_gated_ratio")
        got = chain_evaluate("quick brown fox jumps", "lazy dog sleeps all day",
                             DEFAULT_CHAIN, self.make_ctx())
        assert not got.accepted and got.comparator == "synonym_ratio"
        assert len(calls) == 1

    @pytest.mark.parametrize("a, b, decompositions", [
        # LCS 5 of 44 units: the gate rejects
        ("quick brown fox jumps", "lazy dog sleeps all day", 0),
        # LCS "ba" bounds the score by 4/6, but the first block "a" leaves
        # nothing on either side of it, so the exact score is 2/6
        ("aba", "bca", 1),
    ], ids=["gated", "passes-gate"])
    def test_decompositions_per_rejected_pair(self, monkeypatch, a, b,
                                              decompositions):
        calls = self.counting(monkeypatch, "_decompose")
        got = chain_evaluate(a, b, DEFAULT_CHAIN, self.make_ctx())
        assert not got.accepted and got.score < DEFAULT_CHAIN.floor
        assert len(calls) == decompositions

    # overlap 12/14 and 8/10, in [floor, 0.99): the ratio tier scores the
    # pair exactly, with no LCS pass, and reads no row slot
    @pytest.mark.parametrize("a, b", [
        ("quick brown fox jumps over lazy dog", "quick brown fox leaps over lazy dog"),
        ("dog over lazy mat red", "over mat kite dog lazy"),
    ], ids=["accepted", "rejected"])
    def test_plausible_pair_runs_no_pass(self, monkeypatch, a, b):
        ctx = self.make_ctx()
        pa, pb = ctx.prepare(a), ctx.prepare(b)
        assert DEFAULT_CHAIN.floor <= COMPARATORS["overlap"](pa, pb, ctx, DEFAULT_CHAIN) < 0.99
        ctx.set_row(pa, [similarity.PackedStrings([pb.joined])])
        passes = self.counting(monkeypatch, "_lcs_run")
        got = chain_evaluate(a, b, DEFAULT_CHAIN, ctx)
        assert passes == []
        assert got == chain_evaluate(a, b, DEFAULT_CHAIN, self.make_ctx(), exact=True)

    def test_plausible_pair_is_rejected_with_its_exact_score(self):
        # the gate's bound, 22/43, is below the floor, so it would have
        # been the score; the exact ratio is 18/43
        a, b = "dog over lazy mat red", "over mat kite dog lazy"
        ctx = self.make_ctx()
        pa, pb = ctx.prepare(a), ctx.prepare(b)
        assert oracles.lcs_length(pa.joined, pb.joined) == 11
        got = chain_evaluate(a, b, DEFAULT_CHAIN, ctx)
        assert (got.accepted, got.tier, got.score) == (False, 2, 18 / 43)

    def test_plausible_pair_variants_share_one_pass(self, monkeypatch):
        # the base ratio runs no pass; the synonym variants still share one
        lex = SynonymLexicon({"dog": ["cat", "hound"], "red": ["blue"]})
        a, b = "dog over lazy mat red", "over mat kite dog lazy"
        passes = self.counting(monkeypatch, "_lcs_run")
        got = chain_evaluate(a, b, DEFAULT_CHAIN, self.make_ctx(lex))
        assert len(passes) == 1
        assert not got.accepted and got.score < DEFAULT_CHAIN.floor

    def test_comparator_outside_the_chain_is_exact(self):
        ctx = self.make_ctx()
        a, b = "quick brown fox jumps", "lazy dog sleeps all day"
        chain_evaluate(a, b, DEFAULT_CHAIN, ctx)
        pa, pb = ctx.prepare(a), ctx.prepare(b)
        want = ratio(pa.joined, pb.joined).score
        assert COMPARATORS["ratio"](pa, pb, ctx, DEFAULT_CHAIN) == want
        assert COMPARATORS["synonym_ratio"](pa, pb, ctx, DEFAULT_CHAIN) == want

    # long sentences make the gate fire on the base ratio and on the
    # synonym variants as well; stopwords alone leave no content tokens
    PAIR_SENTENCE = (st.lists(st.sampled_from(WORDS), max_size=6)
                     | st.lists(st.sampled_from(WORDS + ["fox", "jumps", "over", "lazy"]),
                                min_size=8, max_size=24)
                     | st.lists(st.sampled_from(["the", "a"]), max_size=3)).map(" ".join)
    # head words from WORDS, each with 1-3 other words of WORDS as synonyms
    LEXICON = st.lists(st.sampled_from(WORDS), unique=True, max_size=6).flatmap(
        lambda heads: st.fixed_dictionaries({
            w: st.lists(st.sampled_from([x for x in WORDS if x != w]),
                        min_size=1, max_size=3, unique=True)
            for w in heads}))

    @given(
        st.lists(PAIR_SENTENCE, min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(0, 2), PAIR_SENTENCE), min_size=1, max_size=6),
        st.lists(st.tuples(st.sampled_from(["overlap", "ratio", "synonym_ratio"]),
                           THRESHOLDS), min_size=1, max_size=4).map(tuple),
        THRESHOLDS,
        LEXICON,
        st.sampled_from([1, 2, 3, 64]),
    )
    # "play cat" passes the gate against "play dog" where "game cat" does
    # not: each variant's gate needs its own LCS length
    @example(["game cat"], [(0, "sport cat"), (0, "play dog")], (("synonym_ratio", 0.75),),
             0.55, {"game": ["play", "sport"], "cat": ["dog"]}, 64)
    @settings(max_examples=300, deadline=None)
    def test_same_decisions_as_exact(self, sources, pairs, tiers, final, entries, cap):
        # the pairs share one context; first sides repeat, in and out of
        # turn, so the line slot is both reused and replaced
        chain = ComparatorChain(tiers=tiers, final_threshold=final)
        ctx = ChainContext(stoplist=StopList.from_words(["the", "a"]),
                           lexicon=SynonymLexicon(entries), variant_cap=cap)
        for k, b in pairs:
            a = sources[k % len(sources)]
            fast = chain_evaluate(a, b, chain, ctx)
            full = chain_evaluate(a, b, chain, ctx, exact=True)
            assert (fast.accepted, fast.tier, fast.comparator) == (
                full.accepted, full.tier, full.comparator)
            if full.score >= chain.floor:
                assert fast.score == full.score
            else:
                assert full.score <= fast.score < chain.floor


class TestFirstSide:
    """A context holds one first side at a time, with its line pack, its
    character counts and its row chunks, and each pass is kept by the pack
    that ran it; none of that shows in a score or a bound."""

    # (what to do, source index, target index, lead of a bound)
    OP = st.tuples(st.sampled_from(["evaluate", "exact", "bound", "set_row"]),
                   st.integers(0, 2), st.integers(0, 5),
                   st.sampled_from([0.0, 0.5, 0.55, 0.9, 1.0]) | st.floats(0.0, 1.0))

    @given(
        st.lists(TestChainFloor.PAIR_SENTENCE, min_size=1, max_size=3),
        st.lists(TestChainFloor.PAIR_SENTENCE, min_size=1, max_size=6),
        st.lists(OP, min_size=1, max_size=12),
        # the default chain's floor of 0.55 gates most unrelated pairs
        st.just(DEFAULT_CHAIN) | st.builds(
            ComparatorChain,
            st.lists(st.tuples(st.sampled_from(["overlap", "ratio", "synonym_ratio"]),
                               THRESHOLDS), min_size=1, max_size=3).map(tuple),
            THRESHOLDS),
        st.none() | TestChainFloor.LEXICON,
    )
    # "cats" against "cat" has a character bag bound of 6/7, above the
    # lead; with the counts of "dog" it would be 0
    @example(["dog", "cats"], ["cat"], [("bound", 0, 0, 0.5), ("bound", 1, 0, 0.5)],
             DEFAULT_CHAIN, None)
    @settings(max_examples=200, deadline=None)
    def test_interleaved_first_sides_match_a_fresh_context(self, sources, targets, ops,
                                                           chain, entries):
        def context():
            return ChainContext(stoplist=StopList.from_words(["the", "a"]),
                                lexicon=SynonymLexicon(entries or {}))

        ctx = context()
        bound = similarity.chain_bound(chain, ctx)
        # chunks of two targets, shared by every first side set_row gives them
        chunks = [similarity.PackedStrings([ctx.prepare(t).joined for t in targets[c:c + 2]])
                  for c in range(0, len(targets), 2)]
        for op, i, j, lead in ops:
            a, b = sources[i % len(sources)], targets[j % len(targets)]
            if op == "set_row":
                ctx.set_row(ctx.prepare(a), chunks)
            elif op == "bound":
                if bound is not None:
                    assert bound(a, b, lead) == similarity.chain_bound(chain, context())(
                        a, b, lead)
            else:
                exact = op == "exact"
                assert chain_evaluate(a, b, chain, ctx, exact=exact) == chain_evaluate(
                    a, b, chain, context(), exact=exact)


class TestBounds:
    """Each built-in comparator's bound is at least the score it gives,
    inside chain_evaluate and with exact=True, and the chain's bound is at
    least the decision's score, whatever lead the bounds stop at."""

    # Unicode words, some of repeated characters so that character bags
    # collide; a side may be empty or all stopwords
    WORD = (st.sampled_from(WORDS + ["żółw", "naïve", "ß", "aaa", "aa", "İstanbul", "\U0001f600"])
            | st.text(alphabet="ab żß", min_size=1, max_size=4)
            | st.text(min_size=1, max_size=5))
    SENTENCE = st.lists(WORD, max_size=10).map(" ".join)
    LEAD = st.sampled_from([0.0, 0.5, 0.55, 0.9, 1.0]) | st.floats(0.0, 1.0)
    BUILT_IN = ("overlap", "ratio", "synonym_ratio")

    @given(
        st.lists(SENTENCE, min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(0, 2), SENTENCE), min_size=1, max_size=6),
        st.lists(st.tuples(st.sampled_from(BUILT_IN), THRESHOLDS),
                 min_size=1, max_size=4).map(tuple),
        THRESHOLDS,
        st.booleans(),
        st.none() | TestChainFloor.LEXICON,
        st.sampled_from([1, 3, 64]),
        LEAD,
    )
    @settings(max_examples=300, deadline=None)
    def test_bounds_hold(self, sources, pairs, tiers, final, stop, entries, cap, lead):
        ctx = ChainContext(stoplist=StopList.from_words(["the", "a"] if stop else []),
                           lexicon=SynonymLexicon(entries or {}), variant_cap=cap)
        # every built-in tier runs: no score below 1.0 accepts early
        every = ComparatorChain(tiers=tuple((name, 1.0) for name in self.BUILT_IN),
                                final_threshold=final)
        chain = ComparatorChain(tiers=tiers, final_threshold=final)
        bound = similarity.chain_bound(chain, ctx) or (lambda a, b, lead: 1.0)
        originals = {name: COMPARATORS[name] for name in self.BUILT_IN}
        scored = []

        def recorded(name):
            def comparator(pa, pb, ctx, chain):
                score = originals[name](pa, pb, ctx, chain)
                scored.append((name, pa, pb, score))
                return score
            return comparator

        for k, b in pairs:
            a = sources[k % len(sources)]
            for exact in (False, True):
                try:
                    for name in self.BUILT_IN:
                        COMPARATORS[name] = recorded(name)
                    chain_evaluate(a, b, every, ctx, exact=exact)
                finally:
                    COMPARATORS.update(originals)
                for name, pa, pb, score in scored:
                    for at in (lead, score):
                        assert originals[name].bound(pa, pb, ctx, at) >= score
                scored.clear()
                d = chain_evaluate(a, b, chain, ctx, exact=exact)
                for at in (lead, d.score):
                    assert bound(a, b, at) >= d.score

    def test_chain_bound_covers_every_tier(self):
        # the overlap tier's 0.5 exceeds the lead, and the ratio tier then
        # scores 14/15: a chain bound stopping at the overlap's value
        # would be below the decision's score
        ctx = ChainContext(stoplist=StopList.from_words([]), lexicon=SynonymLexicon())
        chain = ComparatorChain(tiers=(("overlap", 0.9), ("ratio", 0.9)),
                                final_threshold=0.5)
        d = chain_evaluate("cats sat", "cat sat", chain, ctx)
        assert d.score == pytest.approx(14 / 15)
        assert similarity.chain_bound(chain, ctx)("cats sat", "cat sat", 0.4) >= d.score

    def test_unbounded_tier_leaves_the_chain_without_a_bound(self):
        register_comparator("no_bound", lambda pa, pb, ctx, chain: 0.0, replace=True)
        try:
            chain = ComparatorChain(tiers=(("overlap", 0.99), ("no_bound", 0.5)))
            assert similarity.chain_bound(chain, ChainContext()) is None
        finally:
            COMPARATORS.pop("no_bound")
        # the bag bound: the shared space only
        assert similarity.chain_bound(DEFAULT_CHAIN, ChainContext())("a b", "c d", 0.5) == \
            2 / 6
        # with a lexicon the ratio tiers are not bounded, nor is the chain
        ctx = ChainContext(lexicon=SynonymLexicon({"x": ("y",)}))
        assert COMPARATORS["synonym_ratio"].bound(
            ctx.prepare("a b"), ctx.prepare("c d"), ctx, 0.5) == 1.0
        assert similarity.chain_bound(DEFAULT_CHAIN, ctx) is None
        assert similarity.chain_bound(ComparatorChain(tiers=(("overlap", 0.9),)), ctx)


class TestChainConfig:
    def test_unknown_comparator_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            ComparatorChain(tiers=(("no_such", 0.5),))

    def test_threshold_out_of_range(self):
        with pytest.raises(ConfigError):
            ComparatorChain(tiers=(("ratio", 1.5),))
        with pytest.raises(ConfigError):
            ComparatorChain(tiers=(("ratio", 0.9),), final_threshold=-0.1)

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"tiers": (("ratio", "x"),)},
                     r"tier threshold for 'ratio' is not a number: 'x'", id="tier-str"),
        pytest.param({"tiers": (("ratio", None),)},
                     r"tier threshold for 'ratio' is not a number: None", id="tier-none"),
        pytest.param({"tiers": (("ratio", 0.9),), "final_threshold": "x"},
                     r"final_threshold is not a number: 'x'", id="final-str"),
        pytest.param({"tiers": (("ratio", 0.9),), "final_threshold": [0.5]},
                     r"final_threshold is not a number: \[0.5\]", id="final-list"),
        pytest.param({"tiers": (("ratio", 0.9),), "final_threshold": "1.5"},
                     r"final_threshold 1.5 outside \[0, 1\]", id="final-range"),
        pytest.param({"tiers": (("ratio", 0.9),), "final_threshold": "0.5"}, None,
                     id="final-numeric-str"),
        pytest.param({"tiers": (("ratio", 0.9),), "final_threshold": 0}, None,
                     id="final-int"),
        pytest.param({"tiers": (("ratio", 1),), "final_threshold": 1}, None,
                     id="all-int"),
    ])
    def test_thresholds_are_converted_by_float(self, kwargs, message):
        if message is not None:
            with pytest.raises(ConfigError, match=message):
                ComparatorChain(**kwargs)
            return
        chain = ComparatorChain(**kwargs)
        want = float(kwargs["final_threshold"])
        assert chain.final_threshold == want
        assert type(chain.final_threshold) is float and type(chain.floor) is float
        assert all(type(thr) is float for _, thr in chain.tiers)
        assert chain.floor == min(want, float(kwargs["tiers"][0][1]))

    def test_empty_tiers_rejected(self):
        with pytest.raises(ConfigError):
            ComparatorChain(tiers=())

    def test_load_chain_file(self, tmp_path):
        p = tmp_path / "chain.cfg"
        p.write_text(
            "# fast to slow\n"
            "tier overlap 0.99\n"
            "tier ratio 0.90\n"
            "final_threshold 0.6\n",
            encoding="utf-8",
        )
        chain = load_chain_file(p)
        assert chain.tiers == (("overlap", 0.99), ("ratio", 0.90))
        assert chain.final_threshold == 0.6

    def test_granularity_is_an_unknown_directive(self, tmp_path):
        # the ratio tiers compare the joined content strings only
        p = tmp_path / "chain.cfg"
        p.write_text("tier ratio 0.9\ngranularity tokens\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"chain.cfg:2: unknown directive 'granularity'"):
            load_chain_file(p)

    @pytest.mark.parametrize("line, message", [
        ("tier ratio 1.5", r"tier threshold for 'ratio' 1.5 outside \[0, 1\]"),
        ("tier ratio nan", r"tier threshold for 'ratio' nan outside \[0, 1\]"),
        ("tier ratio x", r"tier threshold for 'ratio' is not a number: 'x'"),
        ("tier nosuch 0.5", r"unknown comparator 'nosuch' \(registered: "),
        ("final_threshold -0.1", r"final_threshold -0.1 outside \[0, 1\]"),
        ("final_threshold y", r"final_threshold is not a number: 'y'"),
    ], ids=["range", "nan", "not-a-number", "unknown-comparator",
            "final-range", "final-not-a-number"])
    def test_load_chain_file_errors_name_path_and_line(self, tmp_path, line, message):
        p = tmp_path / "chain.cfg"
        p.write_text(f"# header\ntier overlap 0.99\n{line}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(p))}:3: {message}"):
            load_chain_file(p)

    def test_load_chain_file_bad_directive(self, tmp_path):
        p = tmp_path / "chain.cfg"
        p.write_text("tier ratio 0.9\nwibble 3\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_chain_file(p)

    def test_load_chain_file_unknown_comparator(self, tmp_path):
        p = tmp_path / "chain.cfg"
        p.write_text("tier embeddings 0.9\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_chain_file(p)

    def test_load_chain_file_empty(self, tmp_path):
        p = tmp_path / "chain.cfg"
        p.write_text("# nothing\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_chain_file(p)

    def test_default_chain_shape(self):
        assert DEFAULT_CHAIN.tiers == (
            ("overlap", 0.99), ("ratio", 0.90), ("synonym_ratio", 0.75),
        )
        assert DEFAULT_CHAIN.final_threshold == 0.55
