import difflib

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bifilter import similarity
from bifilter.errors import ConfigError
from bifilter.similarity import (
    COMPARATORS,
    ChainContext,
    ComparatorChain,
    DEFAULT_CHAIN,
    MatchingBlock,
    chain_evaluate,
    load_chain_file,
    matching_blocks,
    ratio,
    register_comparator,
    synonym_ratio,
    token_overlap,
)
from bifilter.textnorm import StopList, SynonymLexicon, tokenize

short_text = st.text(alphabet="abc", max_size=6)
WORDS = ["cat", "cats", "sat", "mat", "the", "a", "dog", "game", "sport", "play"]
THRESHOLDS = st.sampled_from([0.0, 0.3, 0.5, 0.55, 0.6, 0.75, 0.9, 1.0]) | st.floats(0.0, 1.0)


class TestMatchingBlocks:
    def test_abxcd(self):
        assert matching_blocks("abxcd", "abcd") == [
            MatchingBlock(0, 0, 2),
            MatchingBlock(3, 2, 2),
        ]

    def test_identical(self):
        assert matching_blocks("same", "same") == [MatchingBlock(0, 0, 4)]

    def test_disjoint(self):
        assert matching_blocks("abc", "xyz") == []

    def test_token_sequences(self):
        a = tokenize("the cat sat")
        b = tokenize("the cat ran")
        assert matching_blocks(a, b) == [MatchingBlock(0, 0, 2)]

    @given(short_text, short_text)
    def test_blocks_monotone_and_disjoint(self, a, b):
        blocks = matching_blocks(a, b)
        prev_a = prev_b = 0
        for ia, ib, size in blocks:
            assert size >= 1
            assert ia >= prev_a and ib >= prev_b
            assert a[ia:ia + size] == b[ib:ib + size]
            prev_a, prev_b = ia + size, ib + size

    @given(short_text, short_text)
    def test_m_matches_independent_leftmost_recursion(self, a, b):
        mine = sum(bl.length for bl in matching_blocks(a, b))
        assert mine == oracles.leftmost_longest_m(a, b)

    @given(short_text, short_text)
    @settings(max_examples=60)
    def test_m_reachable_by_some_longest_first_recursion(self, a, b):
        mine = sum(bl.length for bl in matching_blocks(a, b))
        reachable = oracles.tie_choice_m_set(a, b)
        assert mine in reachable
        assert mine <= max(reachable)


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


class TestTokenOverlap:
    STOP = StopList.from_words(["it", "is", "this"])

    def test_origami(self):
        a = tokenize("It is origami.")
        b = tokenize("This is origami.")
        assert token_overlap(a, b, self.STOP) == 1.0

    def test_disjoint_content(self):
        a = tokenize("red fox")
        b = tokenize("blue whale")
        assert token_overlap(a, b, self.STOP) == 0.0

    def test_partial(self):
        a = tokenize("a b c")
        b = tokenize("a b")
        assert token_overlap(a, b, StopList.from_words([])) == pytest.approx(0.8)

    def test_multiset_counts_repeats(self):
        empty = StopList.from_words([])
        a = tokenize("go go go")
        b = tokenize("go stop")
        # one "go" on the small side, not three
        assert token_overlap(a, b, empty) == pytest.approx(2 * 1 / 5)

    def test_both_sides_empty_after_filtering(self):
        a = tokenize("it is")
        b = tokenize("this is")
        assert token_overlap(a, b, self.STOP) == 1.0

    def test_one_side_empty_after_filtering(self):
        a = tokenize("it is")
        b = tokenize("whale")
        assert token_overlap(a, b, self.STOP) == 0.0


class TestSynonymRatio:
    def test_will_would(self):
        lex = SynonymLexicon()
        lex.add("will", ["would"])
        a = tokenize("i will call you tomorrow")
        b = tokenize("i would call you tomorrow")
        assert synonym_ratio(a, b, lex) == 1.0

    def test_empty_lexicon_equals_ratio(self):
        a = tokenize("i will call you")
        b = tokenize("i would call you")
        assert synonym_ratio(a, b, SynonymLexicon()) == ratio(a.joined(), b.joined()).score

    def test_game_sport(self):
        lex = SynonymLexicon()
        lex.add("game", ["play", "sport", "fun", "gaming", "action", "skittle"])
        a = tokenize("i do not like game")
        b = tokenize("i do not like sport")
        assert synonym_ratio(a, b, lex) == 1.0

    @given(st.lists(st.sampled_from(["game", "like", "cat", "dog"]), max_size=6),
           st.lists(st.sampled_from(["sport", "like", "cat", "fish"]), max_size=6))
    def test_never_below_plain_ratio(self, aw, bw):
        lex = SynonymLexicon()
        lex.add("game", ["sport", "play"])
        a = tokenize(" ".join(aw))
        b = tokenize(" ".join(bw))
        assert synonym_ratio(a, b, lex) >= ratio(a.joined(), b.joined()).score


def counting_comparator(scores):
    """Comparator returning canned scores keyed by (a, b) original text,
    counting invocations."""
    calls = []

    def cmp(pa, pb, ctx, chain):
        calls.append((pa.seq.original, pb.seq.original))
        return scores[(pa.seq.original, pb.seq.original)]

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


class TestChainFloor:
    """Inside chain_evaluate the block decomposition stops once it cannot
    reach the chain's floor; decisions and scores at or above the floor
    stay those of the exact evaluation."""

    def make_ctx(self, lexicon=None):
        return ChainContext(stoplist=StopList.from_words(["the", "a"]),
                            lexicon=lexicon or SynonymLexicon())

    def test_default_floor(self):
        assert DEFAULT_CHAIN.floor == 0.55
        chain = ComparatorChain(tiers=(("ratio", 0.4), ("overlap", 0.9)))
        assert chain.floor == 0.4

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

    def test_rejected_pair_decomposes_once(self, monkeypatch):
        calls = []
        decompose = similarity._decompose

        def counting(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(similarity, "_decompose", counting)
        got = chain_evaluate("quick brown fox jumps", "lazy dog sleeps all day",
                             DEFAULT_CHAIN, self.make_ctx())
        assert not got.accepted and got.comparator == "synonym_ratio"
        assert len(calls) == 1

    def test_comparator_outside_the_chain_is_exact(self):
        ctx = self.make_ctx()
        a, b = "quick brown fox jumps", "lazy dog sleeps all day"
        chain_evaluate(a, b, DEFAULT_CHAIN, ctx)
        pa, pb = ctx.prepare(a), ctx.prepare(b)
        want = ratio(pa.joined, pb.joined).score
        assert COMPARATORS["ratio"](pa, pb, ctx, DEFAULT_CHAIN) == want
        assert COMPARATORS["synonym_ratio"](pa, pb, ctx, DEFAULT_CHAIN) == want

    @given(
        st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join),
        st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join),
        st.lists(st.tuples(st.sampled_from(["overlap", "ratio", "synonym_ratio"]),
                           THRESHOLDS), min_size=1, max_size=4).map(tuple),
        THRESHOLDS,
        st.sampled_from(["chars", "tokens"]),
    )
    @settings(max_examples=300)
    def test_same_decisions_as_exact(self, a, b, tiers, final, granularity):
        lex = SynonymLexicon()
        lex.add("game", ["sport", "play"])
        lex.add("cat", ["dog", "cats"])
        chain = ComparatorChain(tiers=tiers, final_threshold=final,
                                granularity=granularity)
        ctx = self.make_ctx(lex)
        fast = chain_evaluate(a, b, chain, ctx)
        full = chain_evaluate(a, b, chain, ctx, exact=True)
        assert (fast.accepted, fast.tier, fast.comparator) == (
            full.accepted, full.tier, full.comparator)
        if full.score >= chain.floor:
            assert fast.score == full.score
        else:
            assert full.score <= fast.score < chain.floor


class TestChainConfig:
    def test_unknown_comparator_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            ComparatorChain(tiers=(("no_such", 0.5),))

    def test_threshold_out_of_range(self):
        with pytest.raises(ConfigError):
            ComparatorChain(tiers=(("ratio", 1.5),))
        with pytest.raises(ConfigError):
            ComparatorChain(tiers=(("ratio", 0.9),), final_threshold=-0.1)

    def test_empty_tiers_rejected(self):
        with pytest.raises(ConfigError):
            ComparatorChain(tiers=())

    def test_load_chain_file(self, tmp_path):
        p = tmp_path / "chain.cfg"
        p.write_text(
            "# fast to slow\n"
            "tier overlap 0.99\n"
            "tier ratio 0.90\n"
            "final_threshold 0.6\n"
            "granularity tokens\n",
            encoding="utf-8",
        )
        chain = load_chain_file(p)
        assert chain.tiers == (("overlap", 0.99), ("ratio", 0.90))
        assert chain.final_threshold == 0.6
        assert chain.granularity == "tokens"

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
        assert DEFAULT_CHAIN.granularity == "chars"
