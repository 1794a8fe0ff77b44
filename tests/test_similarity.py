import dataclasses
import difflib
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from bifilter import similarity
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
        got = similarity._lcs_length(pb.masks(), len(pb.joined), pa.joined)
        assert got == oracles.lcs_length(pa.joined, pb.joined)

    @given(st.text(alphabet="abż", max_size=20), st.text(alphabet="abż", max_size=20),
           st.booleans())
    def test_matches_at_most_lcs(self, a, b, as_tokens):
        if as_tokens:
            a, b = tuple(a), tuple(b)
        assert ratio(a, b).matches <= oracles.lcs_length(a, b)


class TestPackedTargets:
    """The row pass: target content strings laid end to end with a zero
    guard bit after each, run through the LCS kernel once."""

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
        pack = similarity.PackedTargets([ctx.prepare(t) for t in targets])
        assert pack.lcs_lengths(pa.joined) == [
            oracles.lcs_length(pa.joined, ctx.prepare(t).joined) for t in targets]

    def test_guard_bit_absorbs_the_carry(self):
        # "b" against "ab": the second step carries out of the segment's
        # top bit; without the guard bit it would flip the next segment's
        # lowest bit
        ctx = ChainContext()
        pack = similarity.PackedTargets([ctx.prepare("ab"), ctx.prepare("b")])
        assert pack.lcs_lengths("bab") == [2, 1]
        assert pack.full == 0b1011

    def test_row_holds_only_its_own_sentence(self):
        ctx = ChainContext()
        pa, pb, other = ctx.prepare("abc"), ctx.prepare("cab"), ctx.prepare("xyz")
        packs = []
        row = similarity.RowLcs("abc", lambda: packs.append(1) or [
            similarity.PackedTargets([pb])])
        assert row.get(other, pb) is None
        assert packs == []  # no pass for a sentence the row does not hold
        assert row.get(pa, pb) == 2
        assert row.get(pa, other) is None
        assert row.get(pa, pb) == 2
        assert packs == [1]  # one pass, on the first lookup

    def test_chain_takes_the_gate_from_the_row(self, monkeypatch):
        ctx = ChainContext()
        a, b = "quick brown fox jumps", "lazy dog sleeps all day"
        want = chain_evaluate(a, b, DEFAULT_CHAIN, ctx)
        calls = []
        monkeypatch.setattr(similarity, "_lcs_length",
                            lambda *args: calls.append(args))
        ctx.row = similarity.RowLcs(a, lambda: [similarity.PackedTargets([ctx.prepare(b)])])
        assert chain_evaluate(a, b, DEFAULT_CHAIN, ctx) == want
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

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(similarity, name, counted)
        return calls

    def test_rejected_pair_scores_base_ratio_once(self, monkeypatch):
        # the ratio and synonym tiers share one base ratio
        calls = self.counting(monkeypatch, "_ratio_prepared")
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

    def test_comparator_outside_the_chain_is_exact(self):
        ctx = self.make_ctx()
        a, b = "quick brown fox jumps", "lazy dog sleeps all day"
        chain_evaluate(a, b, DEFAULT_CHAIN, ctx)
        pa, pb = ctx.prepare(a), ctx.prepare(b)
        want = ratio(pa.joined, pb.joined).score
        assert COMPARATORS["ratio"](pa, pb, ctx, DEFAULT_CHAIN) == want
        assert COMPARATORS["synonym_ratio"](pa, pb, ctx, DEFAULT_CHAIN) == want

    # long sentences make the gate fire on the base ratio and on the
    # synonym variants as well
    PAIR_SENTENCE = (st.lists(st.sampled_from(WORDS), max_size=6)
                     | st.lists(st.sampled_from(WORDS + ["fox", "jumps", "over", "lazy"]),
                                min_size=8, max_size=24)).map(" ".join)

    @given(
        PAIR_SENTENCE,
        PAIR_SENTENCE,
        st.lists(st.tuples(st.sampled_from(["overlap", "ratio", "synonym_ratio"]),
                           THRESHOLDS), min_size=1, max_size=4).map(tuple),
        THRESHOLDS,
    )
    @settings(max_examples=300)
    def test_same_decisions_as_exact(self, a, b, tiers, final):
        lex = SynonymLexicon()
        lex.add("game", ["sport", "play"])
        lex.add("cat", ["dog", "cats"])
        chain = ComparatorChain(tiers=tiers, final_threshold=final)
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
