import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import synthcorpus
from peakrss import cli_peak_mb
from bifilter import bisentence_filter, similarity
from bifilter.bisentence_filter import (
    FilterConfig,
    align_filter,
    evaluate_filtering,
    load_gold_labels,
)
from bifilter.corpus_io import Bitext
from bifilter.errors import ConfigError, DataError
from bifilter.similarity import (
    COMPARATORS,
    ChainContext,
    ComparatorChain,
    DEFAULT_CHAIN,
    chain_evaluate,
    register_comparator,
)
from bifilter.textnorm import (
    StopList,
    SynonymLexicon,
    default_stoplist,
    remove_stopwords,
    tokenize,
)


def make_bitext(trans, tgt, src=None):
    if src is None:
        src = [f"src {i}" for i in range(len(trans))]
    return Bitext(
        source=src,
        target=tgt,
        trans=trans,
    )


def empty_ctx():
    return ChainContext(stoplist=StopList.from_words([]))


@pytest.fixture
def mock_chain():
    """Chain driven by a canned (trans_line, tgt_line) -> score table.

    Missing pairs score 0. The comparator id is re-registered per test.
    """
    tables = {}

    def cmp(pa, pb, ctx, chain):
        return tables["scores"].get((pa.text, pb.text), 0.0)

    register_comparator("canned", cmp, replace=True)

    def build(scores, threshold=0.99, final_threshold=0.5):
        tables["scores"] = scores
        return ComparatorChain(tiers=(("canned", threshold),),
                               final_threshold=final_threshold)

    yield build
    COMPARATORS.pop("canned", None)


TRANS = ["I go to school every day.", "I don't go to school every day."]
TGT = [
    "I like going to school every day.",
    "I do not go to school every day.",
    "We will go tomorrow.",
]
# the worked conflict example: line 0 would take its 0.70 candidate, but
# line 1 outbids it at 0.95, so line 0 falls back to 0.60
SCORES = {
    (TRANS[0], TGT[0]): 0.60,
    (TRANS[0], TGT[1]): 0.70,
    (TRANS[1], TGT[1]): 0.95,
    (TRANS[1], TGT[0]): 0.30,
}


class TestLookaheadRule:
    def test_worked_conflict_example(self, mock_chain):
        chain = mock_chain(SCORES)
        cfg = FilterConfig(chain=chain, window=None, lookahead=1, context=empty_ctx())
        res = align_filter(make_bitext(TRANS, TGT), cfg)
        assert [(i, j) for i, j, _, _ in res.accepted] == [(0, 0), (1, 1)]
        scores = {(i, j): s for i, j, s, _ in res.accepted}
        assert scores[(0, 0)] == pytest.approx(0.60)
        assert scores[(1, 1)] == pytest.approx(0.95)
        assert res.dropped_tgt == (2,)
        assert res.dropped_src == ()

    def test_no_lookahead_keeps_greedy_choice(self, mock_chain):
        chain = mock_chain(SCORES)
        cfg = FilterConfig(chain=chain, window=None, lookahead=0, context=empty_ctx())
        res = align_filter(make_bitext(TRANS, TGT), cfg)
        # without the veto, line 0 grabs its best candidate first
        pairs = {(i, j) for i, j, _, _ in res.accepted}
        assert (0, 1) in pairs

    @pytest.mark.parametrize("contender_changes, winner", [
        ((10, 20), 1),  # ratio tier 0.996 beats overlap tier 0.99
        (tuple(range(3, 100, 10)), 0),  # ratio tier 0.980 does not
    ])
    def test_contest_compares_scores_across_tiers(self, contender_changes, winner):
        words = [f"w{n:03d}" for n in range(100)]
        target = " ".join(words)
        incumbent = " ".join("zzzz" if n == 50 else w for n, w in enumerate(words))
        contender = " ".join(w.replace("w", "x") if n in contender_changes else w
                             for n, w in enumerate(words))
        ctx = empty_ctx()
        held = chain_evaluate(incumbent, target, DEFAULT_CHAIN, ctx)
        bid = chain_evaluate(contender, target, DEFAULT_CHAIN, ctx)
        assert (held.accepted, held.comparator, held.score) == (True, "overlap", 0.99)
        assert bid.accepted and bid.comparator == "ratio"
        cfg = FilterConfig(chain=DEFAULT_CHAIN, window=None, lookahead=1, context=ctx)
        res = align_filter(make_bitext([incumbent, contender], [target, "q r s"]), cfg)
        kept = bid if winner else held
        assert res.accepted == ((winner, 0, kept.score, kept.tier),)

    def test_identical_corpora_all_diagonal(self):
        lines = ["alpha beta", "gamma delta", "epsilon zeta"]
        cfg = FilterConfig(chain=DEFAULT_CHAIN, context=empty_ctx())
        res = align_filter(make_bitext(lines, lines), cfg)
        assert [(i, j) for i, j, _, _ in res.accepted] == [(0, 0), (1, 1), (2, 2)]
        assert res.dropped_src == () and res.dropped_tgt == ()

    def test_junk_target_line_dropped(self):
        trans = ["the cat sat on the mat", "a dog ran in the park"]
        tgt = ["the cat sat on the mat", "ISBN 1-55164-250-6.", "a dog ran in the park"]
        cfg = FilterConfig(chain=DEFAULT_CHAIN, context=empty_ctx())
        res = align_filter(make_bitext(trans, tgt), cfg)
        assert 1 in res.dropped_tgt

    def test_missing_trans_layer_rejected(self):
        bt = Bitext(source=("a",), target=("a",))
        cfg = FilterConfig(chain=DEFAULT_CHAIN, context=empty_ctx())
        with pytest.raises(DataError):
            align_filter(bt, cfg)

    def test_empty_source_line_becomes_dropped_src(self, mock_chain):
        # an empty source line has no translation and can never match
        chain = mock_chain({("x", "x"): 1.0})
        bt = make_bitext(["x", ""], ["x", "y"], src=["sx", ""])
        cfg = FilterConfig(chain=chain, window=None, context=empty_ctx())
        res = align_filter(bt, cfg)
        assert (1, 0.0) in res.dropped_src

    def test_empty_source_line_never_matches_its_translation(self):
        # a translation given for an empty source line does not make it a
        # candidate, nor a bidder in a later contest
        bt = make_bitext(["The cat sits on the mat.", "The dog runs."],
                         ["The cat sits on the mat.", "The dog runs."],
                         src=["", "Kot siedzi na macie."])
        for lookahead in (0, 1):
            cfg = FilterConfig(chain=DEFAULT_CHAIN, window=None, lookahead=lookahead,
                               context=empty_ctx())
            res = align_filter(bt, cfg)
            assert res.accepted == ((1, 1, 1.0, 0),)
            assert res.dropped_src == ((0, 0.0),)
            assert res.dropped_tgt == (0,)
            assert (res.accepted, res.dropped_src, res.dropped_tgt) == \
                oracles.reference_align_filter(bt, cfg)

    def test_incomplete_trans_layer_rejected(self):
        bt = make_bitext(["x", ""], ["x", "y"])
        cfg = FilterConfig(chain=DEFAULT_CHAIN, context=empty_ctx())
        with pytest.raises(DataError):
            align_filter(bt, cfg)

    def test_window_excludes_far_candidates(self, mock_chain):
        # perfect score far off the diagonal is invisible with a tight window
        chain = mock_chain({("a", "a"): 1.0})
        trans = ["a"] + ["b"] * 9
        tgt = ["c"] * 9 + ["a"]
        cfg = FilterConfig(chain=chain, window=2, context=empty_ctx())
        res = align_filter(make_bitext(trans, tgt), cfg)
        assert all(i != 0 for i, _, _, _ in res.accepted)


class TestConfigValidation:
    def test_negative_window(self):
        with pytest.raises(ConfigError):
            FilterConfig(chain=DEFAULT_CHAIN, window=-1)

    def test_negative_lookahead(self):
        with pytest.raises(ConfigError):
            FilterConfig(chain=DEFAULT_CHAIN, lookahead=-1)

    def test_negative_displacement_rounds(self):
        with pytest.raises(ConfigError):
            FilterConfig(chain=DEFAULT_CHAIN, displacement_rounds=-1)


class TestResolveConflict:
    """Who keeps a contested target line, seen through align_filter: line 1
    holds target 2 and a later line bids for it."""

    @staticmethod
    def run(mock_chain, bids, lookahead=1):
        # line 0 settles target 0; line 1 scores 0.70 on target 2; bids maps
        # each later line to its score on target 2
        scores = {("t0", "g0"): 1.0, ("t1", "g2"): 0.70}
        scores.update({(f"t{k}", "g2"): s for k, s in bids.items()})
        trans = [f"t{k}" for k in range(2 + len(bids))]
        cfg = FilterConfig(chain=mock_chain(scores), window=None, lookahead=lookahead,
                           context=empty_ctx())
        res = align_filter(make_bitext(trans, ["g0", "g1", "g2"]), cfg)
        return {j: i for i, j, _, _ in res.accepted}[2]

    def test_the_worked_scores(self, mock_chain):
        assert self.run(mock_chain, {2: 0.95}) == 2

    def test_equal_scores_earlier_wins(self, mock_chain):
        assert self.run(mock_chain, {2: 0.70}) == 1

    def test_lookahead_zero_returns_i(self, mock_chain):
        assert self.run(mock_chain, {2: 0.99}, lookahead=0) == 1

    @staticmethod
    def pairs(mock_chain, scores, window):
        # three lines and three targets, so line k's diagonal is target k
        cfg = FilterConfig(chain=mock_chain(scores), window=window, context=empty_ctx())
        res = align_filter(make_bitext(["t0", "t1", "t2"], ["g0", "g1", "g2"]), cfg)
        return {i: j for i, j, _, _ in res.accepted}

    def test_contender_must_reach_the_target(self, mock_chain):
        # line 2 outscores line 1 on target 0, but target 0 is outside line
        # 2's window; had line 2 deferred line 1, no line would have matched
        # in round one, and the first-come pass would have given target 0
        # to line 0
        scores = {("t0", "g0"): 0.60, ("t1", "g0"): 0.70, ("t2", "g0"): 0.95}
        assert self.pairs(mock_chain, scores, window=1) == {1: 0}

    def test_matched_line_does_not_contest(self, mock_chain):
        # round one: line 2 defers line 1 on target 1, then takes target 0;
        # round two: line 1 takes target 1, since the matched line 2 no
        # longer bids, before line 0 can
        scores = {("t0", "g1"): 0.60, ("t1", "g1"): 0.70,
                  ("t2", "g1"): 0.95, ("t2", "g0"): 0.99}
        assert self.pairs(mock_chain, scores, window=None) == {1: 1, 2: 0}

    @pytest.mark.parametrize("lookahead, winner", [(1, 1), (2, 3)])
    def test_two_lines_ahead_outbids_within_the_lookahead(self, mock_chain,
                                                          lookahead, winner):
        # line 2 scores nothing on target 2; line 3 outbids line 1 from two
        # lines ahead
        assert self.run(mock_chain, {2: 0.0, 3: 0.95}, lookahead) == winner


class TestPerfectScore:
    """A candidate accepted at 1.0 wins its row at once: a later candidate
    can only tie it, ties go to the lower target index, and no contender
    scores strictly higher. The rest of the row is not scored and no
    contest is held."""

    def test_no_chain_call_after_a_perfect_candidate(self, mock_chain, monkeypatch):
        # line 0 scores 0.8 on g0, then 1.0 on g1 and g2; line 1 would tie
        # it on g1 and could contest g0 and g1 from inside its window
        scores = {("t0", "g0"): 0.8, ("t0", "g1"): 1.0, ("t0", "g2"): 1.0,
                  ("t1", "g0"): 0.9, ("t1", "g1"): 1.0}
        calls = []
        evaluate = bisentence_filter.chain_evaluate

        def counted(a, b, chain, context):
            calls.append((a, b))
            return evaluate(a, b, chain, context)

        monkeypatch.setattr(bisentence_filter, "chain_evaluate", counted)
        cfg = FilterConfig(chain=mock_chain(scores), window=None, context=empty_ctx())
        bitext = make_bitext(["t0", "t1"], ["g0", "g1", "g2"])
        res = align_filter(bitext, cfg)
        assert [(i, j, score) for i, j, score, _ in res.accepted] == [(0, 1, 1.0), (1, 0, 0.9)]
        # line 0 stops at g1: no call on g2 and no contest call on g1; line
        # 1 then scores its open candidates g0 and g2
        assert calls == [("t0", "g0"), ("t0", "g1"), ("t1", "g0"), ("t1", "g2")]
        assert (res.accepted, res.dropped_src, res.dropped_tgt) == \
            oracles.reference_align_filter(bitext, cfg)


def random_instance(rng, n_max=20):
    n = rng.randint(1, n_max)
    m = rng.randint(1, n_max)
    trans = [f"t{i}" for i in range(n)]
    tgt = [f"g{j}" for j in range(m)]
    scores = {
        (trans[i], tgt[j]): round(rng.random(), 3)
        for i in range(n) for j in range(m)
    }
    return trans, tgt, scores


class TestDegenerateArgmax:
    def test_matches_per_line_scan(self, mock_chain):
        # window off, lookahead off, reuse on: every line independently
        # takes its best candidate
        rng = random.Random(11)
        for _ in range(25):
            trans, tgt, scores = random_instance(rng)
            chain = mock_chain(scores, final_threshold=0.5)
            cfg = FilterConfig(chain=chain, window=None, lookahead=0,
                               allow_reuse=True, context=empty_ctx())
            res = align_filter(make_bitext(trans, tgt), cfg)
            got = {(i, j) for i, j, _, _ in res.accepted}
            want = set()
            for i, t in enumerate(trans):
                best_j = max(range(len(tgt)),
                             key=lambda j: (scores[(t, tgt[j])], -j))
                if scores[(t, tgt[best_j])] >= 0.5:
                    want.add((i, best_j))
            assert got == want


class TestStructuralInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_coverage_and_uniqueness(self, seed):
        rng = random.Random(seed)
        trans, tgt, scores = random_instance(rng, n_max=12)
        canned = dict(scores)

        def cmp(pa, pb, ctx, chain):
            return canned.get((pa.text, pb.text), 0.0)

        register_comparator("prop_cmp", cmp, replace=True)
        try:
            chain = ComparatorChain(tiers=(("prop_cmp", 0.99),), final_threshold=0.4)
            cfg = FilterConfig(
                chain=chain,
                window=rng.choice([None, 1, 3]),
                lookahead=rng.choice([0, 1, 2]),
                context=empty_ctx(),
            )
            res = align_filter(make_bitext(trans, tgt), cfg)
        finally:
            COMPARATORS.pop("prop_cmp", None)

        src_accepted = [i for i, _, _, _ in res.accepted]
        tgt_accepted = [j for _, j, _, _ in res.accepted]
        # one-to-one both ways
        assert len(src_accepted) == len(set(src_accepted))
        assert len(tgt_accepted) == len(set(tgt_accepted))
        # source side partitions into accepted and dropped
        dropped = {i for i, _ in res.dropped_src}
        assert dropped | set(src_accepted) == set(range(len(trans)))
        assert dropped & set(src_accepted) == set()
        # target side likewise
        assert set(res.dropped_tgt) | set(tgt_accepted) == set(range(len(tgt)))
        assert set(res.dropped_tgt) & set(tgt_accepted) == set()
        # the single tier is also the last tier, so the acceptance floor
        # is the final threshold
        for _, _, score, tier in res.accepted:
            assert tier == 0 and score >= 0.4

    def test_threshold_monotonicity(self, mock_chain):
        rng = random.Random(5)
        trans, tgt, scores = random_instance(rng, n_max=15)
        counts = []
        for thr in [0.1 * k for k in range(11)]:
            chain = mock_chain(scores, final_threshold=thr)
            cfg = FilterConfig(chain=chain, window=None, context=empty_ctx())
            res = align_filter(make_bitext(trans, tgt), cfg)
            counts.append(len(res.accepted))
        assert counts == sorted(counts, reverse=True)


PACKED_LINE = st.lists(st.sampled_from(
    ["cat", "sat", "mat", "dog", "ran", "park", "game", "sport", "żółw", "naïve",
     "the", "a"]), max_size=10).map(" ".join)


def _packed_bitext(lines):
    trans, tgt, blank = lines
    # near-copies of the translations make some pairs pass every gate
    tgt = [t if k % 3 else trans[k % len(trans)] for k, t in enumerate(tgt)]
    # an empty translation has an empty source line; the source lines in
    # blank are empty too, whatever their translation
    src = ["" if k in blank else t for k, t in enumerate(trans)]
    return make_bitext(trans, tgt, src=src)


def _packed_lines(pool):
    # a line is fresh or drawn from the small pool, so that translations
    # and targets repeat: a matched line's text may still be pending
    line = PACKED_LINE | st.sampled_from(pool)
    return st.lists(line, min_size=1, max_size=40).flatmap(
        lambda trans: st.tuples(st.just(trans), st.lists(
            line, min_size=max(0, len(trans) - 3), max_size=len(trans) + 3),
            st.sets(st.integers(0, len(trans) - 1), max_size=max(1, len(trans) // 4))))


PACKED_BITEXT = st.lists(PACKED_LINE, min_size=1, max_size=3).flatmap(
    _packed_lines).map(_packed_bitext)


class TestPackedRows:
    """Rows of four or more candidates take their LCS gate values from one
    packed pass over their window; the result is that of gating each pair
    on its own."""

    @staticmethod
    def config(window, lookahead=1, rounds=3, allow_reuse=False):
        lex = SynonymLexicon()
        lex.add("game", ["sport"])
        lex.add("cat", ["dog"])
        return FilterConfig(chain=DEFAULT_CHAIN, window=window, lookahead=lookahead,
                            displacement_rounds=rounds, allow_reuse=allow_reuse,
                            context=ChainContext(stoplist=StopList.from_words(["the", "a"]),
                                                 lexicon=lex))

    @settings(max_examples=60, deadline=None)
    @given(PACKED_BITEXT, st.sampled_from([0, 1, 2, 30, None]), st.integers(0, 2),
           st.integers(0, 3), st.booleans())
    def test_same_result_without_packing(self, bitext, window, lookahead, rounds,
                                         allow_reuse):
        args = (window, lookahead, rounds, allow_reuse)
        cfg = self.config(*args)
        packed = align_filter(bitext, cfg)
        assert cfg.context.row is None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bisentence_filter, "_PACKED_ROW_MIN", 10 ** 9)
            alone = align_filter(bitext, self.config(*args))
        assert packed == alone

    def counted(self, monkeypatch, obj, name):
        calls = []
        fn = getattr(obj, name)

        def wrapper(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(obj, name, wrapper)
        return calls

    def counted_packs(self, monkeypatch):
        # each PackedStrings built, and the pack behind each LCS pass
        built, passes = [], []
        init, lcs_lengths = similarity.PackedStrings.__init__, similarity.PackedStrings.lcs_lengths

        def counted_init(pack, strings):
            init(pack, strings)
            built.append(pack)

        def counted_lcs_lengths(pack, a):
            passes.append(pack)
            return lcs_lengths(pack, a)

        monkeypatch.setattr(similarity.PackedStrings, "__init__", counted_init)
        monkeypatch.setattr(similarity.PackedStrings, "lcs_lengths", counted_lcs_lengths)
        return built, passes

    def test_one_pass_per_row_and_chunks_shared(self, monkeypatch):
        # 64 unrelated lines, window 2: every pair is gated, no pair is
        # accepted, and no line has a synonym variant
        rng = random.Random(3)
        letters = "abcdefghijklmnopqrstuvwxyz"
        trans = ["".join(rng.choice(letters[:13]) for _ in range(30)) for _ in range(64)]
        tgt = ["".join(rng.choice(letters[13:]) for _ in range(30)) for _ in range(64)]
        masks = self.counted(monkeypatch, similarity, "_build_masks")
        built, passes = self.counted_packs(monkeypatch)
        cfg = self.config(window=2)
        rows = []  # the chunks of each row slot filled
        set_row = cfg.context.set_row
        monkeypatch.setattr(cfg.context, "set_row",
                            lambda p, chunks=(): rows.append(len(passes)) or set_row(p, chunks))
        res = align_filter(make_bitext(trans, tgt), cfg)
        assert res.accepted == ()
        chunk = bisentence_filter._PACK_CHUNK
        chunks = [tuple(tgt[c:c + chunk]) for c in range(0, 64, chunk)]
        # each chunk of 16 target lines is built once, and shared; the
        # synonym tier packs each source line once. Masks are built for
        # the strings of the packs a pass reads, once: every chunk, and the
        # line packs of rows 0 and 63 (below)
        assert sorted(b.strings for b in built) == sorted(chunks + [(t,) for t in trans])
        assert sorted(masks) == sorted([(t,) for t in tgt + [trans[0], trans[63]]])
        # rows 0 and 63 have three candidates and gate each pair alone,
        # through their own line's pack
        assert sorted(p.strings for p in passes if len(p.strings) == 1) == (
            [(trans[0],)] * 3 + [(trans[63],)] * 3)
        # every other row fills the slot once and, since every pair's gate
        # reads it, runs one pass per chunk its window touches: at most
        # one per chunk per row
        assert len(rows) == 62 + 1  # and the slot emptied at the end
        for i, (start, end) in enumerate(zip(rows, rows[1:]), start=1):
            row_passes = [p.strings for p in passes[start:end] if len(p.strings) > 1]
            assert sorted(row_passes) == sorted(
                {chunks[j // chunk] for j in range(max(0, i - 2), min(63, i + 2) + 1)})

    def test_chunk_builds_skip_forgotten_targets(self, mock_chain, monkeypatch):
        # chunks of two targets, window 4, eight distinct targets. Round
        # one: line 1 outbids line 0 on g0 and takes it; line 5, whose
        # translation equals line 0's, takes g5, which drops that text's
        # decisions. Round two: line 0 scores its row again, and the chunk
        # of g0 and g1, dropped since, is built again without g0
        monkeypatch.setattr(bisentence_filter, "_PACK_CHUNK", 2)
        scores = {("t", "g0"): 0.7, ("u", "g0"): 0.9, ("t", "g5"): 0.6}
        trans = ["t", "u", "v", "w", "x", "t", "y", "z"]
        tgt = [f"g{j}" for j in range(8)]
        cfg = FilterConfig(chain=mock_chain(scores), window=4, context=empty_ctx())
        ctx = cfg.context
        forgotten, revived = set(), []
        prepare, forget = ctx.prepare, ctx.forget

        def counted_prepare(text):
            if text in forgotten:
                revived.append(text)
            return prepare(text)

        def counted_forget(text):
            forgotten.add(text)
            forget(text)

        monkeypatch.setattr(ctx, "prepare", counted_prepare)
        monkeypatch.setattr(ctx, "forget", counted_forget)
        built, _ = self.counted_packs(monkeypatch)
        res = align_filter(make_bitext(trans, tgt), cfg)
        assert [(i, j) for i, j, _, _ in res.accepted] == [(1, 0), (5, 5)]
        # only the repeated translation is prepared again after a forget
        assert "g0" in forgotten
        assert set(revived) == {"t"}
        assert ("g1",) in [b.strings for b in built]

    def test_small_rows_gate_each_pair(self, monkeypatch):
        rng = random.Random(4)
        trans = ["".join(rng.choice("abcdefghijklm") for _ in range(30)) for _ in range(8)]
        tgt = ["".join(rng.choice("nopqrstuvwxyz") for _ in range(30)) for _ in range(8)]
        masks = self.counted(monkeypatch, similarity, "_build_masks")
        built, passes = self.counted_packs(monkeypatch)
        align_filter(make_bitext(trans, tgt), self.config(window=1))
        # each source line is packed once, in line order, and gates each of
        # its candidates through that pack: no row pass
        assert [b.strings for b in built] == [(t,) for t in trans]
        assert masks == [(t,) for t in trans]
        assert [p.strings for p in passes] == [(t,) for k, t in enumerate(trans)
                                               for _ in range(3 - (k in (0, 7)))]

    def test_variants_share_one_pass_per_pair(self, monkeypatch):
        # the seed-0 acceptance corpus with 30 synonym pairs over its most
        # frequent content words: a packed string's masks are built at
        # most once, each line's variants are expanded once per packing, and a
        # gated pair runs at most one line pass, shared by the base ratio
        # and the synonym tier, however many variants its source line has;
        # a row's chunk passes run at most once per chunk per row
        sb = synthcorpus.build()
        stop = default_stoplist("en")
        freq = Counter(t for line in sb.trans
                       for t in remove_stopwords(tokenize(line), stop))
        top = [w for w, _ in freq.most_common(60)]
        lex = SynonymLexicon({top[k]: [top[k + 1]] for k in range(0, 60, 2)})
        ctx = ChainContext(stoplist=stop, lexicon=lex)
        bitext = Bitext(sb.source, sb.target, sb.trans)
        masks = self.counted(monkeypatch, similarity, "_build_masks")
        kernel = self.counted(monkeypatch, similarity, "_lcs_run")
        expanded = self.counted(monkeypatch, similarity, "expand_variants")
        built, passes = self.counted_packs(monkeypatch)
        chunks = []  # every chunk a row slot held, kept alive for its id
        chunk_ids = set()
        rows = []  # where in passes each row slot was filled
        set_row = ctx.set_row

        def counted_set_row(p, row_chunks=()):
            row_chunks = tuple(row_chunks)
            chunks.extend(row_chunks)
            chunk_ids.update(map(id, row_chunks))
            rows.append(len(passes))
            set_row(p, row_chunks)

        monkeypatch.setattr(ctx, "set_row", counted_set_row)
        evaluate = bisentence_filter.chain_evaluate
        pair_passes = []  # the line passes each chain_evaluate call runs

        def counted_evaluate(*args):
            before = len(passes)
            try:
                return evaluate(*args)
            finally:
                pair_passes.append(sum(id(p) not in chunk_ids for p in passes[before:]))

        monkeypatch.setattr(bisentence_filter, "chain_evaluate", counted_evaluate)
        res = align_filter(bitext, FilterConfig(chain=DEFAULT_CHAIN, context=ctx))
        assert len(res.accepted) > 700
        # a pack's masks are built once, by its first pass; a pack no pass
        # reads builds none
        passed = {id(p): p for p in passes}
        assert len(masks) == sum(len(p.strings) for p in passed.values())
        assert [b.masks is None for b in built] == [id(b) not in passed for b in built]
        line_packs = [b for b in built if id(b) not in chunk_ids]
        # each chunk of 16 target lines is built at most once
        assert len(built) - len(line_packs) <= -(-len(sb.target) // bisentence_filter._PACK_CHUNK)
        assert len(expanded) == len(line_packs)
        assert len(kernel) == len(passes)
        line_passes = [p for p in passes if id(p) not in chunk_ids]
        assert max(pair_passes) == 1
        assert sum(pair_passes) == len(line_passes)
        for start, end in zip(rows, rows[1:] + [len(passes)]):
            row_chunk_passes = [id(p) for p in passes[start:end] if id(p) in chunk_ids]
            assert len(row_chunk_passes) == len(set(row_chunk_passes))
        assert len(passes) > len(line_passes) > 0
        # the passes carry several variants each
        assert max(len(b.strings) for b in line_packs) > 3
        assert sum(len(p.strings) - 1 for p in line_passes) > 2 * len(kernel)


class TestReferenceFilter:
    """align_filter against oracles.reference_align_filter, which scores
    every pair exactly, packs nothing and settles contests by argmax. The
    default chain exercises the LCS gates and packed rows; a chain of
    canned scores in steps of 0.1, drawn per text pair from a seed,
    exercises contests and ties."""

    @staticmethod
    def config(canned, *args):
        cfg = TestPackedRows.config(*args)
        if canned is None:
            return cfg
        chain = ComparatorChain(tiers=(("oracle_canned", 0.9),), final_threshold=0.5)
        return dataclasses.replace(cfg, chain=chain)

    @settings(max_examples=150, deadline=None)
    @given(PACKED_BITEXT, st.none() | st.integers(0, 2 ** 16),
           st.sampled_from([0, 1, 2, 30, None]), st.integers(0, 3), st.integers(0, 3),
           st.booleans())
    # line 3 outscores line 1 on target 0 but may not contest it: target 0
    # is outside line 3's window
    @example(_packed_bitext((["cat cat cat", "cat cat żółw", "", "cat cat"], [""] * 4,
                             set())),
             None, 2, 2, 1, True)
    # two candidates at 1.0 in line 0's row (targets 0 and 1): the lower
    # index wins without a contest
    @example(_packed_bitext((["cat sat", "dog ran"], ["mat", "cat sat", "dog"], set())),
             None, 2, 1, 1, False)
    # two lines at 1.0 on target 0, the only copy of their text: the
    # earlier keeps it, the later drops
    @example(_packed_bitext((["cat sat", "cat sat", "dog"], ["park", "game", "sport"],
                             set())),
             None, None, 1, 2, False)
    def test_equals_oracle(self, bitext, canned, window, lookahead, rounds, allow_reuse):
        def cmp(pa, pb, ctx, chain):
            return random.Random(f"{canned}|{pa.text}|{pb.text}").randrange(11) / 10

        register_comparator("oracle_canned", cmp, replace=True)
        try:
            args = (canned, window, lookahead, rounds, allow_reuse)
            got = align_filter(bitext, self.config(*args))
            cfg = self.config(*args)
            accepted, dropped_src, dropped_tgt = oracles.reference_align_filter(bitext, cfg)
        finally:
            COMPARATORS.pop("oracle_canned", None)
        assert got.accepted == accepted
        assert got.dropped_tgt == dropped_tgt
        assert [i for i, _ in got.dropped_src] == [i for i, _ in dropped_src]
        for (_, fast), (_, exact) in zip(got.dropped_src, dropped_src):
            if exact >= cfg.chain.floor:
                assert fast == exact
            else:
                assert fast < cfg.chain.floor

    @settings(max_examples=40, deadline=None)
    @given(PACKED_BITEXT, st.sampled_from([0, 2, 30, None]), st.integers(0, 2),
           st.booleans())
    def test_context_reused_across_calls(self, bitext, window, lookahead, allow_reuse):
        # the first call leaves the context with forgotten sentences, a
        # grown word table and a used line slot; none of it shows in the
        # second call's result
        cfg = self.config(None, window, lookahead, 3, allow_reuse)
        first = align_filter(bitext, cfg)
        assert align_filter(bitext, cfg) == first
        assert align_filter(bitext, self.config(None, window, lookahead, 3,
                                                allow_reuse)) == first


class TestHostileMemory:
    """A long corpus at the default window: align_filter keeps decisions
    and prepared sentences only for lines it can still match, so peak
    memory follows the input and the vocabulary, not the pairs scored."""

    def test_filter_4000_lines(self, write_lines, tmp_path):
        parts = [synthcorpus.build(seed=synthcorpus.SEED + p) for p in range(4)]
        paths = {side: write_lines(f"{side}.txt",
                                   [line for sb in parts for line in getattr(sb, side)])
                 for side in ("source", "target", "trans")}
        out_src = tmp_path / "o.src"
        peak_mb = cli_peak_mb(
            "filter", "--src", str(paths["source"]), "--tgt", str(paths["target"]),
            "--trans", str(paths["trans"]), "--out-src", str(out_src),
            "--out-tgt", str(tmp_path / "o.tgt"), "--report", str(tmp_path / "rep.tsv"))
        assert len(out_src.read_text(encoding="utf-8").splitlines()) > 3000
        # 29 MB measured (CPython 3.11); keeping every decision and prepared
        # sentence for the whole run took 66 MB
        assert peak_mb <= 40

    def test_fresh_chunks_on_every_line(self, write_lines, tmp_path):
        # 16,000 lines whose words all carry their line number, so every
        # line brings new chunks (about 190,000 distinct ones) into the
        # context's chunk table, which never forgets them
        parts = [synthcorpus.build(seed=synthcorpus.SEED + p) for p in range(16)]

        def lines(side):
            return [line for sb in parts for line in getattr(sb, side)]

        def fresh(side):
            return [" ".join(f"{w}{i}" for w in line.split())
                    for i, line in enumerate(lines(side))]

        paths = {"source": write_lines("source.txt", lines("source")),
                 "target": write_lines("target.txt", fresh("target")),
                 "trans": write_lines("trans.txt", fresh("trans"))}
        out_src = tmp_path / "o.src"
        peak_mb = cli_peak_mb(
            "filter", "--src", str(paths["source"]), "--tgt", str(paths["target"]),
            "--trans", str(paths["trans"]), "--window", "1", "--out-src", str(out_src),
            "--out-tgt", str(tmp_path / "o.tgt"), "--report", str(tmp_path / "rep.tsv"))
        assert len(out_src.read_text(encoding="utf-8").splitlines()) > 13000
        # 84 MB measured (CPython 3.11); 67 MB without a chunk table, and
        # 95 MB when each entry kept its chunk as a key string of its own
        assert peak_mb <= 100


class TestHostileLongLines:
    """Long lines that the overlap tier settles cost no LCS pass and no
    bitmask: the row's chunk passes, and the masks they read, are made only
    when a ratio-family gate reads them."""

    @staticmethod
    def near_duplicates(n, words=900, seed=0):
        # n translations and n targets, each a 900-word line of about 5.5k
        # characters with one word changed: every pair overlaps at about
        # 0.998, above the overlap tier's 0.99, but none scores 1.0
        rng = random.Random(seed)
        vocab = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                         for _ in range(rng.randint(3, 7))) for _ in range(2000)]
        base = [rng.choice(vocab) for _ in range(words)]

        def changed(tag, k):
            line = list(base)
            line[rng.randrange(words)] = f"{tag}{k}"
            return " ".join(line)

        return [changed("t", k) for k in range(n)], [changed("g", k) for k in range(n)]

    def test_near_duplicates_run_no_pass(self, monkeypatch):
        # 11.1 s in process when every row ran its passes up front, and
        # 1.05 s when every chunk still built its masks
        trans, tgt = self.near_duplicates(200)
        assert 5000 < min(map(len, trans + tgt)) and max(map(len, trans + tgt)) < 6000
        bitext = make_bitext(trans, tgt)
        passes, builds = [], []
        run, build = similarity._lcs_run, similarity._build_masks
        monkeypatch.setattr(similarity, "_lcs_run", lambda *args: passes.append(args) or run(*args))
        monkeypatch.setattr(similarity, "_build_masks",
                            lambda *args: builds.append(args) or build(*args))
        got = align_filter(bitext, FilterConfig(chain=DEFAULT_CHAIN, window=5))
        assert passes == []
        assert builds == []
        assert len(got.accepted) == 200
        assert {tier for _, _, _, tier in got.accepted} == {0}
        monkeypatch.setattr(bisentence_filter, "_PACKED_ROW_MIN", 10 ** 9)
        assert align_filter(bitext, FilterConfig(chain=DEFAULT_CHAIN, window=5)) == got


class TestEvaluateFiltering:
    def rows(self, pairs):
        return tuple((i, j, 1.0, 0) for i, j in pairs)

    def test_perfect_filter(self):
        poor = {(0, 0), (1, 1)}
        good = {(2, 2), (3, 3)}
        q = evaluate_filtering(self.rows([(2, 2), (3, 3)]), poor, good)
        assert q.poor_filtered == 2 and q.good_filtered == 0
        assert q.total == 4 and q.poor_in_test == 2

    def test_nothing_dropped(self):
        poor = {(0, 0)}
        good = {(1, 1)}
        q = evaluate_filtering(self.rows([(0, 0), (1, 1)]), poor, good)
        assert q.poor_filtered == 0 and q.good_filtered == 0

    def test_reference_outcome_shape(self):
        # the canonical report: 1000 pairs, 182 poor, 154 caught, 12 lost
        poor = {(i, i) for i in range(182)}
        good = {(i, i) for i in range(182, 1000)}
        kept = [(i, i) for i in range(154, 182)]          # 28 poor slip through
        kept += [(i, i) for i in range(182, 1000) if i >= 194]  # 12 good lost
        q = evaluate_filtering(self.rows(kept), poor, good)
        assert q.total == 1000
        assert q.poor_in_test == 182
        assert q.poor_filtered == 154
        assert q.good_filtered == 12

    def test_double_label_rejected(self):
        with pytest.raises(ConfigError):
            evaluate_filtering(self.rows([]), {(0, 0)}, {(0, 0)})

    def test_unlabeled_accepted_pair_rejected(self):
        with pytest.raises(ConfigError):
            evaluate_filtering(self.rows([(5, 5)]), {(0, 0)}, {(1, 1)})


class TestGoldLabels:
    def test_load(self, tmp_path):
        p = tmp_path / "gold.tsv"
        p.write_text("# pairs\n0\t0\tpoor\n1\t1\tgood\n", encoding="utf-8")
        poor, good = load_gold_labels(p)
        assert poor == {(0, 0)} and good == {(1, 1)}

    def test_bad_label(self, tmp_path):
        p = tmp_path / "gold.tsv"
        p.write_text("0\t0\tmeh\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_gold_labels(p)

    def test_bad_indices(self, tmp_path):
        p = tmp_path / "gold.tsv"
        p.write_text("zero\t0\tpoor\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_gold_labels(p)

    def test_conflicting_label_names_path_and_line(self, tmp_path):
        p = tmp_path / "gold.tsv"
        p.write_text("0\t0\tpoor\n1\t1\tgood\n# note\n0\t0\tgood\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_gold_labels(p)
        assert str(exc.value) == f"{p}:4: pair (0, 0) is labeled both poor and good"

    def test_repeated_label_accepted(self, tmp_path):
        p = tmp_path / "gold.tsv"
        p.write_text("0\t0\tpoor\n0\t0\tPOOR\n", encoding="utf-8")
        assert load_gold_labels(p) == ({(0, 0)}, set())

    @pytest.mark.parametrize("row, message", [
        ("-1\t5\tpoor", "src_idx must be >= 0, got -1"),
        ("5\t-1\tgood", "tgt_idx must be >= 0, got -1"),
    ], ids=["src", "tgt"])
    def test_negative_index_names_path_and_line(self, tmp_path, row, message):
        # no filter run reports a pair with a negative index
        p = tmp_path / "gold.tsv"
        p.write_text(f"0\t0\tgood\n# note\n{row}\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_gold_labels(p)
        assert str(exc.value) == f"{p}:3: {message}"
