import random

import pytest
from hypothesis import given, settings, strategies as st

from bifilter import bisentence_filter, similarity
from bifilter.bisentence_filter import (
    FilterConfig,
    align_filter,
    evaluate_filtering,
    load_gold_labels,
    resolve_conflict,
)
from bifilter.corpus_io import Bitext, Corpus
from bifilter.errors import ConfigError, DataError
from bifilter.similarity import (
    COMPARATORS,
    ChainContext,
    ComparatorChain,
    DEFAULT_CHAIN,
    PackedTargets,
    chain_evaluate,
    register_comparator,
)
from bifilter.textnorm import StopList, SynonymLexicon


def make_bitext(trans, tgt, src=None):
    if src is None:
        src = [f"src {i}" for i in range(len(trans))]
    return Bitext(
        source=Corpus(tuple(src)),
        target=Corpus(tuple(tgt)),
        trans=Corpus(tuple(trans)),
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
        bt = Bitext(source=Corpus(("a",)), target=Corpus(("a",)))
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
    def test_the_worked_scores(self):
        scores = {(1, 2): 0.70, (2, 2): 0.95}
        assert resolve_conflict(1, 2, lambda k, j: scores[k, j], lookahead=1) == 2

    def test_equal_scores_earlier_wins(self):
        scores = {(1, 2): 0.70, (2, 2): 0.70}
        assert resolve_conflict(1, 2, lambda k, j: scores[k, j], lookahead=1) == 1

    def test_lookahead_zero_returns_i(self):
        scores = {(1, 2): 0.1, (2, 2): 0.99}
        assert resolve_conflict(1, 2, lambda k, j: scores[k, j], lookahead=0) == 1

    def test_callable_lookup(self):
        assert resolve_conflict(0, 0, lambda i, j: [0.5, 0.9][i], lookahead=1) == 1


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
    @given(
        st.lists(PACKED_LINE, min_size=1, max_size=40).flatmap(
            lambda trans: st.tuples(st.just(trans), st.lists(
                PACKED_LINE, min_size=max(0, len(trans) - 3), max_size=len(trans) + 3))),
        st.sampled_from([0, 1, 2, 30, None]),
        st.integers(0, 2),
        st.integers(0, 3),
        st.booleans(),
    )
    def test_same_result_without_packing(self, lines, window, lookahead, rounds,
                                         allow_reuse):
        trans, tgt = lines
        # near-copies of the translations make some pairs pass every gate
        tgt = [t if k % 3 else trans[k % len(trans)] for k, t in enumerate(tgt)]
        # an empty line is empty on the source side too
        bitext = make_bitext(trans, tgt, src=trans)
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

    def test_one_pass_per_row_and_chunks_shared(self, monkeypatch):
        # 64 unrelated lines, window 2: every pair is gated, no pair is
        # accepted, and no contest or variant runs the pair-by-pair gate
        rng = random.Random(3)
        letters = "abcdefghijklmnopqrstuvwxyz"
        trans = ["".join(rng.choice(letters[:13]) for _ in range(30)) for _ in range(64)]
        tgt = ["".join(rng.choice(letters[13:]) for _ in range(30)) for _ in range(64)]
        pair_calls = self.counted(monkeypatch, similarity, "_lcs_length")
        row_calls = self.counted(monkeypatch, PackedTargets, "lcs_lengths")
        built = self.counted(monkeypatch, PackedTargets, "__init__")
        res = align_filter(make_bitext(trans, tgt), self.config(window=2))
        assert res.accepted == ()
        # rows 0 and 63 have three candidates and gate each pair alone;
        # every other row runs one pass per chunk its window touches
        assert len(pair_calls) == 2 * 3
        assert len(row_calls) == sum(
            len({j // bisentence_filter._PACK_CHUNK
                 for j in range(max(0, i - 2), min(63, i + 2) + 1)})
            for i in range(1, 63))
        # each chunk of 16 target lines is built once, and shared
        assert len(built) == 64 // bisentence_filter._PACK_CHUNK

    def test_small_rows_gate_each_pair(self, monkeypatch):
        rng = random.Random(4)
        trans = ["".join(rng.choice("abcdefghijklm") for _ in range(30)) for _ in range(8)]
        tgt = ["".join(rng.choice("nopqrstuvwxyz") for _ in range(30)) for _ in range(8)]
        pair_calls = self.counted(monkeypatch, similarity, "_lcs_length")
        row_calls = self.counted(monkeypatch, PackedTargets, "lcs_lengths")
        align_filter(make_bitext(trans, tgt), self.config(window=1))
        assert row_calls == []
        assert len(pair_calls) == 3 * 8 - 2


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
