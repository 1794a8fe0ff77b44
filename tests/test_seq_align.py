import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bifilter.errors import ConfigError, DataError
from bifilter.seq_align import (
    AlignConfig,
    Alignment,
    CountingScorer,
    align_documents,
    astar_align,
    chain_scorer,
    equality_scorer,
    lexicon_scorer,
    load_dictionary,
    nw_align,
    threshold_filter,
)


def table_scorer(scores, default=0.0):
    return lambda a, b: scores.get((a, b), default)


def random_instance(rng, max_n, max_m=None):
    n = rng.randint(0, max_n)
    m = rng.randint(0, max_m if max_m is not None else max_n)
    doc_a = [f"a{i}" for i in range(n)]
    doc_b = [f"b{j}" for j in range(m)]
    scores = {
        (x, y): round(rng.random(), 3) for x in doc_a for y in doc_b
    }
    return doc_a, doc_b, table_scorer(scores)


class TestAlignmentType:
    def test_objective(self):
        al = Alignment(pairs=((0, 0, 0.9), (1, 2, 0.5)), gaps_a=(), gaps_b=(1,))
        assert al.objective(0.2) == pytest.approx(0.9 + 0.5 - 0.2)

    def test_rejects_crossing_pairs(self):
        with pytest.raises(ValueError):
            Alignment(pairs=((0, 1, 0.5), (1, 0, 0.5)), gaps_a=(), gaps_b=())

    def test_rejects_incomplete_partition(self):
        with pytest.raises(ValueError):
            Alignment(pairs=((0, 0, 0.5),), gaps_a=(2,), gaps_b=())

    def test_rejects_duplicate_index(self):
        with pytest.raises(ValueError):
            Alignment(pairs=((0, 0, 0.5), (0, 1, 0.5)), gaps_a=(), gaps_b=())


class TestScorers:
    def test_lexicon_saturated(self, tmp_path):
        p = tmp_path / "dict.tsv"
        p.write_text("kot\tcat\t1.0\npies\tdog\t1.0\n", encoding="utf-8")
        scorer = lexicon_scorer(load_dictionary(p))
        assert scorer("kot pies", "the cat and dog") == 1.0

    def test_lexicon_no_hits(self, tmp_path):
        p = tmp_path / "dict.tsv"
        p.write_text("kot\tcat\t1.0\n", encoding="utf-8")
        scorer = lexicon_scorer(load_dictionary(p))
        assert scorer("zupa", "soup") == 0.0

    def test_lexicon_mean_of_best(self, tmp_path):
        p = tmp_path / "dict.tsv"
        p.write_text("kot\tcat\t1.0\npies\tdog\t0.5\n", encoding="utf-8")
        scorer = lexicon_scorer(load_dictionary(p))
        assert scorer("kot pies", "cat dog") == pytest.approx(0.75)

    def test_lexicon_ignores_punctuation(self, tmp_path):
        p = tmp_path / "dict.tsv"
        p.write_text("kot\tcat\t1.0\npies\t!\t1.0\n", encoding="utf-8")
        scorer = lexicon_scorer(load_dictionary(p))
        assert scorer("kot !", "cat") == 1.0
        assert scorer("! ?", "cat") == 0.0
        # a punctuation token on the target side is no translation either
        assert scorer("pies", "dog !") == 0.0

    def test_dictionary_rejects_bad_probability(self, tmp_path):
        p = tmp_path / "dict.tsv"
        p.write_text("kot\tcat\t1.5\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_dictionary(p)

    def test_dictionary_rejects_short_rows(self, tmp_path):
        p = tmp_path / "dict.tsv"
        p.write_text("kot\tcat\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_dictionary(p)

    def test_dictionary_later_rows_override(self, tmp_path):
        p = tmp_path / "dict.tsv"
        p.write_text("kot\tcat\t0.3\nkot\tcat\t0.9\n", encoding="utf-8")
        scorer = lexicon_scorer(load_dictionary(p))
        assert scorer("kot", "cat") == pytest.approx(0.9)

    def test_equality_scorer(self):
        assert equality_scorer("x", "x") == 1.0
        assert equality_scorer("x", "y") == 0.0

    def test_chain_scorer_bridges_similarity(self):
        from bifilter.similarity import ChainContext, DEFAULT_CHAIN, chain_evaluate, ratio
        from bifilter.textnorm import StopList

        ctx = ChainContext(stoplist=StopList.from_words([]))
        scorer = chain_scorer(DEFAULT_CHAIN, ctx)
        assert scorer("same text", "same text") == 1.0
        # a rejected pair still scores its exact last-tier value, because
        # the alignment objective adds rejected scores up
        a, b = "the quick brown fox jumps", "a lazy dog sleeps all day"
        assert not chain_evaluate(a, b, DEFAULT_CHAIN, ctx).accepted
        assert scorer(a, b) == ratio(ctx.prepare(a).joined, ctx.prepare(b).joined).score

    def test_counting_scorer_counts(self):
        cs = CountingScorer(equality_scorer)
        cs("a", "a"); cs("a", "b")
        assert cs.calls == 2


class TestNwAlign:
    CFG = AlignConfig(gap_penalty=0.1)

    def test_identity(self):
        doc = ["s one", "s two", "s three"]
        al = nw_align(doc, doc, equality_scorer, self.CFG)
        assert [(i, j) for i, j, _ in al.pairs] == [(0, 0), (1, 1), (2, 2)]
        assert al.gaps_a == () and al.gaps_b == ()

    def test_insertion_lands_in_gaps_b(self):
        doc_a = ["s one", "s two", "s three"]
        doc_b = ["s one", "inserted", "s two", "s three"]
        al = nw_align(doc_a, doc_b, equality_scorer, self.CFG)
        assert al.gaps_b == (1,)
        assert [(i, j) for i, j, _ in al.pairs] == [(0, 0), (1, 2), (2, 3)]

    def test_all_zero_scorer_gap_zero_goes_all_gaps(self):
        al = nw_align(["a", "b"], ["c"], lambda x, y: 0.0, AlignConfig(gap_penalty=0.0))
        assert al.pairs == ()
        assert al.gaps_a == (0, 1) and al.gaps_b == (0,)

    def test_empty_sides(self):
        al = nw_align([], ["x"], equality_scorer, self.CFG)
        assert al.pairs == () and al.gaps_b == (0,)
        al = nw_align([], [], equality_scorer, self.CFG)
        assert al.pairs == () and al.gaps_a == () and al.gaps_b == ()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_optimal_vs_enumeration(self, seed):
        rng = random.Random(seed)
        doc_a, doc_b, scorer = random_instance(rng, 5)
        gap = rng.choice([0.0, 0.1, 0.2, 0.5])
        al = nw_align(doc_a, doc_b, scorer, AlignConfig(gap_penalty=gap))
        want = oracles.best_alignment_objective(doc_a, doc_b, scorer, gap)
        assert al.objective(gap) == pytest.approx(want, abs=1e-9)


class TestAstarAlign:
    CFG = AlignConfig(gap_penalty=0.1, engine="astar")

    def test_identity_matches_dp(self):
        doc = ["x", "y", "z"]
        a1 = nw_align(doc, doc, equality_scorer, AlignConfig())
        a2 = astar_align(doc, doc, equality_scorer, AlignConfig())
        assert a1.pairs == a2.pairs

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_objective_equals_dp(self, seed):
        rng = random.Random(seed)
        doc_a, doc_b, scorer = random_instance(rng, 8)
        gap = rng.choice([0.0, 0.1, 0.3])
        cfg = AlignConfig(gap_penalty=gap)
        dp = nw_align(doc_a, doc_b, scorer, cfg)
        astar = astar_align(doc_a, doc_b, scorer, cfg)
        assert astar.objective(gap) == pytest.approx(dp.objective(gap), abs=1e-9)

    def test_lazy_on_near_diagonal(self):
        n = 50
        doc = [f"line {i}" for i in range(n)]

        def diag(a, b):
            return 1.0 if a == b else 0.0

        counting = CountingScorer(diag)
        stats = {}
        al = astar_align(doc, list(doc), counting, AlignConfig(gap_penalty=0.3),
                         stats=stats)
        assert [(i, j) for i, j, _ in al.pairs] == [(i, i) for i in range(n)]
        assert counting.calls < n * n
        assert stats["scorer_calls"] == counting.calls

    def test_scorer_called_at_most_once_per_cell(self):
        rng = random.Random(3)
        doc_a, doc_b, scorer = random_instance(rng, 7)
        counting = CountingScorer(scorer)
        astar_align(doc_a, doc_b, counting, AlignConfig(gap_penalty=0.2))
        assert counting.calls <= len(doc_a) * len(doc_b)


class TestAlignDocuments:
    def test_engine_dispatch(self):
        doc = ["a", "b"]
        dp = align_documents(doc, doc, equality_scorer, AlignConfig(engine="dp"))
        astar = align_documents(doc, doc, equality_scorer, AlignConfig(engine="astar"))
        assert dp.pairs == astar.pairs

    def test_bad_engine(self):
        with pytest.raises(ConfigError):
            AlignConfig(engine="quantum")

    def test_bad_gap_penalty(self):
        with pytest.raises(ConfigError):
            AlignConfig(gap_penalty=-0.5)


class TestThresholdFilter:
    AL = Alignment(
        pairs=((0, 0, 0.9), (1, 1, 0.4), (2, 2, 0.7)),
        gaps_a=(), gaps_b=(),
    )

    def test_zero_keeps_all(self):
        assert len(threshold_filter(self.AL, 0.0)) == 3

    def test_one_keeps_only_perfect(self):
        al = Alignment(pairs=((0, 0, 1.0), (1, 1, 0.999)), gaps_a=(), gaps_b=())
        assert [(i, j) for i, j, _ in threshold_filter(al, 1.0)] == [(0, 0)]

    def test_mid_threshold_keeps_order(self):
        kept = threshold_filter(self.AL, 0.5)
        assert [(i, j) for i, j, _ in kept] == [(0, 0), (2, 2)]

    def test_tau_out_of_range(self):
        with pytest.raises(ConfigError):
            threshold_filter(self.AL, 1.5)

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_nesting(self, t1, t2):
        lo, hi = sorted((t1, t2))
        kept_hi = {(i, j) for i, j, _ in threshold_filter(self.AL, hi)}
        kept_lo = {(i, j) for i, j, _ in threshold_filter(self.AL, lo)}
        assert kept_hi <= kept_lo
