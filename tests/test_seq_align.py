import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bifilter import seq_align
from bifilter.errors import ConfigError, DataError
from bifilter.seq_align import (
    AlignConfig,
    Alignment,
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


def counting(scorer):
    """scorer wrapped to count its calls: (wrapped, list of the calls)."""
    calls = []

    def wrapped(a, b):
        calls.append((a, b))
        return scorer(a, b)

    return wrapped, calls


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


# Lines over a small vocabulary, so that docs repeat lines and share
# words: empty and punctuation-only lines, mixed case, punctuation glued to
# words.
_WORDS = ["kot", "Pies", "cat", "dog", "the", "ma"]
_LINE = st.lists(
    st.sampled_from(_WORDS + [".", "!", "?!", "kot,", "(dog)"]), max_size=5
).map(" ".join)
# Rows of one to three entries with probabilities below 1; some source
# words have no row.
_DICTIONARY = st.dictionaries(
    st.sampled_from(["kot", "pies", "cat", "ma", "!"]),
    st.dictionaries(
        st.sampled_from(["cat", "dog", "the", "ma", "!"]),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        min_size=1, max_size=3,
    ),
)


class TestLexiconScorerCache:
    @settings(max_examples=150, deadline=None)
    @given(_DICTIONARY, st.lists(_LINE, min_size=1, max_size=4), st.data())
    def test_equals_reference_score(self, dictionary, pool, data):
        """The cached scorer returns the very float the from-scratch score
        gives, whatever order and however often the pairs are asked."""
        doc = st.lists(st.sampled_from(pool), max_size=6)
        doc_a, doc_b = data.draw(doc), data.draw(doc)
        pairs = [(a, b) for a in doc_a for b in doc_b]
        pairs += data.draw(st.permutations(pairs))
        scorer = lexicon_scorer(dictionary)
        for a, b in pairs:
            assert scorer(a, b) == oracles.reference_lexicon_score(dictionary, a, b)
        cfg = AlignConfig(gap_penalty=0.2)
        assert nw_align(doc_a, doc_b, lexicon_scorer(dictionary), cfg) == nw_align(
            doc_a, doc_b,
            lambda a, b: oracles.reference_lexicon_score(dictionary, a, b), cfg,
        )

    def test_tokenizes_each_distinct_line_once(self, monkeypatch):
        dictionary = {"kot": {"cat": 0.9}, "pies": {"dog": 0.6, "cat": 0.1}}
        doc_a = ["kot pies", "kot", "", "kot pies", "! ?", "kot"]
        # No line is on both sides, so none may be tokenized twice.
        doc_b = ["the cat", "dog.", "the cat", " ", "a dog and a cat"]
        scorer = lexicon_scorer(dictionary)
        # Patched after the scorer is made: it looks tokenize up on each call.
        seen = Counter()
        tokenize = seq_align.tokenize

        def counted(line):
            seen[line] += 1
            return tokenize(line)

        monkeypatch.setattr(seq_align, "tokenize", counted)
        align_documents(doc_a, doc_b, scorer, AlignConfig(engine="dp"))
        assert set(seen) == set(doc_a) | set(doc_b)
        assert max(seen.values()) == 1


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

        scorer, calls = counting(diag)
        stats = {}
        al = astar_align(doc, list(doc), scorer, AlignConfig(gap_penalty=0.3),
                         stats=stats)
        assert [(i, j) for i, j, _ in al.pairs] == [(i, i) for i in range(n)]
        assert len(calls) < n * n
        assert stats["scorer_calls"] == len(calls)

    def test_scorer_called_at_most_once_per_cell(self):
        rng = random.Random(3)
        doc_a, doc_b, scorer = random_instance(rng, 7)
        scorer, calls = counting(scorer)
        astar_align(doc_a, doc_b, scorer, AlignConfig(gap_penalty=0.2))
        assert len(calls) <= len(doc_a) * len(doc_b)
        assert len(set(calls)) == len(calls)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=0.0, max_value=2.0),
        st.data(),
    )
    def test_heuristic_is_consistent(self, n, m, gap, data):
        """h(u) >= w(u, v) + h(v) for every move u -> v of an n x m grid,
        and h is 0 at the goal. The slack covers rounding only."""
        score = st.floats(min_value=0.0, max_value=1.0)
        grid = [[data.draw(score) for _ in range(m)] for _ in range(n)]

        def h(i, j):
            return seq_align._heuristic(n - i, m - j, gap)

        assert h(n, m) == 0
        for i in range(n + 1):
            for j in range(m + 1):
                if i < n and j < m:
                    assert h(i, j) >= grid[i][j] + h(i + 1, j + 1) - 1e-12
                if i < n:
                    assert h(i, j) >= -gap + h(i + 1, j) - 1e-12
                if j < m:
                    assert h(i, j) >= -gap + h(i, j + 1) - 1e-12

    def test_heuristic_counts_unavoidable_gaps(self, monkeypatch):
        """On a 12 x 6 grid the gap term saves scorer calls over the
        matches-only bound min(rest_a, rest_b), at the same objective."""
        rng = random.Random(0)
        doc_a, doc_b = [f"a{i}" for i in range(12)], [f"b{j}" for j in range(6)]
        scorer = table_scorer(
            {(x, y): round(rng.random(), 3) for x in doc_a for y in doc_b})
        cfg = AlignConfig(gap_penalty=0.2)
        stats = {}
        al = astar_align(doc_a, doc_b, scorer, cfg, stats=stats)
        monkeypatch.setattr(seq_align, "_heuristic",
                            lambda rest_a, rest_b, gap: float(min(rest_a, rest_b)))
        old_stats = {}
        old = astar_align(doc_a, doc_b, scorer, cfg, stats=old_stats)
        assert stats["scorer_calls"] < old_stats["scorer_calls"]
        want = nw_align(doc_a, doc_b, scorer, cfg).objective(0.2)
        assert al.objective(0.2) == pytest.approx(want, abs=1e-9)
        assert old.objective(0.2) == pytest.approx(want, abs=1e-9)


class TestAlignDocuments:
    def test_engine_dispatch(self):
        doc = ["a", "b"]
        dp = align_documents(doc, doc, equality_scorer, AlignConfig(engine="dp"))
        astar = align_documents(doc, doc, equality_scorer, AlignConfig(engine="astar"))
        assert dp.pairs == astar.pairs

    @pytest.mark.parametrize("engine", ["dp", "astar"])
    def test_stats_count_scorer_calls(self, engine):
        rng = random.Random(2)  # 6 x 6; A* scores 19 of the 36 cells
        doc_a, doc_b, scorer = random_instance(rng, 6)
        scorer, calls = counting(scorer)
        stats = {}
        align_documents(doc_a, doc_b, scorer, AlignConfig(engine=engine),
                        stats=stats)
        assert stats["scorer_calls"] == len(calls)
        if engine == "dp":
            assert len(calls) == len(doc_a) * len(doc_b)

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
