import json
import random
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import synthcorpus
from peakrss import cli_peak_mb
from bifilter import cli, seq_align
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


def per_pair(scorer):
    """scorer as a plain function, without its against: nw_align then
    scores it cell by cell."""
    return lambda a, b: scorer(a, b)


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

    def test_lexicon_best_of_several_hits(self):
        scorer = lexicon_scorer(
            {"kot": {"cat": 0.25, "dog": 0.5, "the": 0.5, "ma": 0.0, "pies": 1.0}})
        assert scorer("kot", "cat dog the ma") == 0.5
        assert scorer("kot", "ma cat") == 0.25
        assert scorer("kot", "ma") == 0.0
        assert scorer("kot kot", "cat pies") == 1.0

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
# Rows of one to four entries; some source words have no row. Half the
# probabilities come from a few round values, so rows hold ties, zeros and
# ones, where a first-hit rule over ranked rows could part from max().
_DICTIONARY = st.dictionaries(
    st.sampled_from(["kot", "pies", "cat", "ma", "!"]),
    st.dictionaries(
        st.sampled_from(["cat", "dog", "the", "ma", "!"]),
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        ),
        min_size=1, max_size=4,
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

    @settings(max_examples=200, deadline=None)
    @given(_DICTIONARY, st.lists(_LINE, min_size=1, max_size=6))
    # "kot" has a multi-entry row with a tie and a zero, and two of its
    # targets on one line; "ma" has a row of zeros
    @example({"kot": {"cat": 0.5, "dog": 0.5, "the": 0.0}, "ma": {"dog": 0.0, "cat": 0.0}},
             ["kot ma kot", "cat dog the", "dog", "The ma!", "?!", "cat dog the"])
    def test_rows_equal_reference_scores(self, dictionary, doc):
        """against(doc_b) gives, for any line and any band doc_b[lo:hi],
        the very floats the from-scratch score gives for each line of the
        band, and nw_align through those bands equals nw_align cell by
        cell."""
        doc_b = doc[::-1] + doc[:1]
        scorer = lexicon_scorer(dictionary)
        scores = scorer.against(doc_b)
        for a in doc:
            want = [oracles.reference_lexicon_score(dictionary, a, b) for b in doc_b]
            for lo in range(len(doc_b) + 1):
                for hi in range(lo, len(doc_b) + 1):
                    assert scores(a, lo, hi) == want[lo:hi]
        cfg = AlignConfig(gap_penalty=0.2)
        assert nw_align(doc, doc_b, lexicon_scorer(dictionary), cfg) == nw_align(
            doc, doc_b, per_pair(lexicon_scorer(dictionary)), cfg)

    def test_tokenizes_each_distinct_chunk_once(self, monkeypatch):
        dictionary = {"kot": {"cat": 0.9}, "pies": {"dog": 0.6, "cat": 0.1}}
        doc_a = ["kot pies", "kot", "", "kot pies", "! ?", "kot cat."]
        # Chunks repeat within lines, across lines and across the two sides
        # ("kot", "cat", "dog."), yet every distinct chunk of both
        # documents is tokenized exactly once, and nothing else is.
        doc_b = ["the cat", "dog.", "the cat", " ", "a dog and a cat", "kot dog."]
        scorer = lexicon_scorer(dictionary)
        # Patched after the scorer is made: it looks tokenize up on each call.
        seen = Counter()
        tokenize = seq_align.tokenize

        def counted(chunk):
            seen[chunk] += 1
            return tokenize(chunk)

        monkeypatch.setattr(seq_align, "tokenize", counted)
        al = align_documents(doc_a, doc_b, scorer, AlignConfig(engine="dp"))
        assert seen == Counter({chunk for line in doc_a + doc_b for chunk in line.split()})
        assert al == oracles.reference_nw_align(
            doc_a, doc_b, lambda a, b: oracles.reference_lexicon_score(dictionary, a, b), 0.2)


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

    def test_scores_rows_through_against(self):
        # one against call for doc_b, at most one span doc_b[lo:hi] per
        # source line, in order, and pair calls only for the diagonal band,
        # each pair once, and then, at backtrace, the aligned pairs
        doc_a, doc_b = [f"a{i}" for i in range(5)], [f"b{j}" for j in range(6)]
        rng = random.Random(5)
        table = table_scorer({(x, y): round(rng.random(), 3) for x in doc_a for y in doc_b})
        scorer, calls = counting(table)
        asked, bands = [], []

        def against(side):
            asked.append(list(side))

            def scores(a, lo, hi):
                bands.append((a, lo, hi))
                return [table(a, b) for b in side[lo:hi]]

            return scores

        scorer.against = against
        stats = {}
        al = nw_align(doc_a, doc_b, scorer, self.CFG, stats=stats)
        assert al == nw_align(doc_a, doc_b, table, self.CFG)
        assert asked == [doc_b]
        sources = [a for a, _lo, _hi in bands]
        assert sources == [a for a in doc_a if a in sources]
        assert all(0 <= lo <= hi <= len(doc_b) for _a, lo, hi in bands)
        pairs = [(doc_a[i], doc_b[j]) for i, j, _ in reversed(al.pairs)]
        band = calls[:len(calls) - len(pairs)]
        assert calls[len(band):] == pairs
        assert seq_align._band_floor(doc_a, doc_b, table, 0.1)[1] == len(band)
        assert len(set(band)) == len(band)
        assert stats["scorer_calls"] == len(calls) + sum(hi - lo for _a, lo, hi in bands)

    def test_pair_scored_two_ways_raises(self):
        # the band's pairs score 1.0 one by one and 0.0 through against, so
        # no path reaches the band's objective
        def score(a, b):
            return 1.0

        score.against = lambda doc_b: lambda a, lo, hi: [0.0] * (hi - lo)
        message = ("no alignment reaches the band's objective: "
                   "the pair scorer gave a pair two different scores")
        with pytest.raises(ValueError, match=re.escape(message)):
            nw_align(["a0", "a1"], ["b0", "b1"], score, self.CFG)

    @staticmethod
    def check_band(doc_a, doc_b, table, gap):
        """nw_align equals the reference; the band's objective is at most
        the optimum and at least that of a path with no pair scoring above
        0, so the band holds a path; the band scores each pair at most once,
        at most 2·_BAND + 1 per source line, and counts its calls."""
        assert nw_align(doc_a, doc_b, table, AlignConfig(gap_penalty=gap)) == (
            oracles.reference_nw_align(doc_a, doc_b, table, gap))
        scorer, calls = counting(table)
        value, made = seq_align._band_floor(doc_a, doc_b, scorer, gap)
        forward, _backward = oracles.reference_cell_bounds(doc_a, doc_b, table, gap)
        assert -gap * (len(doc_a) + len(doc_b)) - 1e-9 <= value
        assert value <= forward[len(doc_a)][len(doc_b)]
        assert made == len(calls) == len(set(calls))
        assert made <= (2 * seq_align._BAND + 1) * len(doc_a)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.sampled_from([0.0, 0.1, 0.2, 0.5]),
        st.data(),
    )
    def test_band_holds_a_path_on_tie_heavy_tables(self, n, m, gap, data):
        doc_a, doc_b = [f"a{i}" for i in range(n)], [f"b{j}" for j in range(m)]
        value = st.sampled_from([0.0, 0.1, 0.2, 0.4, 0.5, 1.0])
        table = table_scorer({(x, y): data.draw(value) for x in doc_a for y in doc_b})
        self.check_band(doc_a, doc_b, table, gap)

    @pytest.mark.parametrize("n, m", [(1, 40), (40, 1), (3, 200)])
    def test_band_holds_a_path_on_skewed_grids(self, n, m):
        # rows far apart from each other, joined by the band
        rng = random.Random(n * 1000 + m)
        doc_a, doc_b = [f"a{i}" for i in range(n)], [f"b{j}" for j in range(m)]
        table = table_scorer({(x, y): rng.choice([0.0, 0.5, 1.0])
                              for x in doc_a for y in doc_b})
        for gap in (0.0, 0.2):
            self.check_band(doc_a, doc_b, table, gap)

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

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([0.0, 0.1, 0.2, 0.5]),
        st.data(),
    )
    def test_scores_each_expanded_cell_then_each_pair_again(self, n, m, gap, data):
        """A* keeps no likelihoods: it scores a cell each time it expands
        the node there, and its backtrace scores each aligned pair once
        more, in the reference's order."""
        doc_a, doc_b = [f"a{i}" for i in range(n)], [f"b{j}" for j in range(m)]
        value = st.sampled_from([0.0, 0.1, 0.2, 0.4, 0.5, 1.0])
        table = table_scorer({(x, y): data.draw(value) for x in doc_a for y in doc_b})
        scorer, calls = counting(table)
        stats = {}
        al = align_documents(doc_a, doc_b, scorer,
                             AlignConfig(gap_penalty=gap, engine="astar"), stats=stats)
        search = calls[:len(calls) - len(al.pairs)]
        assert len(search) <= stats["expanded"]
        assert calls[len(search):] == [(doc_a[i], doc_b[j]) for i, j, _ in reversed(al.pairs)]
        assert stats["scorer_calls"] == len(calls)
        reference, reference_calls = counting(table)
        oracles.reference_astar_align(doc_a, doc_b, reference, gap, seq_align._heuristic)
        assert calls == reference_calls

    def test_node_reopened_by_rounding_is_scored_again(self):
        # node (3, 1) is expanded with gain -0.2 + 0.5 == 0.3; its gain
        # through (2, 1), 0.4 - 0.1, is equal in exact arithmetic but
        # rounds to 0.30000000000000004, so the search reopens the node
        # and scores cell (3, 1) a second time
        scores = {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.4, (1, 1): 1.0,
                  (2, 0): 0.5, (2, 1): 0.4, (3, 0): 0.5, (3, 1): 0.4}
        scorer, calls = counting(lambda a, b: scores[(a, b)])
        stats = {}
        al = astar_align([0, 1, 2, 3], [0, 1], scorer, AlignConfig(gap_penalty=0.1),
                         stats=stats)
        assert al.pairs == ((0, 0, 0.5), (1, 1, 1.0))
        assert calls == [(0, 0), (1, 0), (2, 0), (1, 1), (3, 1), (2, 1), (3, 1),
                         (1, 1), (0, 0)]
        assert stats == {"scorer_calls": 9, "expanded": 9}

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

    def test_heuristic_counts_unavoidable_gaps(self):
        """On a 12 x 6 grid the gap term saves scorer calls over the
        matches-only bound min(rest_a, rest_b), at the same objective."""
        rng = random.Random(0)
        doc_a, doc_b = [f"a{i}" for i in range(12)], [f"b{j}" for j in range(6)]
        scorer = table_scorer(
            {(x, y): round(rng.random(), 3) for x in doc_a for y in doc_b})
        cfg = AlignConfig(gap_penalty=0.2)
        stats = {}
        al = astar_align(doc_a, doc_b, scorer, cfg, stats=stats)
        old, old_stats = oracles.reference_astar_align(
            doc_a, doc_b, scorer, 0.2,
            heuristic=lambda rest_a, rest_b, gap: float(min(rest_a, rest_b)))
        assert stats["scorer_calls"] < old_stats["scorer_calls"]
        want = nw_align(doc_a, doc_b, scorer, cfg).objective(0.2)
        assert al.objective(0.2) == pytest.approx(want, abs=1e-9)
        assert old.objective(0.2) == pytest.approx(want, abs=1e-9)


class TestTieBreakOracles:
    """Both engines against transcriptions of their tuple-keyed forms, on
    score tables with many ties: equal Alignments, not just objectives, so
    a changed tie-break shows."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.7]),
        st.data(),
    )
    def test_engines_equal_references(self, n, m, gap, data):
        doc_a, doc_b = [f"a{i}" for i in range(n)], [f"b{j}" for j in range(m)]
        value = st.sampled_from([0.0, 0.1, 0.2, 0.4, 0.5, 1.0])
        scorer = table_scorer(
            {(x, y): data.draw(value) for x in doc_a for y in doc_b})
        cfg = AlignConfig(gap_penalty=gap)
        assert nw_align(doc_a, doc_b, scorer, cfg) == oracles.reference_nw_align(
            doc_a, doc_b, scorer, gap)
        stats = {}
        got = astar_align(doc_a, doc_b, scorer, cfg, stats=stats)
        assert (got, stats) == oracles.reference_astar_align(
            doc_a, doc_b, scorer, gap, seq_align._heuristic)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([0.0, 0.1, 0.2, 0.5]),
        st.data(),
    )
    def test_dp_scores_only_cells_that_can_be_optimal(self, n, m, gap, data):
        """The DP keeps no likelihoods: after its diagonal band it scores
        each cell at most once, leaving out only cells that no optimal
        alignment pairs, and its backtrace scores each aligned pair once
        more."""
        doc_a, doc_b = [f"a{i}" for i in range(n)], [f"b{j}" for j in range(m)]
        value = st.sampled_from([0.0, 0.1, 0.2, 0.4, 0.5, 1.0])
        table = table_scorer({(x, y): data.draw(value) for x in doc_a for y in doc_b})
        scorer, calls = counting(table)
        stats = {}
        al = align_documents(doc_a, doc_b, scorer, AlignConfig(gap_penalty=gap),
                             stats=stats)
        assert stats["scorer_calls"] == len(calls)
        pairs = [(doc_a[i], doc_b[j]) for i, j, _ in reversed(al.pairs)]
        assert calls[len(calls) - len(pairs):] == pairs
        band = seq_align._band_floor(doc_a, doc_b, table, gap)[1]
        cells = calls[band:len(calls) - len(pairs)]
        assert len(set(cells)) == len(cells)
        assert stats["filled"] >= len(cells)
        forward, backward = oracles.reference_cell_bounds(doc_a, doc_b, table, gap)
        optimum, scored = forward[n][m], set(cells)
        for i, x in enumerate(doc_a):
            for j, y in enumerate(doc_b):
                if (x, y) not in scored:
                    through = forward[i][j] + table(x, y) + backward[i + 1][j + 1]
                    assert through < optimum


class TestComparableDocuments:
    """Two documents shaped like the align benchmark's: the first 200
    translation-layer lines of the synthetic corpus, noise included,
    against their target lines with every 20th deleted and, every 30
    lines, a target line from far down the corpus inserted."""

    @staticmethod
    def documents(n=200):
        total = 3 * n
        sb = synthcorpus.build(
            total=total,
            noisy=round(total * synthcorpus.NOISY_PAIRS / synthcorpus.TOTAL_PAIRS))
        doc_b = []
        for i in range(n):
            if i % 20 != 7:
                doc_b.append(sb.target[i])
            if i % 30 == 15:
                doc_b.append(sb.target[2 * n + i // 30])
        return list(sb.trans[:n]), doc_b

    def test_dp_fills_under_a_third_of_the_grid(self):
        doc_a, doc_b = self.documents()
        vocab = {w for line in doc_a + doc_b for w in re.findall(r"\w+", line.lower())}
        dictionary = {w: {w: 1.0} for w in vocab}
        # a plain function, so each cell scored is one call
        scorer, calls = counting(lexicon_scorer(dictionary))
        stats = {}
        al = nw_align(doc_a, doc_b, scorer, AlignConfig(), stats=stats)
        assert al == oracles.reference_nw_align(
            doc_a, doc_b, lexicon_scorer(dictionary), 0.2)
        assert stats["scorer_calls"] == len(calls)
        # 7,301 calls (594 for the band, 6,517 cells, 190 aligned pairs)
        # and 6,845 nodes filled when written, of 200 x 197 = 39,400. With
        # a greedy walk's floor (132.40 where the band's is the optimum,
        # 151.12) it made 12,422 calls and filled 11,923 nodes.
        cells = len(doc_a) * len(doc_b)
        assert len(calls) <= cells // 5
        assert stats["filled"] <= cells // 5


def _align_peak_mb(tmp_path, n, engine, m=None, timeout=120):
    """(peak RSS in MB, manifest stats) of `align --engine ENGINE` on two
    unrelated documents of n and m lines (m defaults to n), which must
    finish within timeout seconds."""
    m = n if m is None else m
    doc_a, doc_b = tmp_path / "a.txt", tmp_path / "b.txt"
    doc_a.write_text("".join(f"left line {i}\n" for i in range(n)), encoding="utf-8")
    doc_b.write_text("".join(f"right line {j}\n" for j in range(m)), encoding="utf-8")
    out = tmp_path / "pairs.tsv"
    peak_mb = cli_peak_mb("align", "--doc-a", str(doc_a), "--doc-b", str(doc_b),
                          "--out", str(out), "--engine", engine, timeout=timeout)
    stats = json.loads(Path(f"{out}.manifest.json").read_text())["stats"]
    return peak_mb, stats


class TestHostileMemory:
    """Every cell of two unrelated documents scores 0: DP keeps one byte
    for each node of the grid, and both engines score most cells. A
    dictionary word on every line makes each DP band reach every target
    line."""

    def test_dp_2000_lines(self, tmp_path):
        peak_mb, stats = _align_peak_mb(tmp_path, 2000, "dp")
        # The band's best path pairs the diagonal, as does the optimum:
        # objective 0. A node off the diagonal by d has gained -0.2·d and
        # must pay 0.2·d more, so it is kept while 0.4·d is at most the
        # matches still possible: 2,856,000 of the 4,000,000 nodes.
        # 2,859,998 are filled, the rest on the edges of the rows' spans.
        # The scorer runs 5,998 times for the band (3 a row, 2 in the
        # first), 2,858,856 times for the cells under kept nodes and 2,000
        # times for the zero-scoring pairs of the diagonal (one such pair
        # costs less than its two gaps).
        assert stats == {"scorer_calls": 5998 + 2858856 + 2000, "filled": 2859998}
        assert peak_mb <= 40

    @pytest.mark.parametrize("n, m, band", [(20, 4000, 20), (4000, 20, 7819)])
    def test_dp_skewed_documents(self, tmp_path, n, m, band):
        # 20 lines against 4,000: the band's rows lie 200 columns apart and
        # are joined, and 4,000 rows share 20 columns. Every path has at
        # least 3,980 gaps, so the cutoff leaves out only 88 of the 80,000
        # nodes; the scorer runs for the band, 79,902 cells and the 20
        # zero-scoring pairs. About 0.2 s and 21 MB each (2 vCPUs, Python
        # 3.11.7).
        peak_mb, stats = _align_peak_mb(tmp_path, n, "dp", m=m, timeout=30)
        assert stats == {"scorer_calls": band + 79902 + 20, "filled": 79912}
        assert peak_mb <= 40

    def test_dp_dictionary_word_on_every_line(self, tmp_path, monkeypatch):
        # one dictionary word on every line of both sides: each source
        # line's row credits all 2,000 target lines through the index
        n = 2000
        doc_a, doc_b, table = (tmp_path / name for name in ("a.txt", "b.txt", "dict.tsv"))
        doc_a.write_text("".join(f"shared left{i}\n" for i in range(n)), encoding="utf-8")
        doc_b.write_text("".join(f"shared right{j}\n" for j in range(n)), encoding="utf-8")
        # every seventh left line translates to the next right line, and
        # "shared" has a second, lower target on some lines
        table.write_text(
            "shared\tshared\t0.4\nshared\tright5\t0.3\n"
            + "".join(f"left{i}\tright{i + 1}\t0.9\n" for i in range(0, n, 7)),
            encoding="utf-8")
        args = ["align", "--doc-a", str(doc_a), "--doc-b", str(doc_b), "--dict", str(table),
                "--engine", "dp", "--threshold", "0"]
        rows, pairs = tmp_path / "rows.tsv", tmp_path / "pairs.tsv"
        assert cli_peak_mb(*args, "--out", str(rows)) <= 40
        make = cli.lexicon_scorer
        monkeypatch.setattr(cli, "lexicon_scorer", lambda entries: per_pair(make(entries)))
        assert cli.main([*args, "--out", str(pairs)]) == 0
        assert rows.read_bytes() == pairs.read_bytes()

    def test_astar_1000_lines(self, tmp_path):
        peak_mb, stats = _align_peak_mb(tmp_path, 1000, "astar")
        assert stats["scorer_calls"] > 1000 * 1000 // 2
        # 164 MB measured (CPython 3.11); 204 MB when it kept the
        # likelihood of every cell it scored
        assert peak_mb <= 220


class TestScorerRange:
    """Both engines reject a pair score outside [0, 1], NaN included,
    whether it comes from a call per pair or from a row of against."""

    @staticmethod
    def row_scorer(bad):
        """A scorer whose against band for "a1" holds bad for "b2". Its pair
        calls return 0.5, so only the band's check can see bad. On a0, a1
        against b0, b1, b2 the DP must read that cell: pairing a0 with b0,
        skipping b1 and pairing a1 with b2 is optimal. Its band starts at b1
        (no optimal alignment leaves a0 out before b0), so bad comes after
        an in-range value, where min and max alone miss a NaN."""
        def score(a, b):
            return 0.5

        score.against = lambda doc_b: lambda a, lo, hi: [
            bad if (a, b) == ("a1", "b2") else 0.5 for b in doc_b[lo:hi]]
        return score

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    @pytest.mark.parametrize("engine, kind", [
        ("dp", "per_pair"), ("dp", "rows"), ("astar", "per_pair")])
    def test_out_of_range_score_raises(self, engine, kind, bad):
        doc_a, doc_b = ["a0", "a1"], ["b0", "b1", "b2"]
        if kind == "rows":
            scorer = self.row_scorer(bad)
        else:
            scorer = lambda a, b: bad  # noqa: E731
        message = re.escape(f"pair scorer returned {bad}, outside [0, 1]")
        with pytest.raises(ValueError, match=message):
            align_documents(doc_a, doc_b, scorer, AlignConfig(engine=engine))

    def test_row_of_the_wrong_length_raises(self):
        # a0 alone against b0, b1, b2: its band is all three lines
        scorer = self.row_scorer(0.5)
        scorer.against = lambda doc_b: lambda a, lo, hi: [0.5] * (hi - lo - 1)
        with pytest.raises(ValueError, match="a row of 2 scores for 3 lines"):
            nw_align(["a0"], ["b0", "b1", "b2"], scorer, AlignConfig())

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_out_of_range_score_met_by_the_band_raises(self, bad):
        # The diagonal band scores pairs one by one before any row is asked
        # for, (a0, b0) among them. Summed into the band's objective
        # unchecked, a 1.5 would leave out every cell.
        def score(a, b):
            return bad if (a, b) == ("a0", "b0") else 0.5

        score.against = lambda doc_b: lambda a, lo, hi: [0.5] * (hi - lo)
        message = re.escape(f"pair scorer returned {bad}, outside [0, 1]")
        with pytest.raises(ValueError, match=message):
            nw_align(["a0", "a1"], ["b0", "b1", "b2"], score, AlignConfig())


class TestAlignDocuments:
    def test_engine_dispatch(self):
        doc = ["a", "b"]
        dp = align_documents(doc, doc, equality_scorer, AlignConfig(engine="dp"))
        astar = align_documents(doc, doc, equality_scorer, AlignConfig(engine="astar"))
        assert dp.pairs == astar.pairs

    @pytest.mark.parametrize("engine", ["dp", "astar"])
    def test_stats_count_scorer_calls(self, engine):
        rng = random.Random(2)  # 6 x 6; A* scores 16 of the 36 cells
        doc_a, doc_b, scorer = random_instance(rng, 6)
        scorer, calls = counting(scorer)
        stats = {}
        al = align_documents(doc_a, doc_b, scorer, AlignConfig(engine=engine),
                             stats=stats)
        assert stats["scorer_calls"] == len(calls)
        if engine == "dp":
            # 16 calls for the band, 16 cells under the 22 nodes filled,
            # then the 6 aligned pairs
            assert len(al.pairs) == 6
            assert stats == {"scorer_calls": 16 + 16 + 6, "filled": 22}

    def test_bad_engine(self):
        with pytest.raises(ConfigError):
            AlignConfig(engine="quantum")

    def test_bad_gap_penalty(self):
        with pytest.raises(ConfigError):
            AlignConfig(gap_penalty=-0.5)

    @pytest.mark.parametrize("engine", ["dp", "astar"])
    @pytest.mark.parametrize("gap", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_gap_penalty(self, engine, gap):
        # a NaN gap made dp return a wrong alignment, and NaN or infinite
        # gaps made astar exhaust its search
        with pytest.raises(ConfigError, match="gap_penalty must be finite and >= 0"):
            AlignConfig(gap_penalty=gap, engine=engine)

    @pytest.mark.parametrize("engine", ["dp", "astar"])
    @pytest.mark.parametrize("gap", [1e308, 9e307])
    def test_gap_too_large_for_the_documents(self, engine, gap):
        # gains of -gap·k overflowed to -inf, so astar exhausted its search
        # where dp returned an alignment
        cfg = AlignConfig(gap_penalty=gap, engine=engine)
        message = re.escape(f"gap_penalty {gap} is too large for 3 x 1 lines")
        with pytest.raises(ConfigError, match=message):
            align_documents(["a", "x", "c"], ["x"], equality_scorer, cfg)

    @pytest.mark.parametrize("engine", ["dp", "astar"])
    def test_largest_gap_that_keeps_the_sums_finite(self, engine):
        # 2 * gap * (3 + 1) is exactly the largest float. A pair's score is
        # lost in the rounding of its gains, so any one pair is optimal.
        gap = sys.float_info.max / 8
        al = align_documents(["a", "x", "c"], ["x"], equality_scorer,
                             AlignConfig(gap_penalty=gap, engine=engine))
        assert (len(al.pairs), len(al.gaps_a), len(al.gaps_b)) == (1, 2, 0)
        assert al.objective(gap) == -2 * gap


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
