import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bifilter.errors import ConfigError, DataError
from bifilter.mt_metrics import (
    BleuParams,
    bleu,
    brevity_penalty,
    meteor,
    meteor_corpus,
    metric_report,
    ngram_counts,
    nist,
    ter,
    ter_corpus,
)
from bifilter.textnorm import Stemmer, SynonymLexicon

words = st.sampled_from(["the", "cat", "sat", "on", "mat", "dog", "ran"])
segments = st.lists(words, min_size=1, max_size=8)


class TestNgramCounts:
    def test_bigrams(self):
        got = ngram_counts(["the", "cat", "sat"], 2)
        assert got == {("the", "cat"): 1, ("cat", "sat"): 1}

    def test_shorter_than_n(self):
        assert ngram_counts(["the"], 2) == {}

    def test_multiplicities(self):
        got = ngram_counts(["a", "a", "a"], 2)
        assert got == {("a", "a"): 2}


class TestBleu:
    def test_identity_is_one(self):
        cand = [["the", "cat", "sat", "on", "the", "mat"]]
        assert bleu(cand, [[cand[0]]], BleuParams()).score == 1.0

    def test_brevity_fixture(self):
        assert brevity_penalty(5, 10) == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert brevity_penalty(10, 5) == 1.0

    def test_cat_sat_fixture(self):
        got = bleu([["the", "cat", "sat"]],
                   [[["the", "cat", "sat", "down"]]],
                   BleuParams(order=2))
        assert got.precisions == (1.0, 1.0)
        assert got.brevity == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)
        assert got.score == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)

    def test_cat_sat_matches_oracle(self):
        got = bleu([["the", "cat", "sat"]],
                   [[["the", "cat", "sat", "down"]]],
                   BleuParams(order=2)).score
        want = oracles.naive_bleu([["the", "cat", "sat"]],
                                  [[["the", "cat", "sat", "down"]]], order=2)
        assert got == pytest.approx(want, abs=1e-9)

    def test_zero_ngram_overlap_scores_zero(self):
        got = bleu([["aa", "bb"]], [[["cc", "dd"]]], BleuParams(order=1))
        assert got.score == 0.0

    def test_closest_ref_length_breaks_ties_short(self):
        # candidate 3 tokens, refs of 2 and 4: both distance 1, take 2
        got = bleu([["a", "b", "c"]], [[["a", "b"], ["a", "b", "c", "d"]]],
                   BleuParams(order=1))
        assert got.ref_len == 2

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            BleuParams(order=2, weights=(0.9, 0.9))

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            bleu([], [], BleuParams())

    def test_ref_group_empty_rejected(self):
        with pytest.raises(DataError):
            bleu([["a"]], [[]], BleuParams())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_matches_oracle_on_random_corpora(self, seed):
        rng = random.Random(seed)
        n_seg = rng.randint(1, 4)
        cands, refs = [], []
        pool = ["the", "cat", "sat", "on", "mat", "dog"]
        for _ in range(n_seg):
            cands.append([rng.choice(pool) for _ in range(rng.randint(1, 7))])
            refs.append([[rng.choice(pool) for _ in range(rng.randint(1, 7))]
                         for _ in range(rng.randint(1, 3))])
        order = rng.randint(1, 3)
        got = bleu(cands, refs, BleuParams(order=order)).score
        want = oracles.naive_bleu(cands, refs, order=order)
        assert got == pytest.approx(want, abs=1e-9)

    @given(segments, segments)
    def test_clipping_never_rewards_unsupported_words(self, cand, ref):
        # appending a token foreign to the reference cannot raise any p_n
        # numerator; with a longer candidate the score cannot improve
        # unless brevity relief outweighs it, so compare numerators only
        p = BleuParams(order=1)
        base = bleu([cand], [[ref]], p)
        spiked = bleu([cand + ["zzz"]], [[ref]], p)
        base_hits = base.precisions[0] * len(cand)
        spiked_hits = spiked.precisions[0] * (len(cand) + 1)
        assert spiked_hits <= base_hits + 1e-9

    def test_equal_length_identity_required_for_one(self):
        # same multiset, different order: unigram BLEU 1.0 but bigram not
        got = bleu([["a", "b", "c"]], [[["c", "b", "a"]]], BleuParams(order=2))
        assert got.score < 1.0


class TestNist:
    CANDS = [["the", "cat", "sat", "on", "mat"],
             ["a", "dog", "ran", "far", "away"]]
    REFS = [[["the", "cat", "sat", "on", "the", "mat"]],
            [["a", "dog", "ran", "away", "fast"]]]

    def test_zero_cooccurrence(self):
        assert nist([["xx"]], [[["yy"]]]) == 0.0

    def test_equal_length_brevity_is_one(self):
        cand = [["the", "cat", "sat"]]
        refs = [[["the", "cat", "sat"]]]
        got = nist(cand, refs, order=2)
        # c = r, so the brevity factor is exactly 1 and the score is the
        # raw information sum
        want = oracles.naive_nist(cand, refs, order=2)
        assert got == pytest.approx(want, abs=1e-9)

    def test_two_segment_fixture_matches_oracle(self):
        got = nist(self.CANDS, self.REFS)
        want = oracles.naive_nist(self.CANDS, self.REFS)
        assert got == pytest.approx(want, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 30))
    def test_matches_oracle_on_random_corpora(self, seed):
        rng = random.Random(seed)
        pool = ["the", "cat", "sat", "on", "mat"]
        n_seg = rng.randint(1, 3)
        cands = [[rng.choice(pool) for _ in range(rng.randint(1, 6))]
                 for _ in range(n_seg)]
        refs = [[[rng.choice(pool) for _ in range(rng.randint(1, 6))]
                 for _ in range(rng.randint(1, 2))] for _ in range(n_seg)]
        order = rng.randint(1, 3)
        assert nist(cands, refs, order=order) == pytest.approx(
            oracles.naive_nist(cands, refs, order=order), abs=1e-9)

    def test_brevity_factor_half_at_two_thirds(self):
        # the beta calibration point: factor exactly 0.5 when the
        # candidate is 2/3 the mean reference length
        from bifilter.mt_metrics import _NIST_BETA

        factor = math.exp(_NIST_BETA * math.log(2.0 / 3.0) ** 2)
        assert factor == pytest.approx(0.5, abs=1e-12)
        cand = [["the", "cat"]]
        refs = [[["the", "cat", "sat"]]]
        assert nist(cand, refs, order=1) == pytest.approx(
            oracles.naive_nist(cand, refs, order=1), abs=1e-9)


class TestTer:
    def test_exact_match_zero(self):
        got = ter(["the", "cat"], [["the", "cat"]])
        assert got.edits == 0 and got.score == 0.0

    def test_single_substitution_five_tokens(self):
        got = ter(["the", "cat", "sat", "on", "rug"],
                  [["the", "cat", "sat", "on", "mat"]])
        assert got.edits == 1
        assert got.score == 0.2

    def test_adjacent_swap_one_shift(self):
        cand = ["a", "c", "b", "d", "e"]
        ref = ["a", "b", "c", "d", "e"]
        got = ter(cand, [ref])
        assert got.edits == 1 and got.shifts == 1
        assert got.score == pytest.approx(0.2)

    def test_adjacent_swap_confirmed_minimal_by_search(self):
        cand = ["a", "c", "b", "d", "e"]
        ref = ["a", "b", "c", "d", "e"]
        assert oracles.exhaustive_ter_edits(cand, ref, max_shifts=2) == 1

    def test_min_over_references(self):
        cand = ["x", "y"]
        got = ter(cand, [["a", "b", "c"], ["x", "y"]])
        assert got.edits == 0 and got.score == 0.0

    def test_score_can_exceed_one(self):
        got = ter(["a", "b", "c", "d"], [["z"]])
        assert got.score > 1.0

    def test_empty_refs_rejected(self):
        with pytest.raises(DataError):
            ter(["a"], [])

    def test_corpus_pools_edits_over_ref_lengths(self):
        pairs = [(["a", "b"], [["a", "b"]]), (["x"], [["y", "z"]])]
        got = ter_corpus([c for c, _ in pairs], [r for _, r in pairs])
        # segment edits 0 and 2, reference lengths 2 and 2
        assert got.edits == 2 and got.ref_len == 4.0
        assert got.score == pytest.approx(2 / 4)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=5),
           st.lists(st.sampled_from("abcd"), min_size=1, max_size=5))
    def test_zero_iff_equal(self, cand, ref):
        got = ter(cand, [ref])
        assert (got.score == 0.0) == (cand == ref)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=5),
           st.lists(st.sampled_from("abc"), min_size=1, max_size=5))
    def test_greedy_never_beaten_by_two_shift_search(self, cand, ref):
        # greedy may be suboptimal, never better than the true minimum
        got = ter(cand, [ref])
        assert got.edits >= oracles.exhaustive_ter_edits(cand, ref, max_shifts=2)


class TestMeteor:
    def test_perfect_four_tokens(self):
        got = meteor(["a", "b", "c", "d"], ["a", "b", "c", "d"])
        assert got.matches == 4 and got.chunks == 1
        assert got.score == pytest.approx(0.875, abs=1e-12)

    def test_no_matches_zero(self):
        got = meteor(["a"], ["z"])
        assert got.score == 0.0 and got.matches == 0

    def test_two_chunk_fixture(self):
        cand = "the cat sat on mat".split()
        ref = "on mat the cat sat".split()
        got = meteor(cand, ref)
        assert got.matches == 5 and got.chunks == 2
        assert got.precision == 1.0 and got.recall == 1.0
        assert got.score == pytest.approx(0.8, abs=1e-12)

    def test_two_chunk_fixture_minimality_by_enumeration(self):
        cand = "the cat sat on mat".split()
        ref = "on mat the cat sat".split()
        assert oracles.best_matching(cand, ref) == (5, 2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from("aabbc"), min_size=1, max_size=5),
           st.lists(st.sampled_from("aabbc"), min_size=1, max_size=5))
    def test_exact_pass_matches_enumeration(self, cand, ref):
        got = meteor(cand, ref)
        want_size, want_chunks = oracles.best_matching(cand, ref)
        assert got.matches == want_size
        if want_size:
            assert got.chunks == want_chunks

    def test_stem_pass_extends_matches(self):
        got = meteor(["boys", "run"], ["boy", "walk"], stemmer=Stemmer())
        assert got.matches == 1

    def test_synonym_pass_extends_matches(self):
        lex = SynonymLexicon()
        lex.add("game", ["sport"])
        got = meteor(["game"], ["sport"], lexicon=lex)
        assert got.matches == 1
        # symmetric: either side may hold the head word
        got = meteor(["sport"], ["game"], lexicon=lex)
        assert got.matches == 1

    def test_passes_do_not_steal_exact_matches(self):
        # "cat" matches exactly; the stem pass only adds "dogs"/"dog"
        got = meteor(["cat", "dogs"], ["cat", "dog"], stemmer=Stemmer())
        assert got.matches == 2

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=5))
    def test_p_equals_r_reduction(self, toks):
        got = meteor(toks, list(toks))
        if got.matches:
            p = got.precision
            want = p * (1 - got.penalty)
            assert got.score == pytest.approx(want, abs=1e-12)

    def test_penalty_exponent_flag(self):
        cand = "the cat sat on mat".split()
        ref = "on mat the cat sat".split()
        got = meteor(cand, ref, penalty_exponent=3)
        want = 1.0 * (1 - 0.5 * (2 / 5) ** 3)
        assert got.score == pytest.approx(want, abs=1e-12)

    def test_negative_penalty_exponent_rejected(self):
        cand = "the cat sat down".split()
        ref = "the cat sat here".split()
        assert meteor(cand, ref, penalty_exponent=0).score >= 0.0
        with pytest.raises(ConfigError, match="exponent"):
            meteor(cand, ref, penalty_exponent=-1)
        with pytest.raises(ConfigError, match="exponent"):
            meteor_corpus([cand], [[ref]], penalty_exponent=-1)

    def test_corpus_level_pools_counts(self):
        cands = [["a", "b"], ["c"]]
        refs = [[["a", "b"]], [["z"]]]
        got = meteor_corpus(cands, refs)
        # pooled: matches 2 of 3 candidate and 3 reference tokens
        assert got.matches == 2
        assert 0.0 < got.score < 1.0


class TestMetricReport:
    def test_percent_scale(self):
        cands = [["the", "cat", "sat", "on", "mat"]]
        refs = [[["the", "cat", "sat", "on", "mat"]]]
        raw = metric_report(cands, refs)
        assert raw["bleu"]["score"] == pytest.approx(1.0)
        assert raw["bleu"]["percent"] == pytest.approx(100.0)
        for name in ("bleu", "ter", "meteor"):
            assert raw[name]["percent"] == pytest.approx(100.0 * raw[name]["score"])
        assert "percent" not in raw["nist"]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigError):
            metric_report([["a"]], [[["a"]]], metrics=("bleu", "rouge"))

    def test_subset_of_metrics(self):
        got = metric_report([["a", "b"]], [[["a", "b"]]], metrics=("bleu",))
        assert "bleu" in got and "ter" not in got
