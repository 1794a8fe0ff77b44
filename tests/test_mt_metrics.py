import json
import math
import random
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from peakrss import cli_peak_mb
from bifilter import mt_metrics
from bifilter.errors import ConfigError, DataError
from bifilter.mt_metrics import (
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
from bifilter.similarity import _build_masks
from bifilter.textnorm import SynonymLexicon

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
        assert bleu(cand, [[cand[0]]]).score == 1.0

    def test_brevity_fixture(self):
        assert brevity_penalty(5, 10) == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert brevity_penalty(10, 5) == 1.0

    def test_cat_sat_fixture(self):
        got = bleu([["the", "cat", "sat"]],
                   [[["the", "cat", "sat", "down"]]], order=2)
        assert got.precisions == (1.0, 1.0)
        assert got.brevity == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)
        assert got.score == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)

    def test_cat_sat_matches_oracle(self):
        got = bleu([["the", "cat", "sat"]],
                   [[["the", "cat", "sat", "down"]]], order=2).score
        want = oracles.naive_bleu([["the", "cat", "sat"]],
                                  [[["the", "cat", "sat", "down"]]], order=2)
        assert got == pytest.approx(want, abs=1e-9)

    def test_zero_ngram_overlap_scores_zero(self):
        got = bleu([["aa", "bb"]], [[["cc", "dd"]]], order=1)
        assert got.score == 0.0

    def test_closest_ref_length_breaks_ties_short(self):
        # candidate 3 tokens, refs of 2 and 4: both distance 1, take 2
        got = bleu([["a", "b", "c"]], [[["a", "b"], ["a", "b", "c", "d"]]],
                   order=1)
        assert got.ref_len == 2

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(ConfigError, match="BLEU order"):
            bleu([["a"]], [[["a"]]], order=order)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            bleu([], [])

    def test_ref_group_empty_rejected(self):
        with pytest.raises(DataError):
            bleu([["a"]], [[]])

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
        got = bleu(cands, refs, order=order).score
        want = oracles.naive_bleu(cands, refs, order=order)
        assert got == pytest.approx(want, abs=1e-9)

    @given(segments, segments)
    def test_clipping_never_rewards_unsupported_words(self, cand, ref):
        # appending a token foreign to the reference cannot raise any p_n
        # numerator; with a longer candidate the score cannot improve
        # unless brevity relief outweighs it, so compare numerators only
        base = bleu([cand], [[ref]], order=1)
        spiked = bleu([cand + ["zzz"]], [[ref]], order=1)
        base_hits = base.precisions[0] * len(cand)
        spiked_hits = spiked.precisions[0] * (len(cand) + 1)
        assert spiked_hits <= base_hits + 1e-9

    def test_equal_length_identity_required_for_one(self):
        # same multiset, different order: unigram BLEU 1.0 but bigram not
        got = bleu([["a", "b", "c"]], [[["c", "b", "a"]]], order=2)
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


tiny_vocab = st.sampled_from(["a", "b", "c"])


@st.composite
def clipped_corpus(draw):
    """1-5 segments over a 3-word vocabulary, so that n-grams repeat and
    get clipped, with 1-3 references each; empty lines are allowed."""
    line = st.lists(tiny_vocab, max_size=7)
    n_seg = draw(st.integers(1, 5))
    cands = [draw(line) for _ in range(n_seg)]
    refs = [draw(st.lists(line, min_size=1, max_size=3)) for _ in range(n_seg)]
    return cands, refs


class TestSharedNgramPass:
    """BLEU and NIST from the shared n-gram pass against Counter-based
    transcriptions that sum in the same order: equal with ==, not approx."""

    @given(clipped_corpus(), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=400, deadline=None)
    def test_equals_counter_transcription(self, corpus, bleu_order, nist_order):
        cands, refs = corpus
        want_bleu = oracles.counter_bleu(cands, refs, order=bleu_order)
        want_nist = oracles.counter_nist(cands, refs, order=nist_order)
        assert bleu(cands, refs, order=bleu_order) == want_bleu
        assert nist(cands, refs, order=nist_order) == want_nist
        report = metric_report(cands, refs, metrics=("bleu", "nist"),
                               bleu_order=bleu_order, nist_order=nist_order)
        want = {**asdict(want_bleu), "percent": 100.0 * want_bleu.score}
        want["brevity_penalty"] = want.pop("brevity")
        assert report == {"bleu": want, "nist": {"score": want_nist}}

    def test_one_pass_serves_both_metrics(self):
        cands = [["a", "b", "a"], ["c"]]
        refs = [[["a", "b"], ["b", "a", "a"]], [["c", "c"]]]
        with mock.patch.object(mt_metrics, "_ngram_pass",
                               wraps=mt_metrics._ngram_pass) as spy:
            report = metric_report(cands, refs, metrics=("bleu", "nist"),
                                   bleu_order=2, nist_order=3)
        assert [c.args[2:] for c in spy.call_args_list] == [(2, 3)]
        assert report["nist"]["score"] == nist(cands, refs, order=3)
        with mock.patch.object(mt_metrics, "_ngram_pass",
                               wraps=mt_metrics._ngram_pass) as spy:
            metric_report(cands, refs, metrics=("ter",))
        assert spy.call_count == 0


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

    def test_moved_blocks_over_sixty_words(self):
        cand, ref = moved_blocks(120, 60)
        got = ter(cand, [ref])
        assert (got.edits, got.shifts) == (10, 6)

    def test_moved_blocks_over_five_words(self):
        cand, ref = moved_blocks(60, 5)
        got = ter(cand, [ref])
        assert (got.edits, got.shifts) == (10, 8)


@st.composite
def ter_case(draw):
    """A candidate and one to three references of up to 40 tokens over a
    2-6 symbol vocabulary, so spans repeat and shifts tie, and a later
    reference's bag-of-words floor often reaches an earlier one's edits."""
    vocab = "abcdef"[: draw(st.integers(2, 6))]
    seg = st.lists(st.sampled_from(vocab), max_size=40)
    return draw(seg), draw(st.lists(seg, min_size=1, max_size=3))


@st.composite
def near_identical_case(draw):
    """A reference of 4-30 tokens over 3-8 words, and a candidate made from
    it by moving 1-3 blocks of 1-4 tokens, then substituting 0-2 tokens: the
    pairs where most shifts are skipped by their lower bounds."""
    vocab = "abcdefgh"[: draw(st.integers(3, 8))]
    ref = draw(st.lists(st.sampled_from(vocab), min_size=4, max_size=30))
    cand = list(ref)
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        start = draw(st.integers(0, len(cand) - size))
        block = cand[start : start + size]
        del cand[start : start + size]
        to = draw(st.integers(0, len(cand)))
        cand[to:to] = block
    for _ in range(draw(st.integers(0, 2))):
        cand[draw(st.integers(0, len(cand) - 1))] = draw(st.sampled_from(vocab))
    return cand, ref


@st.composite
def shift_bound_case(draw):
    """A candidate and a reference of up to 10 tokens over 2-4 words."""
    vocab = "abcd"[: draw(st.integers(2, 4))]
    seg = st.lists(st.sampled_from(vocab), max_size=10)
    return tuple(draw(seg)), tuple(draw(seg))


def sized_tokens(max_len):
    return st.integers(0, max_len).flatmap(
        lambda n: st.lists(st.sampled_from("abcd"), min_size=n, max_size=n))


class TestTerSearch:
    """The bit-parallel kernel and the match-extension shift search against
    the plain forms in oracles."""

    @given(ter_case())
    @example((list("abcabcbbacabcaacbcabbcaabcbcaabcbbcacbab"),
              [list("bcabcabbcaabcacbcaabcbcabcabbcaccbabcab")]))
    @example((list("aabab"), [list("babaa"), list("abba")]))
    @example(([], [[], list("ab")]))
    # the second reference's floor, 1, reaches the first's edits: skipped
    @example((list("abcd"), [list("acbd"), list("bad")]))
    # the second reference runs no round: one shift plus its floor, 0,
    # already reaches the first's single edit
    @example((list("abcdef"), [list("abcdex"), list("badcfe")]))
    # the first shift reaches the floor, 0, and ends the round
    @example((list("bcaxyz"), [list("abcxyz")]))
    # the distance starts at the floor, 1: no round runs
    @example((list("abcd"), [list("abcx")]))
    @settings(max_examples=150, deadline=None)
    def test_equals_reference_ter(self, case):
        cand, refs = case
        assert ter(cand, refs) == oracles.reference_ter(cand, refs)

    def test_reference_whose_floor_reaches_the_best_is_not_searched(self):
        # "bad" shares 3 of the candidate's 4 tokens, so every shifted
        # candidate is at least 1 edit from it: no better than "acbd"'s one
        # shift, and the earlier reference wins ties
        cand, refs = list("abcd"), [list("acbd"), list("bad")]
        with mock.patch.object(mt_metrics, "_best_shift",
                               wraps=mt_metrics._best_shift) as rounds, \
             mock.patch.object(mt_metrics, "_edit_distance",
                               wraps=mt_metrics._edit_distance) as distances:
            got = ter(cand, refs)
        assert (got.edits, got.shifts) == (1, 1)
        assert rounds.call_count == 1
        assert rounds.call_args.args[1] == tuple("acbd")
        assert distances.call_count == 1
        assert got == oracles.reference_ter(cand, refs)

    def test_no_round_once_a_shift_more_cannot_win(self):
        # three substitutions against the first reference; the second has
        # floor 0 but needs four swaps, and after two shifts a third shift
        # plus the floor reaches 3, so it stops there (the plain search
        # runs four rounds on it)
        cand, refs = list("abcdefgh"), [list("abcdexyz"), list("badcfehg")]
        with mock.patch.object(mt_metrics, "_best_shift",
                               wraps=mt_metrics._best_shift) as rounds:
            got = ter(cand, refs)
        assert (got.edits, got.shifts) == (3, 0)
        assert [c.args[1] for c in rounds.call_args_list] == [tuple("badcfehg")] * 2
        assert got == oracles.reference_ter(cand, refs)

    @pytest.mark.parametrize("refs, shifts", [
        ([list("acbd"), list("abcx")], 1),
        ([list("abcx"), list("acbd")], 0),
    ])
    def test_equal_edits_report_the_first_references_shifts(self, refs, shifts):
        # one shift against "acbd", one substitution against "abcx"
        got = ter(list("abcd"), refs)
        assert (got.edits, got.shifts) == (1, shifts)
        assert got == oracles.reference_ter(list("abcd"), refs)

    @given(near_identical_case())
    @example((list("aaaabaaab"), list("abaabaaba")))
    @example((list("aaaaabbaa"), list("abaabaaba")))
    @example((list("caabac"), list("acbacb")))
    @settings(max_examples=300, deadline=None)
    def test_near_identical_equals_reference_ter(self, case):
        cand, ref = case
        assert ter(cand, [ref]) == oracles.reference_ter(cand, [ref])

    @given(shift_bound_case())
    @example((tuple("ab"), tuple("ba")))
    @settings(max_examples=300, deadline=None)
    def test_shift_bounds_never_exceed_a_shifted_distance(self, case):
        # a shift that keeps current[:s] and current[e:] in place keeps
        # every shorter prefix and suffix too, so each of those bounds holds
        current, ref = case
        n = len(current)
        _, pre, suf = mt_metrics._shift_bounds(
            current, ref, _build_masks(ref), _build_masks(ref[::-1]))
        dist = oracles.full_matrix_lev(current, ref)
        assert pre[n] == suf[0] == dist
        for shifted in oracles._all_shifts(current):
            d = oracles.full_matrix_lev(shifted, ref)
            s = 0
            while current[s] == shifted[s]:
                s += 1
            e = n
            while current[e - 1] == shifted[e - 1]:
                e -= 1
            assert all(d >= pre[k] for k in range(s + 1))
            assert all(d >= suf[k] for k in range(e, n + 1))

    @given(sized_tokens(150), sized_tokens(150))
    @example([], [])
    @example(list("abcd" * 37 + "ab"), [])
    @example([], list("abcd" * 37 + "ab"))
    @example(list("abcd" * 16), list("abcd" * 16 + "a"))
    @example(list("abcdab" * 25), list("dcba" * 30 + "ab"))
    @settings(max_examples=150, deadline=None)
    def test_kernel_equals_full_matrix(self, text, ref):
        got = mt_metrics._edit_distance(_build_masks(ref), len(ref), text)
        assert got == oracles.full_matrix_lev(text, ref)


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
        got = meteor(["boys", "run"], ["boy", "walk"])
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
        got = meteor(["cat", "dogs"], ["cat", "dog"])
        assert got.matches == 2

    # words whose stems collide across forms, and two synonym pairs
    STEMMY = ["walk", "walks", "walked", "walking", "cat", "cats", "dog",
              "dogs", "game", "sport", "sports", "the"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(STEMMY), max_size=8),
           st.lists(st.sampled_from(STEMMY), max_size=8))
    def test_passes_take_the_pairwise_adjacency(self, cand, ref):
        # each pass's adjacency, however it is built, is the one that
        # relating every open (candidate, reference) pair gives: the same
        # keys in candidate order, each list ascending
        lex = SynonymLexicon({"game": ("sport",), "cat": ("dog",)})
        relations = [lambda a, b: a == b,
                     lambda a, b: mt_metrics.stem(a) == mt_metrics.stem(b),
                     lambda a, b: b in lex.synonyms(a) or a in lex.synonyms(b)]
        seen = []
        stage = mt_metrics._stage_assignment

        def spy(adj, prior, stats=None):
            seen.append((adj, list(prior)))
            return stage(adj, prior, stats)

        with mock.patch.object(mt_metrics, "_stage_assignment", spy):
            meteor(cand, ref, lexicon=lex)
        assert len(seen) == len(relations)
        for (adj, prior), related in zip(seen, relations):
            done_c = {ci for ci, _ in prior}
            done_r = {rj for _, rj in prior}
            assert list(adj.items()) == [
                (ci, [rj for rj in range(len(ref))
                      if rj not in done_r and related(cand[ci], ref[rj])])
                for ci in range(len(cand)) if ci not in done_c]

    def test_stems_each_open_token_once(self):
        # no exact match, so every token is open in the stem pass: the
        # pairwise relation would stem 2 * 40 * 40 = 3,200 times
        cand = ["boys", "walks", "cats", "the"] * 10
        ref = ["boy", "walked", "cat", "a"] * 10
        with mock.patch.object(mt_metrics, "stem", wraps=mt_metrics.stem) as spy:
            got = meteor(cand, ref)
        assert got.matches == 30
        assert 0 < spy.call_count <= len(cand) + len(ref)

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

    def test_negative_penalty_exponent_rejected_before_matching(self):
        with mock.patch.object(mt_metrics, "_stage_assignment",
                               wraps=mt_metrics._stage_assignment) as spy:
            with pytest.raises(ConfigError, match="METEOR penalty exponent must be >= 0"):
                meteor(["a", "b"], ["a", "b"], penalty_exponent=-1)
            with pytest.raises(ConfigError, match="METEOR penalty exponent must be >= 0"):
                meteor_corpus([["a", "b"]], [[["a", "b"]]], penalty_exponent=-1)
            assert spy.call_count == 0
            meteor(["a", "b"], ["a", "b"])
            assert spy.call_count == 3

    def test_long_segment(self):
        # one search level per token; 1,200 levels overflowed the recursive
        # search
        toks = [f"w{i}" for i in range(1200)]
        got = meteor(toks, toks)
        assert (got.matches, got.chunks) == (1200, 1)
        assert got.score == 1.0 - 0.5 * (1 / 1200)

    def test_long_augmenting_path(self):
        # left k < n takes right k first; left n wants only right 0, which
        # shifts every earlier left vertex one place: a 1,500-step path
        n = 1500
        adj = {k: [k, k + 1] for k in range(n)}
        adj[n] = [0]
        size, pairs = mt_metrics._max_matching_size(adj)
        assert size == n + 1
        assert pairs == [(k, k + 1) for k in range(n)] + [(n, 0)]

    def test_corpus_level_pools_counts(self):
        cands = [["a", "b"], ["c"]]
        refs = [[["a", "b"]], [["z"]]]
        got = meteor_corpus(cands, refs)
        # pooled: matches 2 of 3 candidate and 3 reference tokens
        assert got.matches == 2
        assert 0.0 < got.score < 1.0


ASSIGN_CAPS = [0, 1, 2, 3, 5, 8, 13, 40, mt_metrics._ASSIGN_NODE_CAP]


@st.composite
def bipartite(draw):
    """A METEOR matching pass: left (candidate) positions, each with the
    ascending reference positions it may match, plus earlier passes' pairs.
    As in meteor, the earlier pairs are one-to-one and use none of the
    pass's positions."""
    prior = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                          max_size=4, unique_by=(lambda p: p[0], lambda p: p[1])))
    done_c = {ci for ci, _ in prior}
    done_r = {rj for _, rj in prior}
    free_r = [rj for rj in range(draw(st.integers(0, 6))) if rj not in done_r]
    lefts = draw(st.sets(st.integers(0, 9).filter(lambda ci: ci not in done_c),
                         max_size=7))
    adj = {ci: sorted(draw(st.sets(st.sampled_from(free_r), max_size=len(free_r))))
           if free_r else [] for ci in sorted(lefts)}
    return adj, prior


@st.composite
def biclique_union(draw):
    """A bipartite() pass whose adjacency lists are made pairwise equal or
    disjoint, as in meteor's exact and stem passes: its reference positions
    fall into up to four groups, and each candidate takes the whole group
    of its first position, or nothing."""
    adj, prior = draw(bipartite())
    positions = sorted({rj for rjs in adj.values() for rj in rjs})
    group_of = dict(zip(positions, draw(st.lists(
        st.integers(0, 3), min_size=len(positions), max_size=len(positions)))))
    groups = [[rj for rj in positions if group_of[rj] == g] for g in range(4)]
    return {ci: list(groups[group_of[rjs[0]]]) if rjs else []
            for ci, rjs in adj.items()}, prior


# A pass of 8 search nodes whose two picks for candidate 1 lead to one
# state (candidate 4 can take neither reference position): the second
# pick's subtree, 3 nodes, is memoized when it is reached, and it adds a
# chunk fewer, since (1, 2) extends the earlier pair (2, 3). At caps 4 and
# 5 it straddles the budget: entered, it is cut before and after its
# complete leaf.
STRADDLED = ({1: [1, 2], 4: [0]}, [(2, 3)])


# Words sharing stems (walk), and a small lexicon, so that every METEOR pass
# can match and extend earlier passes' pairs.
SEARCH_WORDS = ["walk", "walks", "walked", "game", "sport", "play", "plays"]
SEARCH_LEXICON = SynonymLexicon()
SEARCH_LEXICON.add("game", ["sport", "play"])
SEARCH_LEXICON.add("walk", ["play"])


@st.composite
def stem_synonym_segments(draw):
    """A candidate and a reference of 0-14 tokens over 2-4 of SEARCH_WORDS."""
    vocab = draw(st.lists(st.sampled_from(SEARCH_WORDS), min_size=2, max_size=4,
                          unique=True))
    tokens = st.lists(st.sampled_from(vocab), max_size=14)
    return draw(tokens), draw(tokens)


# A segment of the benchmark's evaluate-mixed inputs (seed 0, segment 14:
# candidate and first reference). Its exact pass has a search tree of about
# 2.27 M nodes; the node cap cuts it off after an 8-chunk assignment.
CAPPED_CAND = (
    "village carries neighbor officer garden window director history concert . "
    "justice repairs school silence village concert history . journey collects "
    "concert kitchen officer music letter airport people purpose officer culture "
    "problem concert mountain ."
).split()
CAPPED_REF = (
    "village carries neighbor traffic garden window director history concert . "
    "justice repairs school silence village library concert kitchen officer "
    "music history . journey collects letter airport people purpose officer "
    "culture problem concert people ."
).split()


def pass_adjacency(cand, ref, related):
    """A first METEOR pass: each candidate position's related reference
    positions, ascending."""
    return {ci: [rj for rj, rw in enumerate(ref) if related(cw, rw)]
            for ci, cw in enumerate(cand)}


def moved_blocks(length, vocab):
    """A reference of length tokens over vocab words, and the candidate
    made from it by moving six 3-word blocks (random.Random(0))."""
    rng = random.Random(0)
    ref = [f"w{rng.randrange(vocab)}" for _ in range(length)]
    cand = list(ref)
    for _ in range(6):
        i = rng.randrange(len(cand) - 3)
        block = cand[i : i + 3]
        del cand[i : i + 3]
        j = rng.randrange(len(cand))
        cand[j:j] = block
    return cand, ref


class TestMeteorSearch:
    """The stack-based matching searches against their recursive forms in
    oracles: the same results, with the node cap lowered so the fallback
    path runs too."""

    @given(bipartite())
    @settings(max_examples=300)
    def test_max_matching_equals_recursive(self, case):
        adj, _ = case
        assert mt_metrics._max_matching_size(adj) == oracles.recursive_max_matching(adj)

    @given(st.one_of(bipartite(), biclique_union()))
    @example(({0: [0, 1], 1: [0, 1], 2: [2]}, []))
    @example(({0: [0, 1], 1: [1, 2]}, []))
    @settings(max_examples=300)
    def test_closed_form_size_equals_recursive(self, case):
        # a number exactly for unions of complete bipartite graphs
        adj, _ = case
        groups = {frozenset(rjs) for rjs in adj.values()}
        biclique = all(a == b or not a & b for a in groups for b in groups)
        size = mt_metrics._biclique_matching_size(adj)
        if biclique:
            assert size == oracles.recursive_max_matching(adj)[0]
        else:
            assert size is None

    @given(st.one_of(bipartite(), biclique_union()), st.sampled_from(ASSIGN_CAPS))
    @example(({0: [0, 1], 1: [0, 1], 2: [1, 2]}, [(5, 5)]), 0)
    @example(({0: [0, 1], 1: [0, 1], 2: [1, 2]}, [(5, 5)]), 3)
    @settings(max_examples=800)
    def test_stage_assignment_equals_recursive(self, case, cap):
        adj, prior = case
        want = oracles.recursive_stage_assignment(adj, prior, cap)
        with mock.patch.object(mt_metrics, "_ASSIGN_NODE_CAP", cap):
            assert mt_metrics._stage_assignment(adj, prior) == want

    @given(bipartite())
    @example(STRADDLED)
    @settings(max_examples=300, deadline=None)
    def test_capped_exactly_when_the_tree_outgrows_the_budget(self, case):
        # the budget is cap + 1 nodes, so a tree of exactly cap + 1 nodes is
        # searched in full; the caps below size - 2 let a memoized subtree
        # straddle the budget, as STRADDLED's does at caps 4 and 5
        adj, prior = case
        size = oracles.search_tree_size(adj)
        for cap in range(max(size - 4, 0), size + 1):
            stats: dict = {}
            with mock.patch.object(mt_metrics, "_ASSIGN_NODE_CAP", cap):
                got = mt_metrics._stage_assignment(adj, prior, stats)
            assert stats["capped"] == (size > cap + 1)
            assert got == oracles.recursive_stage_assignment(adj, prior, cap)

    @given(st.one_of(bipartite(), biclique_union()))
    @example(STRADDLED)
    @settings(max_examples=300, deadline=None)
    def test_nodes_count_the_search_within_the_budget(self, case):
        # a pass that searches spends the whole tree or the budget of
        # cap + 1 nodes, counted subtrees included; one with nothing to
        # match spends none
        adj, prior = case
        size = oracles.search_tree_size(adj)
        searches = oracles.recursive_max_matching(adj)[0] > 0
        for cap in sorted({*ASSIGN_CAPS[:-1], max(size - 2, 0), size - 1, size}):
            stats: dict = {}
            with mock.patch.object(mt_metrics, "_ASSIGN_NODE_CAP", cap):
                mt_metrics._stage_assignment(adj, prior, stats)
            assert stats["nodes"] == (min(size, cap + 1) if searches else 0)

    def test_low_cap_falls_back_to_plain_matching(self):
        adj = {0: [0, 1], 1: [0, 1], 2: [1, 2]}
        fallback = mt_metrics._max_matching_size(adj)[1]
        with mock.patch.object(mt_metrics, "_ASSIGN_NODE_CAP", 0):
            assert mt_metrics._stage_assignment(adj, []) == fallback
        # with room to search, the fewest-chunk assignment wins instead
        assert mt_metrics._stage_assignment(adj, []) != fallback

    @given(stem_synonym_segments(), st.integers(0, 40))
    @example((["walk", "walk", "game", "walks"], ["sport", "walks", "walk", "walked"]), 3)
    @settings(max_examples=300, deadline=None)
    def test_meteor_equals_meteor_on_recursive_search(self, case, cap):
        # every pass, stem and synonym ones with earlier passes' pairs too
        cand, ref = case

        def recursive(adj, prior, stats=None):
            if stats is not None:
                stats.update(capped=False, nodes=0)
            return oracles.recursive_stage_assignment(adj, prior, cap)

        with mock.patch.object(mt_metrics, "_stage_assignment", recursive):
            want = meteor(cand, ref, lexicon=SEARCH_LEXICON)
        with mock.patch.object(mt_metrics, "_ASSIGN_NODE_CAP", cap):
            assert meteor(cand, ref, lexicon=SEARCH_LEXICON) == want

    def test_real_cap_cuts_a_pass_after_a_complete_assignment(self):
        adj = pass_adjacency(CAPPED_CAND, CAPPED_REF, lambda a, b: a == b)
        want = oracles.recursive_stage_assignment(adj, [], mt_metrics._ASSIGN_NODE_CAP)
        stats: dict = {}
        assert mt_metrics._stage_assignment(adj, [], stats) == want
        assert stats == {"capped": True, "nodes": mt_metrics._ASSIGN_NODE_CAP + 1}
        assert want != mt_metrics._max_matching_size(adj)[1]
        # 8 chunks where 6 is the minimum
        assert mt_metrics._chunk_count(want) == 8
        stats = {}
        got = meteor(CAPPED_CAND, CAPPED_REF, stats=stats)
        assert (got.matches, got.chunks) == (31, 8)
        assert stats == {"meteor_capped": ["exact"],
                         "meteor_nodes": mt_metrics._ASSIGN_NODE_CAP + 1}

    def test_real_cap_cuts_a_pass_before_any_complete_assignment(self):
        # Under x -> p, the nine m's take every order of the nine n's and y
        # finds p gone each time: about a million nodes, none of them a
        # complete assignment. The Kuhn matching then gives 11 chunks where
        # x -> q, m's in order, y -> p gives 2.
        lex = SynonymLexicon()
        lex.add("x", ["p", "q"])
        lex.add("y", ["p"])
        lex.add("m", ["n"])
        cand = ["x"] + ["m"] * 9 + ["y"]
        ref = ["p", "q"] + ["n"] * 9
        adj = pass_adjacency(
            cand, ref, lambda a, b: b in lex.synonyms(a) or a in lex.synonyms(b))
        want = oracles.recursive_stage_assignment(adj, [], mt_metrics._ASSIGN_NODE_CAP)
        assert want == mt_metrics._max_matching_size(adj)[1]
        stats: dict = {}
        assert mt_metrics._stage_assignment(adj, [], stats) == want
        assert stats == {"capped": True, "nodes": mt_metrics._ASSIGN_NODE_CAP + 1}
        stats = {}
        got = meteor(cand, ref, lexicon=lex, stats=stats)
        assert (got.matches, got.chunks) == (11, 11)
        assert stats == {"meteor_capped": ["synonym"],
                         "meteor_nodes": mt_metrics._ASSIGN_NODE_CAP + 1}

    def test_moved_blocks_over_five_words_stay_bounded(self):
        # the cap cuts the exact pass off after its first leaf, the
        # first-fit assignment (91 chunks); the Kuhn matching has 110
        cand, ref = moved_blocks(120, 5)
        adj = pass_adjacency(cand, ref, lambda a, b: a == b)
        want = oracles.recursive_stage_assignment(adj, [], mt_metrics._ASSIGN_NODE_CAP)
        assert mt_metrics._stage_assignment(adj, []) == want
        assert mt_metrics._chunk_count(mt_metrics._max_matching_size(adj)[1]) == 110
        got = meteor(cand, ref)
        assert (got.matches, got.chunks) == (120, 91)

    def test_one_repeated_word_stays_bounded(self):
        # every exact-pass list is the same, so the matching size comes in
        # closed form, without Kuhn's 400 augmenting searches
        with mock.patch.object(mt_metrics, "_augment",
                               wraps=mt_metrics._augment) as spy:
            got = meteor(["a"] * 400, ["a"] * 400)
        assert spy.call_count == 0
        assert (got.matches, got.chunks) == (400, 1)
        assert got.score == 1.0 - 0.5 * (1 / 400)

    def test_one_repeated_word_over_1000_tokens_stays_small(self, tmp_path):
        # the search derives each child's pick from the candidate's shared
        # adjacency list, so memory follows the segment and the node cap,
        # not candidates x positions (224 MB when a table held every pick)
        line = tmp_path / "a.txt"
        line.write_text(" ".join(["a"] * 1000) + "\n", encoding="utf-8")
        report = tmp_path / "rep.json"
        peak_mb = cli_peak_mb("evaluate", "--cand", str(line), "--ref", str(line),
                              "--metrics", "meteor", "--report", str(report))
        got = json.loads(report.read_text())["meteor"]
        assert (got["matches"], got["chunks"]) == (1000, 1)
        stats = json.loads(Path(f"{report}.manifest.json").read_text())["stats"]
        assert stats == {"meteor_capped": [[0, "exact"]], "meteor_nodes": 200_001}
        # 22 MB measured (CPython 3.11)
        assert peak_mb <= 60

    def test_stats_name_capped_segments_and_passes(self):
        cands = [["a", "b"], CAPPED_CAND, CAPPED_CAND]
        refs = [[["a", "b"]], [CAPPED_REF], [CAPPED_CAND]]
        stats: dict = {}
        got = meteor_corpus(cands, refs, stats=stats)
        # 5 nodes for segment 0, the capped 200,001 and 95,222 for segment 2
        assert stats == {"meteor_capped": [[1, "exact"]], "meteor_nodes": 295_228}
        assert got == meteor_corpus(cands, refs)
        stats = {}
        report = metric_report(cands, refs, stats=stats)
        assert stats == {"meteor_capped": [[1, "exact"]], "meteor_nodes": 295_228}
        assert report == metric_report(cands, refs)
        stats = {}
        metric_report(cands, refs, metrics=("bleu", "ter"), stats=stats)
        assert stats == {}

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

    def test_repeated_metric_rejected_before_scoring(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mt_metrics, "bleu", lambda *a, **k: calls.append("bleu"))
        with pytest.raises(ConfigError, match="metric 'bleu' requested twice"):
            metric_report([["a"]], [[["a"]]], metrics=("bleu", "ter", "bleu"))
        assert calls == []

    def test_empty_selection_rejected(self):
        with pytest.raises(ConfigError, match=r"no metric requested \(known: bleu, "):
            metric_report([["a"]], [[["a"]]], metrics=())

    def test_subset_of_metrics(self):
        got = metric_report([["a", "b"]], [[["a", "b"]]], metrics=("bleu",))
        assert "bleu" in got and "ter" not in got


class TestStringSegments:
    """A plain string where a token list belongs is refused, naming the
    segment and side: scored as it stands, its characters would be the
    tokens (BLEU 0.2582 for two unrelated sentences whose tokenized form
    scores 0)."""

    SCORERS = [bleu, nist, ter_corpus, meteor_corpus, metric_report]
    GOOD = ["the", "cat", "sat"]

    @pytest.mark.parametrize("scorer", SCORERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("cands, refs, message", [
        (["the cat sat on the mat"], [["a dog ran in the park"]],
         "segment 0: the candidate is a string"),
        ([GOOD, GOOD], [[GOOD], [GOOD, "the cat sat"]], "segment 1: reference 1 is a string"),
        ([GOOD], ["the cat sat"], "segment 0: the reference group is a string"),
    ], ids=["candidate", "reference", "group"])
    def test_string_is_refused(self, scorer, cands, refs, message):
        with pytest.raises(DataError, match=message):
            scorer(cands, refs)

    @pytest.mark.parametrize("cand, refs, message", [
        ("the cat sat", [GOOD], "segment 0: the candidate is a string"),
        (GOOD, [GOOD, "the dog sat"], "segment 0: reference 1 is a string"),
        (GOOD, "the dog sat", "segment 0: the reference group is a string"),
    ], ids=["candidate", "reference", "group"])
    def test_ter_refuses_a_string(self, cand, refs, message):
        # scored as characters, ter('the cat sat', ['the dog sat']) was 3/11
        with pytest.raises(DataError, match=message):
            ter(cand, refs)

    @pytest.mark.parametrize("cand, ref, message", [
        ("the cat sat", GOOD, "segment 0: the candidate is a string"),
        (GOOD, "the dog sat", "segment 0: the reference is a string"),
    ], ids=["candidate", "reference"])
    def test_meteor_refuses_a_string(self, cand, ref, message):
        with pytest.raises(DataError, match=message):
            meteor(cand, ref)

    def test_tokenized_call_is_unchanged(self):
        cand, ref = "the cat sat on the mat".split(), "a dog ran in the park".split()
        assert metric_report([cand], [[ref]])["bleu"]["score"] == 0.0


class TestWorkedExamples:
    """One corpus per metric, scored by hand from the formula README's
    evaluate section states. Each comment names mutants of the formula and
    the value each would give instead."""

    def test_bleu(self):
        # segment 1: "a a b" against "a b c d" and "a b"; segment 2: "c d"
        # against "c d e f". Clipped to the most one reference holds, "a"
        # matches once: unigrams 2/3 + 2/2 pooled = 4/5, bigrams (a b)
        # and (c d) of 2 + 1 = 2/3. Lengths 4 and 2 tie around 3, so
        # segment 1 takes the shorter: r = 2 + 4 = 6, c = 5.
        # Mutants: ties to the longer reference (r = 8) give
        # e^(1 - 8/5) * sqrt(8/15); unclipped counts sqrt(5/5 * 2/3) * e^-0.2;
        # per-segment precisions averaged (5/6 and 3/4) another value.
        cands = [["a", "a", "b"], ["c", "d"]]
        refs = [[["a", "b", "c", "d"], ["a", "b"]], [["c", "d", "e", "f"]]]
        got = bleu(cands, refs, order=2)
        assert got.precisions == (4 / 5, 2 / 3)
        assert (got.cand_len, got.ref_len) == (5, 6)
        assert got.brevity == pytest.approx(math.exp(1 - 6 / 5), abs=1e-15)
        assert got.score == pytest.approx(math.exp(-0.2) * math.sqrt(8 / 15), abs=1e-15)

    def test_nist(self):
        # "a b" against "a b c" and "a c". Pooled over both references (5
        # tokens): a twice, b once, (a b) once, so the weights are
        # log2(5/2), log2(5/1) and, for (a b), log2(count(a) / 1) = 1.
        # Unigrams (log2 2.5 + log2 5) / 2, bigrams 1 / 1; the mean
        # reference length is 2.5, so c/r = 0.8.
        # Mutants: weights from the first reference only give
        # (log2 3 + log2 3) / 2 + 0 before the factor; the closest reference
        # length (2) in place of the mean gives a factor of 1; a bigram
        # weight over the total length, log2(5/1), adds log2 5 - 1.
        beta = math.log(0.5) / math.log(2 / 3) ** 2
        want = (math.log2(12.5) / 2 + 1) * math.exp(beta * math.log(0.8) ** 2)
        got = nist([["a", "b"]], [[["a", "b", "c"], ["a", "c"]]], order=2)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(2.2875566, abs=1e-7)

    def test_ter(self):
        # segment 1: "a b c d e" against "c d e a b" (one shift of "a b",
        # then nothing) and "a b x" (three edits, no shift helps): 1 edit,
        # over a mean reference length of 4. Segment 2: "x y" against
        # "x z", one substitution over 2. Pooled: 2 / 6.
        # Mutants: no shifts give (3 + 1) / 6; the chosen reference's length
        # in place of the mean (1 + 1) / 7; averaged segment scores
        # (1/4 + 1/2) / 2.
        cands = [["a", "b", "c", "d", "e"], ["x", "y"]]
        refs = [[["c", "d", "e", "a", "b"], ["a", "b", "x"]], [["x", "z"]]]
        seg = ter(cands[0], refs[0])
        assert (seg.edits, seg.shifts, seg.ref_len, seg.score) == (1, 1, 4.0, 0.25)
        got = ter_corpus(cands, refs)
        assert (got.edits, got.shifts, got.ref_len) == (2, 1, 6.0)
        assert got.score == 2 / 6

    def test_meteor(self):
        # "the cats sat on mat" against "the cat sat on a rug", rug a
        # synonym of mat. Exact: the, sat, on; stem: cats -> cat; synonym:
        # mat -> rug. m = 5 in two chunks (the cats sat on | mat), P = 5/5,
        # R = 5/6, Fmean = 10PR / (R + 9P) = 50/59, penalty 0.5 * 2/5.
        # The second reference equals the candidate but is never read.
        # Mutants: no stem pass gives 4 matches; the best reference gives
        # 1 - 0.5/5; F1 in place of the recall-weighted mean gives
        # 10/11 * 0.8; the exponent 3 gives penalty 0.5 * 0.4^3.
        cand = ["the", "cats", "sat", "on", "mat"]
        ref = ["the", "cat", "sat", "on", "a", "rug"]
        got = meteor_corpus([cand], [[ref, cand]], lexicon=SynonymLexicon({"mat": ["rug"]}))
        assert (got.matches, got.chunks, got.precision, got.recall) == (5, 2, 1.0, 5 / 6)
        assert got.penalty == pytest.approx(0.2, abs=1e-15)
        assert got.score == pytest.approx(50 / 59 * 0.8, abs=1e-15)
