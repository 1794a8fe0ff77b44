"""End-to-end acceptance checks.

One test per criterion; each prints a single summary line (visible with
-s or -rA) and fails loudly if its bound is missed. The noisy-corpus runs
use the deterministic generator in synthcorpus.py.
"""

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
import synthcorpus
from bifilter.bisentence_filter import FilterConfig, align_filter, evaluate_filtering
from bifilter.cli import main
from bifilter.corpus_io import Bitext
from bifilter.mt_metrics import (
    bleu,
    brevity_penalty,
    meteor,
    nist,
    ter,
)
from bifilter.seq_align import (
    AlignConfig,
    Alignment,
    astar_align,
    nw_align,
    threshold_filter,
)
from bifilter.similarity import (
    COMPARATORS,
    ChainContext,
    ComparatorChain,
    DEFAULT_CHAIN,
    ratio,
    register_comparator,
)
from bifilter.textnorm import StopList, default_stoplist


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def synth():
    return synthcorpus.build()


@pytest.fixture(scope="module")
def synth_bitext(synth):
    return Bitext(
        source=synth.source,
        target=synth.target,
        trans=synth.trans,
    )


def test_criterion_1_noise_removal(synth, synth_bitext):
    ctx = ChainContext(stoplist=default_stoplist("en"))
    cfg = FilterConfig(chain=DEFAULT_CHAIN, context=ctx)
    t0 = time.monotonic()
    res = align_filter(synth_bitext, cfg)
    elapsed = time.monotonic() - t0

    accepted = {(i, j) for i, j, _, _ in res.accepted}
    poor, good = synth.labels_covering(accepted)
    quality = evaluate_filtering(res.accepted, poor, good)
    n_noisy = len(synth.noisy_indices)
    n_good = len(synth.source) - n_noisy
    removed = len(synth.gold_poor - accepted)
    noise_rate = removed / n_noisy
    loss_rate = quality.good_filtered / n_good
    ok = noise_rate >= 0.80 and loss_rate <= 0.05 and elapsed < 60.0
    report(1, ok,
           f"noise removed {removed}/{n_noisy} = {noise_rate:.1%}, "
           f"good lost {quality.good_filtered}/{n_good} = {loss_rate:.1%}, "
           f"{elapsed:.1f}s single-threaded")


TRANS = ["I go to school every day.", "I don't go to school every day."]
TGT = [
    "I like going to school every day.",
    "I do not go to school every day.",
    "We will go tomorrow.",
]
SCORES = {
    (TRANS[0], TGT[0]): 0.60,
    (TRANS[0], TGT[1]): 0.70,
    (TRANS[1], TGT[1]): 0.95,
    (TRANS[1], TGT[0]): 0.30,
}


def test_criterion_2_conflict_rule():
    def canned(pa, pb, ctx, chain):
        return SCORES.get((pa.text, pb.text), 0.0)

    register_comparator("acceptance_canned", canned, replace=True)
    try:
        chain = ComparatorChain(tiers=(("acceptance_canned", 0.99),),
                                final_threshold=0.5)
        bt = Bitext(
            source=[f"src {i}" for i in range(len(TRANS))],
            target=TGT,
            trans=TRANS,
        )
        cfg = FilterConfig(
            chain=chain, window=None, lookahead=1,
            context=ChainContext(stoplist=StopList.from_words([])),
        )
        res = align_filter(bt, cfg)
    finally:
        COMPARATORS.pop("acceptance_canned", None)

    pairs = [(i, j) for i, j, _, _ in res.accepted]
    scores = [s for _, _, s, _ in res.accepted]
    ok = (pairs == [(0, 0), (1, 1)]
          and scores == [pytest.approx(0.60), pytest.approx(0.95)]
          and res.dropped_tgt == (2,))
    report(2, ok, f"accepted {pairs} with scores {scores}, "
                  f"dropped targets {res.dropped_tgt}")


def test_criterion_3_ratio():
    fixture = ratio("abxcd", "abcd").score
    fixture_ok = abs(fixture - 8.0 / 9.0) <= 1e-12

    rng = random.Random(20240819)
    sym_bad = ident_bad = 0
    for _ in range(10_000):
        a = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
        b = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 12)))
        if ratio(a, b).score != ratio(b, a).score:
            sym_bad += 1
        if ratio(a, a).score != 1.0:
            ident_bad += 1
    ok = fixture_ok and sym_bad == 0 and ident_bad == 0
    report(3, ok,
           f"ratio('abxcd','abcd') = {fixture!r} vs 8/9, "
           f"{sym_bad} symmetry and {ident_bad} identity violations "
           f"in 10000 random pairs")


def test_criterion_4_metric_fixtures():
    checks = []

    ident = [["the", "cat", "sat", "on", "the", "mat"]]
    checks.append(("bleu identity",
                   bleu(ident, [[ident[0]]]).score == 1.0))
    checks.append(("P_B(5,10)",
                   abs(brevity_penalty(5, 10) - math.exp(-1.0)) <= 1e-12))
    sub = ter(["the", "cat", "sat", "on", "rug"],
              [["the", "cat", "sat", "on", "mat"]])
    checks.append(("ter one substitution", sub.score == 0.2))
    perfect = meteor(["a", "b", "c", "d"], ["a", "b", "c", "d"])
    checks.append(("meteor |t|=4",
                   abs(perfect.score - 0.875) <= 1e-12))

    # derived fixtures against the brute-force oracles
    cands = [["the", "cat", "sat"]]
    refs = [[["the", "cat", "sat", "down"]]]
    got = bleu(cands, refs, order=2).score
    want = oracles.naive_bleu(cands, refs, order=2)
    checks.append(("bleu derived vs oracle", abs(got - want) <= 1e-9))

    n_cands = [["the", "cat", "sat", "on", "mat"],
               ["a", "dog", "ran", "far", "away"]]
    n_refs = [[["the", "cat", "sat", "on", "the", "mat"]],
              [["a", "dog", "ran", "away", "fast"]]]
    got = nist(n_cands, n_refs)
    want = oracles.naive_nist(n_cands, n_refs)
    checks.append(("nist derived vs oracle", abs(got - want) <= 1e-9))

    swap = ter(["a", "c", "b", "d", "e"], [["a", "b", "c", "d", "e"]])
    minimum = oracles.exhaustive_ter_edits(
        ["a", "c", "b", "d", "e"], ["a", "b", "c", "d", "e"], max_shifts=2)
    checks.append(("ter swap vs exhaustive search",
                   swap.edits == minimum == 1 and abs(swap.score - 0.2) <= 1e-9))

    cand = "the cat sat on mat".split()
    ref = "on mat the cat sat".split()
    chunked = meteor(cand, ref)
    size, chunks = oracles.best_matching(cand, ref)
    checks.append(("meteor chunks vs enumeration",
                   (chunked.matches, chunked.chunks) == (size, chunks)
                   and abs(chunked.score - 0.8) <= 1e-9))

    failed = [name for name, ok in checks if not ok]
    report(4, not failed,
           f"{len(checks) - len(failed)}/{len(checks)} fixtures match"
           + (f"; failed: {failed}" if failed else ""))


def test_criterion_5_aligner_optimality():
    rng = random.Random(515)

    def random_instance(max_n):
        n, m = rng.randint(0, max_n), rng.randint(0, max_n)
        doc_a = [f"a{i}" for i in range(n)]
        doc_b = [f"b{j}" for j in range(m)]
        table = {(x, y): round(rng.random(), 3) for x in doc_a for y in doc_b}
        return doc_a, doc_b, (lambda a, b: table[(a, b)])

    nw_bad = 0
    for _ in range(500):
        doc_a, doc_b, scorer = random_instance(6)
        gap = rng.choice([0.0, 0.1, 0.2, 0.5])
        got = nw_align(doc_a, doc_b, scorer, AlignConfig(gap_penalty=gap))
        want = oracles.best_alignment_objective(doc_a, doc_b, scorer, gap)
        if abs(got.objective(gap) - want) > 1e-9:
            nw_bad += 1

    astar_bad = 0
    for _ in range(200):
        doc_a, doc_b, scorer = random_instance(10)
        gap = rng.choice([0.0, 0.1, 0.2, 0.5])
        cfg = AlignConfig(gap_penalty=gap)
        dp_obj = nw_align(doc_a, doc_b, scorer, cfg).objective(gap)
        astar_obj = astar_align(doc_a, doc_b, scorer, cfg).objective(gap)
        if abs(dp_obj - astar_obj) > 1e-9:
            astar_bad += 1

    n = 50
    doc = [f"sentence number {i}" for i in range(n)]
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return 1.0 if a == b else 0.0

    al = astar_align(doc, list(doc), counting, AlignConfig(gap_penalty=0.3))
    diagonal = [(i, j) for i, j, _ in al.pairs] == [(i, i) for i in range(n)]
    lazy_ok = calls < n * n and diagonal

    ok = nw_bad == 0 and astar_bad == 0 and lazy_ok
    report(5, ok,
           f"nw mismatches {nw_bad}/500, astar mismatches {astar_bad}/200, "
           f"50x50 near-diagonal used {calls} of {n * n} scorer calls")


def test_criterion_6_monotonicity(synth, synth_bitext):
    # shared context so the sweep re-scores but never re-tokenizes
    ctx = ChainContext(stoplist=default_stoplist("en"))
    counts = []
    thresholds = [round(0.05 + 0.1 * k, 2) for k in range(10)]
    for thr in thresholds:
        chain = ComparatorChain(tiers=DEFAULT_CHAIN.tiers, final_threshold=thr)
        cfg = FilterConfig(chain=chain, window=10, context=ctx)
        res = align_filter(synth_bitext, cfg)
        counts.append(len(res.accepted))
    sweep_ok = all(a >= b for a, b in zip(counts, counts[1:]))

    rng = random.Random(66)
    nest_bad = 0
    for _ in range(50):
        k = rng.randint(0, 8)
        pairs = tuple((i, i, round(rng.random(), 3)) for i in range(k))
        al = Alignment(pairs=pairs, gaps_a=(), gaps_b=())
        t1, t2 = sorted((rng.random(), rng.random()))
        hi = {(i, j) for i, j, _ in threshold_filter(al, t2)}
        lo = {(i, j) for i, j, _ in threshold_filter(al, t1)}
        if not hi <= lo:
            nest_bad += 1

    ok = sweep_ok and nest_bad == 0
    report(6, ok,
           f"accepted counts over thresholds {thresholds}: {counts}; "
           f"{nest_bad} nesting violations in 50 random alignments")


def test_criterion_7_cross_process_determinism(synth, tmp_path):
    """filter and align write the same bytes in this process and in child
    processes whose string hashing is seeded differently."""
    package_root = Path(__file__).resolve().parents[1] / "src"
    runs = (0, 1, 2)

    def run_cli(run, argv, outputs):
        # run 0 is in process; runs 1 and 2 are children of this tree's
        # package under PYTHONHASHSEED=run.
        if run == 0:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
        else:
            env = dict(os.environ, PYTHONHASHSEED=str(run), PYTHONPATH=str(package_root))
            proc = subprocess.run(
                [sys.executable, "-m", "bifilter.cli", *argv],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
        return tuple(p.read_bytes() for p in outputs)

    src = tmp_path / "src.txt"
    tgt = tmp_path / "tgt.txt"
    trn = tmp_path / "trans.txt"
    src.write_text("".join(l + "\n" for l in synth.source), encoding="utf-8")
    tgt.write_text("".join(l + "\n" for l in synth.target), encoding="utf-8")
    trn.write_text("".join(l + "\n" for l in synth.trans), encoding="utf-8")

    filter_outs = set()
    for run in runs:
        o_src = tmp_path / f"out{run}.src"
        o_tgt = tmp_path / f"out{run}.tgt"
        rep = tmp_path / f"rep{run}.tsv"
        filter_outs.add(run_cli(run, [
            "filter", "--src", str(src), "--tgt", str(tgt), "--trans", str(trn),
            "--window", "10",
            "--out-src", str(o_src), "--out-tgt", str(o_tgt),
            "--report", str(rep),
        ], [o_src, o_tgt, rep]))
    filter_ok = len(filter_outs) == 1

    doc_a = tmp_path / "doc_a.txt"
    doc_b = tmp_path / "doc_b.txt"
    slice_a = synth.trans[:150]
    slice_b = synth.target[:150]
    doc_a.write_text("".join(l + "\n" for l in slice_a), encoding="utf-8")
    doc_b.write_text("".join(l + "\n" for l in slice_b), encoding="utf-8")
    align_outs = set()
    for run in runs:
        out = tmp_path / f"pairs{run}.tsv"
        align_outs.add(run_cli(run, [
            "align", "--doc-a", str(doc_a), "--doc-b", str(doc_b),
            "--out", str(out),
        ], [out]))
    align_ok = len(align_outs) == 1

    report(7, filter_ok and align_ok,
           f"in process and under PYTHONHASHSEED 1 and 2: "
           f"filter outputs byte-identical: {filter_ok}, "
           f"align outputs byte-identical: {align_ok}")
