"""Brute-force reference implementations used to check the fast code.

Everything here favors obviousness over speed: exhaustive enumeration,
full matrices, direct transcriptions of the defining formulas. Only run
on tiny inputs.
"""

from __future__ import annotations

import heapq
import itertools
import math
import unicodedata
from collections import Counter

from bifilter.mt_metrics import BleuBreakdown, TerBreakdown  # the result types only
from bifilter.seq_align import Alignment  # the result type only
from bifilter.similarity import ChainContext, chain_evaluate
from bifilter.textnorm import is_punct_token, tokenize


# ---------------------------------------------------------------- blocks

def _common_blocks(a, b):
    """All (ia, ib, size) triples with size >= 1 and a[ia:ia+size] == b[ib:ib+size]."""
    out = []
    for ia in range(len(a)):
        for ib in range(len(b)):
            size = 0
            while ia + size < len(a) and ib + size < len(b) \
                    and a[ia + size] == b[ib + size]:
                size += 1
                out.append((ia, ib, size))
    return out


def decomposition_max_m(a, b) -> int:
    """Maximum total matched length over every monotone non-crossing
    decomposition into common contiguous blocks, with no greedy
    longest-first constraint."""
    best = 0
    for ia, ib, size in _common_blocks(a, b):
        m = size \
            + decomposition_max_m(a[:ia], b[:ib]) \
            + decomposition_max_m(a[ia + size:], b[ib + size:])
        if m > best:
            best = m
    return best


def tie_choice_m_set(a, b) -> frozenset:
    """Every total matched length reachable by recursions that always take
    a longest common block but may break ties at any position."""
    blocks = _common_blocks(a, b)
    if not blocks:
        return frozenset({0})
    longest = max(size for _, _, size in blocks)
    out = set()
    for ia, ib, size in blocks:
        if size != longest:
            continue
        for left in tie_choice_m_set(a[:ia], b[:ib]):
            for right in tie_choice_m_set(a[ia + size:], b[ib + size:]):
                out.add(size + left + right)
    return frozenset(out)


def leftmost_longest_m(a, b) -> int:
    """Total matched length when every recursion step takes the longest
    common block breaking ties at the smallest a index, then smallest b
    index. Independent of the production code path."""
    blocks = _common_blocks(a, b)
    if not blocks:
        return 0
    longest = max(size for _, _, size in blocks)
    ia, ib, size = min(
        (ia, ib, size) for ia, ib, size in blocks if size == longest
    )
    return size \
        + leftmost_longest_m(a[:ia], b[:ib]) \
        + leftmost_longest_m(a[ia + size:], b[ib + size:])



def reference_longest_match(a, b, alo, ahi, blo, bhi):
    """similarity._longest_match as it was before galloping: the block at
    each start grows one unit per str.find, and a last find gives the
    leftmost occurrence of the winning block."""
    besti = bestsize = 0
    find = b.find
    for i in range(alo, ahi):
        if ahi - i <= bestsize:
            break
        while i + bestsize < ahi and find(a[i:i + bestsize + 1], blo, bhi) >= 0:
            besti = i
            bestsize += 1
    return besti, find(a[besti:besti + bestsize], blo, bhi), bestsize


def lcs_length(a, b) -> int:
    """Longest common subsequence length, from the full
    (len(a) + 1) x (len(b) + 1) table."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                d[i][j] = d[i - 1][j - 1] + 1
            else:
                d[i][j] = max(d[i - 1][j], d[i][j - 1])
    return d[n][m]

# ------------------------------------------------------------------ text

def reference_tokenize(sentence: str) -> tuple[str, ...]:
    """textnorm.tokenize by its definition: split on whitespace, then peel
    every leading and trailing punctuation character off each chunk."""
    out = []
    for chunk in sentence.split():
        lead, trail = [], []
        while chunk and unicodedata.category(chunk[0]).startswith("P"):
            lead.append(chunk[0])
            chunk = chunk[1:]
        while chunk and unicodedata.category(chunk[-1]).startswith("P"):
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        out += lead + ([chunk] if chunk else []) + trail[::-1]
    return tuple(t.lower() for t in out)


def reference_remove_stopwords(tokens, stoplist) -> tuple[str, ...]:
    """textnorm.remove_stopwords by its definition: drop stopwords and
    tokens made only of punctuation characters."""
    return tuple(t for t in tokens if t not in stoplist and not (
        t and all(unicodedata.category(c).startswith("P") for c in t)))


# ---------------------------------------------------------------- filter

def reference_align_filter(bitext, cfg):
    """bisentence_filter.align_filter's documented rule, transcribed plainly:
    exact chain scores, every open candidate in the window scored on every
    visit, and a contested target going to the argmax of the scores of the
    line and its lookahead, ties to the earliest line. A line whose source
    side is empty never matches, whatever its translation. Only a later
    line that is unmatched, has a source side and has the target in its own
    window bids. Returns (accepted, dropped_src, dropped_tgt) as FilterResult
    holds them."""
    src, tgt, trans = bitext.source, bitext.target, bitext.trans
    n_src, n_tgt = len(src), len(tgt)
    ctx = cfg.context if cfg.context is not None else ChainContext()
    matched = {}
    best_seen = {}

    def decision(i, j):
        return chain_evaluate(trans[i], tgt[j], cfg.chain, ctx, exact=True)

    def in_window(i, j):
        return cfg.window is None or abs(j - round(i * n_tgt / n_src)) <= cfg.window

    def contest_winner(i, j):
        best_k, best_s = i, decision(i, j).score
        for k in range(i + 1, i + cfg.lookahead + 1):
            if k < n_src and k not in matched and src[k] != "" and in_window(k, j):
                s = decision(k, j).score
                if s > best_s:
                    best_k, best_s = k, s
        return best_k

    def try_match(i, veto):
        consumed = set() if cfg.allow_reuse else {j for j, _, _ in matched.values()}
        row = [(j, decision(i, j)) for j in range(n_tgt)
               if in_window(i, j) and j not in consumed]
        best_seen[i] = max([best_seen.get(i, 0.0)] + [d.score for _, d in row])
        accepted = sorted(((j, d) for j, d in row if d.accepted),
                          key=lambda c: (-c[1].score, c[0]))
        for j, d in accepted:
            if veto and contest_winner(i, j) != i:
                continue
            matched[i] = (j, d.score, d.tier)
            return True
        return False

    order = [i for i in range(n_src) if src[i] != ""]
    for _ in range(cfg.displacement_rounds):
        pending = [i for i in order if i not in matched]
        if not any([try_match(i, veto=True) for i in pending]):
            break
    for i in order:
        if i not in matched:
            try_match(i, veto=False)
    used = {j for j, _, _ in matched.values()}
    return (
        tuple((i, *matched[i]) for i in sorted(matched)),
        tuple((i, best_seen.get(i, 0.0)) for i in range(n_src) if i not in matched),
        tuple(j for j in range(n_tgt) if j not in used),
    )


# ------------------------------------------------------------- alignment

def best_alignment_objective(doc_a, doc_b, scorer, gap_penalty) -> float:
    """Maximum of sum(likelihood) - gap_penalty * gaps over every monotone
    one-to-one alignment, by enumerating all index subsequences."""
    n, m = len(doc_a), len(doc_b)
    best = -gap_penalty * (n + m)
    for k in range(1, min(n, m) + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(m), k):
                total = 0.0
                for i, j in zip(rows, cols):
                    total += scorer(doc_a[i], doc_b[j])
                total -= gap_penalty * (n + m - 2 * k)
                if total > best:
                    best = total
    return best


# DP move priorities on value ties, as tuples compared with the value:
# positive match, then gap A, then gap B, then zero match.
_PRI_MATCH_POS, _PRI_GAP_A, _PRI_GAP_B, _PRI_MATCH_ZERO = 3, 2, 1, 0


def _reference_backtrace(n, m, kind_at, score_at):
    pairs, gaps_a, gaps_b = [], [], []
    i, j = n, m
    while i > 0 or j > 0:
        kind = kind_at(i, j)
        if kind == "m":
            i, j = i - 1, j - 1
            pairs.append((i, j, score_at(i, j)))
        elif kind == "a":
            i -= 1
            gaps_a.append(i)
        else:
            j -= 1
            gaps_b.append(j)
    return Alignment(pairs=tuple(reversed(pairs)), gaps_a=tuple(reversed(gaps_a)),
                     gaps_b=tuple(reversed(gaps_b)))


def reference_nw_align(doc_a, doc_b, scorer, gap):
    """seq_align.nw_align with full tables of values, moves and likelihoods,
    each cell's best move chosen by comparing (value, priority) tuples."""
    n, m = len(doc_a), len(doc_b)
    value = [[0.0] * (m + 1) for _ in range(n + 1)]
    move = [[""] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        value[i][0] = -gap * i
        move[i][0] = "a"
    for j in range(1, m + 1):
        value[0][j] = -gap * j
        move[0][j] = "b"
    likes = [[0.0] * m for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            s = float(scorer(doc_a[i - 1], doc_b[j - 1]))
            likes[i - 1][j - 1] = s
            best = (value[i - 1][j - 1] + s,
                    _PRI_MATCH_POS if s > 0 else _PRI_MATCH_ZERO, "m")
            for cand in ((value[i - 1][j] - gap, _PRI_GAP_A, "a"),
                         (value[i][j - 1] - gap, _PRI_GAP_B, "b")):
                if cand[:2] > best[:2]:
                    best = cand
            value[i][j], move[i][j] = best[0], best[2]
    return _reference_backtrace(n, m, lambda i, j: move[i][j],
                                lambda i, j: likes[i][j])


def reference_cell_bounds(doc_a, doc_b, scorer, gap):
    """(forward, backward): full (n + 1) x (m + 1) tables of best gains,
    forward[i][j] from node (0, 0) to node (i, j) and backward[i][j] from
    node (i, j) to node (n, m), each by plain dynamic programming over all
    three moves. The best alignment that pairs doc_a[i] with doc_b[j]
    gains forward[i][j] + score + backward[i + 1][j + 1]."""
    n, m = len(doc_a), len(doc_b)
    like = [[float(scorer(x, y)) for y in doc_b] for x in doc_a]
    forward = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(m + 1):
            moves = []
            if i and j:
                moves.append(forward[i - 1][j - 1] + like[i - 1][j - 1])
            if i:
                moves.append(forward[i - 1][j] - gap)
            if j:
                moves.append(forward[i][j - 1] - gap)
            forward[i][j] = max(moves, default=0.0)
    backward = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(n, -1, -1):
        for j in range(m, -1, -1):
            moves = []
            if i < n and j < m:
                moves.append(like[i][j] + backward[i + 1][j + 1])
            if i < n:
                moves.append(backward[i + 1][j] - gap)
            if j < m:
                moves.append(backward[i][j + 1] - gap)
            backward[i][j] = max(moves, default=0.0)
    return forward, backward


def reference_astar_align(doc_a, doc_b, scorer, gap, heuristic):
    """seq_align.astar_align keyed by (i, j) tuples: (alignment, stats).
    heuristic(rest_a, rest_b, gap) bounds the gain still reachable. No
    likelihood is kept: a cell is scored each time its node is expanded,
    and each aligned pair again at backtrace; scorer_calls counts both."""
    n, m = len(doc_a), len(doc_b)
    calls = 0

    def pair_score(i, j):
        nonlocal calls
        calls += 1
        return float(scorer(doc_a[i], doc_b[j]))

    best_g = {(0, 0): 0.0}
    parent = {}
    counter = 0
    heap = [(-heuristic(n, m, gap), 0, 0.0, 0, 0)]
    expanded = 0
    while heap:
        _neg_f, _seq, g, i, j = heapq.heappop(heap)
        if g < best_g.get((i, j), float("-inf")):
            continue
        if (i, j) == (n, m):
            break
        expanded += 1
        succs = []
        if i < n and j < m:
            succs.append((i + 1, j + 1, g + pair_score(i, j), "m"))
        if i < n:
            succs.append((i + 1, j, g - gap, "a"))
        if j < m:
            succs.append((i, j + 1, g - gap, "b"))
        for si, sj, sg, kind in succs:
            if sg > best_g.get((si, sj), float("-inf")):
                best_g[(si, sj)] = sg
                parent[(si, sj)] = kind
                counter += 1
                f = sg + heuristic(n - si, m - sj, gap)
                heapq.heappush(heap, (-f, counter, sg, si, sj))
    else:
        raise AssertionError("search exhausted without reaching the goal")
    alignment = _reference_backtrace(n, m, lambda i, j: parent[(i, j)], pair_score)
    return alignment, {"scorer_calls": calls, "expanded": expanded}


def reference_lexicon_score(dictionary, a, b) -> float:
    """seq_align.lexicon_scorer's score of one pair, from scratch: both
    sides tokenized on every call, punctuation dropped, each source token's
    best probability into the target's token set averaged over the source
    tokens."""
    a_toks = [t for t in tokenize(a) if not is_punct_token(t)]
    if not a_toks:
        return 0.0
    b_toks = {t for t in tokenize(b) if not is_punct_token(t)}
    total = 0.0
    for tok in a_toks:
        row = dictionary.get(tok)
        if row:
            total += max((p for w, p in row.items() if w in b_toks), default=0.0)
    return min(1.0, total / len(a_toks))


# ----------------------------------------------------------------- ngram

def _grams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _count(items):
    out = {}
    for it in items:
        out[it] = out.get(it, 0) + 1
    return out


def naive_bleu(cands, refs, order=4) -> float:
    """Corpus BLEU straight from the defining equation, uniform weights."""
    c = sum(len(t) for t in cands)
    r = 0
    for cand, group in zip(cands, refs):
        # closest reference length, shorter on ties
        r += min((abs(len(rt) - len(cand)), len(rt)) for rt in group)[1]
    log_sum = 0.0
    for n in range(1, order + 1):
        num = 0
        den = 0
        for cand, group in zip(cands, refs):
            cc = _count(_grams(cand, n))
            den += sum(cc.values())
            for gram, k in cc.items():
                cap = max(_count(_grams(rt, n)).get(gram, 0) for rt in group)
                num += min(k, cap)
        if num == 0:
            return 0.0
        log_sum += math.log(num / den) / order
    if c == 0:
        return 0.0
    brevity = 1.0 if c > r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_sum)


def naive_nist(cands, refs, order=5) -> float:
    """Corpus NIST from the original definition: information weights from
    pooled reference counts, per-order co-occurrence sums, and the
    exp(beta * ln^2 min(c/r, 1)) brevity factor with factor 0.5 at 2/3."""
    pool = {}
    total_ref_tokens = 0
    for group in refs:
        for rt in group:
            total_ref_tokens += len(rt)
            for n in range(1, order + 1):
                for g in _grams(rt, n):
                    pool[g] = pool.get(g, 0) + 1

    def info(gram):
        denom = pool.get(gram, 0)
        numer = total_ref_tokens if len(gram) == 1 else pool.get(gram[:-1], 0)
        return math.log2(numer / denom)

    score = 0.0
    c = 0
    r_bar = 0.0
    for cand, group in zip(cands, refs):
        c += len(cand)
        r_bar += sum(len(rt) for rt in group) / len(group)
    for n in range(1, order + 1):
        gained = 0.0
        total = 0
        for cand, group in zip(cands, refs):
            cc = _count(_grams(cand, n))
            total += sum(cc.values())
            for gram, k in cc.items():
                cap = max(_count(_grams(rt, n)).get(gram, 0) for rt in group)
                hits = min(k, cap)
                if hits:
                    gained += hits * info(gram)
        if total:
            score += gained / total
    if c == 0 or r_bar == 0:
        return 0.0
    beta = math.log(0.5) / math.log(2.0 / 3.0) ** 2
    ratio = min(c / r_bar, 1.0)
    return score * math.exp(beta * math.log(ratio) ** 2)


def _counter_ngrams(tokens, n):
    toks = tuple(tokens)
    return Counter(toks[i:i + n] for i in range(len(toks) - n + 1))


def _counter_clipped(cand, group, n):
    counts = _counter_ngrams(cand, n)
    if not counts:
        return counts, counts
    best = Counter()
    for rt in group:
        best |= _counter_ngrams(rt, n)
    return counts, counts & best


def counter_bleu(cands, refs, order=4) -> BleuBreakdown:
    """Corpus BLEU counted segment by segment with Counter: each order's
    references merged with |=, the candidate clipped with &. The same float
    operations in the same order as the package's BLEU, so the results
    compare with ==."""
    matched = [0] * (order + 1)
    total = [0] * (order + 1)
    c = r = 0
    for cand, group in zip(cands, refs):
        c += len(cand)
        r += min((abs(len(rt) - len(cand)), len(rt)) for rt in group)[1]
        for n in range(1, order + 1):
            counts, clipped = _counter_clipped(cand, group, n)
            matched[n] += sum(clipped.values())
            total[n] += sum(counts.values())
    precisions = tuple(
        matched[n] / total[n] if total[n] else 0.0 for n in range(1, order + 1))
    if c == 0:
        brevity = 0.0
    else:
        brevity = 1.0 if c > r else math.exp(1.0 - r / c)
    score = 0.0
    if all(p > 0 for p in precisions):
        w = 1.0 / order
        score = brevity * math.exp(sum(w * math.log(p) for p in precisions))
    return BleuBreakdown(precisions=precisions, cand_len=c, ref_len=r,
                         brevity=brevity, score=score)


def counter_nist(cands, refs, order=5) -> float:
    """Corpus NIST in two passes: the pooled reference counts first, then
    the clipped matches of each segment (as in counter_bleu) weighted in
    the candidate's n-gram order. The same float operations in the same
    order as the package's NIST, so the results compare with ==."""
    ref_counts = [Counter() for _ in range(order + 1)]
    total_ref_tokens = 0
    for group in refs:
        for rt in group:
            total_ref_tokens += len(rt)
            for n in range(1, order + 1):
                ref_counts[n].update(_counter_ngrams(rt, n))
    gained = [0.0] * (order + 1)
    total = [0] * (order + 1)
    c = 0
    r_mean = 0.0
    for cand, group in zip(cands, refs):
        c += len(cand)
        r_mean += sum(len(rt) for rt in group) / len(group)
        for n in range(1, order + 1):
            counts, clipped = _counter_clipped(cand, group, n)
            total[n] += sum(counts.values())
            for gram, hits in clipped.items():
                prefix = total_ref_tokens if n == 1 else ref_counts[n - 1][gram[:-1]]
                gained[n] += hits * math.log2(prefix / ref_counts[n][gram])
    if c == 0 or r_mean == 0:
        return 0.0
    score = sum(gained[n] / total[n] for n in range(1, order + 1) if total[n])
    beta = math.log(0.5) / math.log(2.0 / 3.0) ** 2
    return score * math.exp(beta * math.log(min(c / r_mean, 1.0)) ** 2)


# ------------------------------------------------------------------- TER

def full_matrix_lev(a, b) -> int:
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost)
    return d[n][m]


def _levenshtein(a, b) -> int:
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ai = a[i - 1]
        for j in range(1, lb + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if ai == b[j - 1] else 1),
            )
        prev = cur
    return prev[lb]


def _ref_span_positions(ref: tuple) -> dict:
    spans = {}
    for q in range(len(ref)):
        for ln in range(1, len(ref) - q + 1):
            spans.setdefault(ref[q : q + ln], []).append(q)
    return spans


def _best_shift(current: tuple, ref: tuple, spans, base: int):
    best = None
    n = len(current)
    for i in range(n):
        for ln in range(n - i, 0, -1):
            span = current[i : i + ln]
            targets = spans.get(span)
            if not targets:
                continue
            rest = current[:i] + current[i + ln :]
            for q in targets:
                p = min(q, len(rest))
                shifted = rest[:p] + span + rest[p:]
                if shifted == current:
                    continue
                d = _levenshtein(shifted, ref)
                if d < base and (best is None or d < best[0]):
                    best = (d, shifted)
    return best


def reference_ter(cand, refs):
    """mt_metrics.ter with the greedy shift search written out plainly: a
    table of every reference substring and its positions, and a
    row-by-row Levenshtein distance for every shift tried. The same
    visiting order and strict-< tie rule, so the same TerBreakdown."""
    cand_t = tuple(cand)
    ref_ts = [tuple(r) for r in refs]
    best_edits = None
    best_shifts = 0
    for ref_t in ref_ts:
        spans = _ref_span_positions(ref_t)
        current = cand_t
        shifts = 0
        dist = _levenshtein(current, ref_t)
        while dist > 0 and shifts < 50:
            found = _best_shift(current, ref_t, spans, dist)
            if found is None:
                break
            dist, current = found
            shifts += 1
        edits = shifts + dist
        if best_edits is None or edits < best_edits:
            best_edits, best_shifts = edits, shifts
    w_r = sum(len(rt) for rt in ref_ts) / len(ref_ts)
    score = best_edits / w_r if w_r > 0 else float(best_edits)
    return TerBreakdown(edits=best_edits, shifts=best_shifts, ref_len=w_r, score=score)


def _all_shifts(tokens):
    """Every distinct sequence reachable by moving one contiguous span."""
    out = []
    n = len(tokens)
    for start in range(n):
        for length in range(1, n - start + 1):
            span = tokens[start:start + length]
            rest = tokens[:start] + tokens[start + length:]
            for dest in range(len(rest) + 1):
                moved = rest[:dest] + span + rest[dest:]
                if moved != tokens:
                    out.append(moved)
    return out


def exhaustive_ter_edits(cand, ref, max_shifts=2) -> int:
    """Minimum shifts + word Levenshtein over every shift sequence of
    length <= max_shifts. Exponential; fixture-sized inputs only."""
    cand = list(cand)
    ref = list(ref)
    best = full_matrix_lev(cand, ref)
    frontier = [cand]
    for depth in range(1, max_shifts + 1):
        nxt = []
        for seq in frontier:
            for moved in _all_shifts(seq):
                e = depth + full_matrix_lev(moved, ref)
                if e < best:
                    best = e
                nxt.append(moved)
        frontier = nxt
    return best


# ---------------------------------------------------------------- METEOR

def chunk_count(pairs) -> int:
    """Runs of (cand, ref) pairs that are adjacent on both sides."""
    count = 0
    prev = None
    for ci, rj in sorted(pairs):
        if prev is None or prev != (ci - 1, rj - 1):
            count += 1
        prev = (ci, rj)
    return count


def recursive_max_matching(adj):
    """Maximum bipartite matching by recursive augmenting paths (Kuhn),
    roots in ascending order: (size, sorted (left, right) pairs). The
    recursive form of mt_metrics._max_matching_size."""
    match_r = {}

    def augment(u, visited):
        for v in adj[u]:
            if v in visited:
                continue
            visited.add(v)
            if v not in match_r or augment(match_r[v], visited):
                match_r[v] = u
                return True
        return False

    size = 0
    for u in sorted(adj):
        if adj[u] and augment(u, set()):
            size += 1
    return size, sorted((u, v) for v, u in match_r.items())


def recursive_stage_assignment(adj, prior, cap):
    """The fewest-chunk maximum assignment by recursive search, visiting at
    most about cap nodes and falling back to the plain maximum matching
    when the cap trips first. The recursive form of
    mt_metrics._stage_assignment with its node cap as a parameter."""
    target, fallback = recursive_max_matching(adj)
    if target == 0:
        return []
    cands = sorted(ci for ci in adj if adj[ci])
    best = None
    used = set()
    chosen = []
    nodes = 0

    def rec(idx, made):
        nonlocal best, nodes
        if nodes > cap:
            return
        nodes += 1
        if made + (len(cands) - idx) < target:
            return
        if idx == len(cands):
            if made == target:
                chunks = chunk_count(prior + chosen)
                if best is None or chunks < best[0]:
                    best = (chunks, list(chosen))
            return
        ci = cands[idx]
        for rj in adj[ci]:
            if rj in used:
                continue
            used.add(rj)
            chosen.append((ci, rj))
            rec(idx + 1, made + 1)
            chosen.pop()
            used.discard(rj)
        rec(idx + 1, made)

    rec(0, 0)
    if best is None:
        return fallback
    return best[1]


def search_tree_size(adj):
    """The node count of recursive_stage_assignment's search tree without a
    cap: the same candidates, order and pruning."""
    target, _ = recursive_max_matching(adj)
    cands = sorted(ci for ci in adj if adj[ci])
    used = set()

    def rec(idx, made):
        if made + (len(cands) - idx) < target or idx == len(cands):
            return 1
        size = 1
        for rj in adj[cands[idx]]:
            if rj in used:
                continue
            used.add(rj)
            size += rec(idx + 1, made + 1)
            used.discard(rj)
        return size + rec(idx + 1, made)

    return rec(0, 0)


def best_matching(cand, ref, related=None) -> tuple[int, int]:
    """(maximum one-to-one match count, fewest chunks among maximum
    matchings) by enumerating every injective assignment."""
    if related is None:
        related = lambda cw, rw: cw == rw
    n = len(cand)
    best = (0, 0)

    def rec(ci, used, pairs):
        nonlocal best
        if ci == n:
            size = len(pairs)
            c = chunk_count(pairs)
            if size > best[0] or (size == best[0] and (best[0] == 0 or c < best[1])):
                best = (size, c)
            return
        rec(ci + 1, used, pairs)
        for rj in range(len(ref)):
            if rj not in used and related(cand[ci], ref[rj]):
                rec(ci + 1, used | {rj}, pairs + [(ci, rj)])

    rec(0, frozenset(), [])
    return best
