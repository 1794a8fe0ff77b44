"""Brute-force reference implementations used to check the fast code.

Everything here favors obviousness over speed: exhaustive enumeration,
full matrices, direct transcriptions of the defining formulas. Only run
on tiny inputs.
"""

from __future__ import annotations

import itertools
import math
import unicodedata

from bifilter.mt_metrics import TerBreakdown  # the result type only
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
