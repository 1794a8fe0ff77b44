"""MT evaluation metrics.

Corpus BLEU with clipped pooled counts, NIST with information-weighted
n-gram matches, TER with a greedy block-shift search, and METEOR with
exact/stem/synonym matching passes. All functions are pure; token input is
any sequence of token strings, such as the tuples tokenize returns.

BLEU and NIST share one n-gram pass (_ngram_pass): each segment's candidate
and references are counted once per order and clipped once, for both
metrics, and NIST's pooled reference counts are built by Counter.update in C.

TER's shift search scores every candidate shift with a word-parallel
Levenshtein kernel (Myers 1999; Hyyrö 2001) over per-token bitmasks of the
reference: O(L * ceil(m / w)) word operations for an L-token sequence
against an m-token reference with machine word size w, in place of an
O(L * m) table, and skips every shift whose lower bounds show it cannot
win. A bag-of-words floor on every shifted distance skips references and
ends shift rounds that cannot improve the result.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Optional

from .errors import ConfigError, DataError, _at_least
from .similarity import _build_masks
from .textnorm import SynonymLexicon, stem

__all__ = [
    "BleuBreakdown",
    "TerBreakdown",
    "MeteorBreakdown",
    "ngram_counts",
    "brevity_penalty",
    "bleu",
    "nist",
    "ter",
    "ter_corpus",
    "meteor",
    "meteor_corpus",
    "metric_report",
    "METRIC_NAMES",
]

METRIC_NAMES = ("bleu", "nist", "ter", "meteor")


def ngram_counts(tokens, n: int) -> Counter:
    """Multiset of the contiguous n-token windows."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    return Counter(_windows(tuple(tokens), n))


@dataclass(frozen=True)
class BleuBreakdown:
    precisions: tuple[float, ...]
    cand_len: int
    ref_len: int
    brevity: float
    score: float


@dataclass(frozen=True)
class TerBreakdown:
    """edits = shifts + word-level edit operations; ref_len is the mean
    reference token count; score = edits / ref_len (may exceed 1)."""

    edits: int
    shifts: int
    ref_len: float
    score: float


@dataclass(frozen=True)
class MeteorBreakdown:
    matches: int
    chunks: int
    precision: float
    recall: float
    penalty: float
    score: float


def brevity_penalty(c: int, r: int) -> float:
    """1 when the candidate corpus is longer than the reference length,
    else e^(1 - r/c)."""
    if c == 0:
        return 0.0
    if c > r:
        return 1.0
    return math.exp(1.0 - r / c)


def _tokens(seq, idx: int, side: str) -> tuple:
    """seq as a token tuple. A string raises DataError naming its segment
    and side: its characters would otherwise be scored as tokens."""
    if isinstance(seq, str):
        raise DataError(f"segment {idx}: {side} is a string; metrics take "
                        "token lists")
    return tuple(seq)


def _normalize_corpus(cands, refs):
    cand_toks = [_tokens(c, idx, "the candidate") for idx, c in enumerate(cands)]
    ref_toks = [[_tokens(r, idx, f"reference {k}")
                 for k, r in enumerate(_tokens(group, idx, "the reference group"))]
                for idx, group in enumerate(refs)]
    if not cand_toks:
        raise DataError("empty candidate corpus")
    if len(cand_toks) != len(ref_toks):
        raise DataError(
            f"{len(cand_toks)} candidate segments vs {len(ref_toks)} "
            "reference groups"
        )
    for idx, group in enumerate(ref_toks):
        if not group:
            raise DataError(f"segment {idx} has no references")
    return cand_toks, ref_toks


def _windows(toks: tuple, n: int):
    """The contiguous n-token windows of toks as tuples, in order."""
    return zip(*[toks[k:] for k in range(n)])


# The NIST brevity factor is exp(beta * ln^2(min(c/r, 1))) with beta chosen
# so the factor is 0.5 when the candidate is 2/3 the reference length.
_NIST_BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2


def _ngram_pass(cand_toks, ref_toks, bleu_order: int, nist_order: int):
    """(BleuBreakdown, NIST score) of normalized segments from one n-gram
    pass; an order of 0 gives None for its metric. When NIST runs, its
    pooled reference counts come first. Then, per segment and order, the
    candidate and each reference are counted once, and each candidate
    n-gram is clipped to the most any one reference holds: BLEU adds up the
    clipped counts, NIST their information in the candidate's n-gram order."""
    top = max(bleu_order, nist_order)
    pooled = [Counter() for _ in range(top + 1)]
    ref_tokens = 0
    if nist_order:
        for group in ref_toks:
            for rt in group:
                ref_tokens += len(rt)
                for n in range(1, nist_order + 1):
                    pooled[n].update(_windows(rt, n))
    matched = [0] * (top + 1)
    total = [0] * (top + 1)
    gained = [0.0] * (top + 1)
    c = r = 0
    r_mean = 0.0
    for cand, group in zip(cand_toks, ref_toks):
        c += len(cand)
        r += min((abs(len(rt) - len(cand)), len(rt)) for rt in group)[1]
        r_mean += sum(len(rt) for rt in group) / len(group)
        for n in range(1, min(top, len(cand)) + 1):
            total[n] += len(cand) - n + 1
            best = [ngram_counts(rt, n) for rt in group]
            weigh, pool, prefixes = n <= nist_order, pooled[n], pooled[n - 1]
            hits_n, info_n = 0, gained[n]
            for gram, k in ngram_counts(cand, n).items():
                cap = 0
                for counts in best:
                    held = counts.get(gram, 0)
                    if held > cap:
                        cap = held
                hits = k if k < cap else cap
                if hits:
                    hits_n += hits
                    if weigh:
                        prefix = ref_tokens if n == 1 else prefixes[gram[:-1]]
                        info_n += hits * math.log2(prefix / pool[gram])
            matched[n] += hits_n
            gained[n] = info_n
    bleu_result = nist_score = None
    if bleu_order:
        precisions = tuple(matched[n] / total[n] if total[n] else 0.0
                           for n in range(1, bleu_order + 1))
        brevity = brevity_penalty(c, r)
        if all(p > 0 for p in precisions):
            w = 1.0 / bleu_order
            score = brevity * math.exp(sum(w * math.log(p) for p in precisions))
        else:
            score = 0.0
        bleu_result = BleuBreakdown(precisions=precisions, cand_len=c, ref_len=r,
                                    brevity=brevity, score=score)
    if nist_order:
        nist_score = 0.0
        if c and r_mean:
            score = sum(gained[n] / total[n]
                        for n in range(1, nist_order + 1) if total[n])
            ratio = min(c / r_mean, 1.0)
            nist_score = score * math.exp(_NIST_BETA * math.log(ratio) ** 2)
    return bleu_result, nist_score


def bleu(cands, refs, order: int = 4) -> BleuBreakdown:
    """Corpus BLEU up to n-grams of the given order, weighted uniformly.

    Clipped n-gram matches and candidate totals are pooled over segments
    before dividing. The reference length r takes, per segment, the
    reference closest in length to the candidate (ties to the shorter one).
    Any pooled precision of zero zeroes the score. The counting is the
    pass NIST shares (_ngram_pass), run for BLEU alone.
    """
    _at_least("BLEU order", order, 1)
    return _ngram_pass(*_normalize_corpus(cands, refs), order, 0)[0]


def nist(cands, refs, order: int = 5) -> float:
    """Corpus NIST score.

    An n-gram's information weight is log2(prefix count / n-gram count)
    over the pooled reference corpus (the unigram prefix count is the total
    reference token count). Per order, the summed information of clipped
    co-occurring candidate n-grams is divided by the candidate n-gram
    total; the orders add up and the brevity factor scales the sum. The
    counting is the pass BLEU shares (_ngram_pass), run for NIST alone.
    """
    _at_least("NIST order", order, 1)
    return _ngram_pass(*_normalize_corpus(cands, refs), 0, order)[1]


def _advance(masks: dict, full: int, text, pv: int, mv: int) -> tuple[int, int]:
    """The column state (pv, mv) after text, from state (pv, mv) before it.

    Word Levenshtein distance, word-parallel over a reference of m tokens
    (Myers 1999; Hyyrö 2001): masks holds the reference's per-token
    bitmasks (similarity._build_masks) and full = 2^m - 1. Bit r of pv and
    mv marks a +1 and a -1 vertical delta D[r+1][j] - D[r][j] of the current
    column j; the global top row D[0][j] = j enters as a +1 horizontal
    delta shifted into bit 0. A constant number of big-integer operations
    per token: O(len(text) * ceil(m / w)) word operations for word size w.
    """
    get = masks.get
    for x in text:
        eq = get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = ((mv | ~(xh | pv)) << 1) | 1
        pv = (((pv & xh) << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return pv, mv


def _edit_distance(masks: dict, m: int, text) -> int:
    """Word Levenshtein distance between text and the m-token reference
    whose bitmasks are masks: the last column's bottom entry,
    len(text) + (+1 deltas) - (-1 deltas)."""
    full = (1 << m) - 1
    pv, mv = _advance(masks, full, text, full, 0)
    return len(text) + pv.bit_count() - mv.bit_count()


_MAX_SHIFT_ITER = 50


def _diagonal_floor(pv: int, mv: int, k: int, n: int, m: int) -> int:
    """A lower bound on lev(x, ref) for every n-token x whose first k
    tokens leave the column state (pv, mv) against the m-token ref.

    Along a diagonal the Levenshtein table never decreases, so the bottom
    corner D[n][m] is at least D[k][m - (n - k)], read off the column as
    D[k][0] = k plus its vertical deltas above that row; when the diagonal
    leaves the table (m - (n - k) < 0) the length difference n - m bounds it.
    """
    row = m - n + k
    if row < 0:
        return n - m
    low = (1 << row) - 1
    return k + (pv & low).bit_count() - (mv & low).bit_count()


def _shift_bounds(current: tuple, ref: tuple, masks: dict, rmasks: dict):
    """The column states of current against ref, and the lower bounds that
    let _best_shift skip a shift without scoring it.

    cols[k] is the column state after current[:k]. A shift that keeps
    current[:s] and current[e:] in place has distance at least pre[s], the
    diagonal floor at column s, and at least suf[e], the same floor on the
    reversed sequences: a backward pass over current[::-1] with rmasks,
    the bitmasks of ref[::-1], reads lev(current[e:], ref[e:]) off the
    diagonal from the top-left corner, or n - m when e > m.
    """
    n, m = len(current), len(ref)
    full = (1 << m) - 1
    cols = [(full, 0)]
    back = [(full, 0)]
    for k in range(n):
        cols.append(_advance(masks, full, current[k : k + 1], *cols[k]))
        back.append(_advance(rmasks, full, current[n - 1 - k : n - k], *back[k]))
    pre = [_diagonal_floor(pv, mv, k, n, m) for k, (pv, mv) in enumerate(cols)]
    suf = [_diagonal_floor(pv, mv, k, n, m) for k, (pv, mv) in enumerate(back)]
    return cols, pre, suf[::-1]


def _best_shift(current: tuple, ref: tuple, masks: dict, rmasks: dict,
                positions: dict, base: int, floor: int):
    """The single block shift that most reduces the edit distance.

    A shiftable block is a contiguous candidate span occurring verbatim in
    the reference; it is reinserted at a position where it matches the
    reference. Spans are tried by start i ascending, length descending,
    then reference position ascending, and the first strict minimum below
    base wins. The spans starting at i come from extending a match at each
    reference position q of current[i] (positions maps a token to its
    ascending reference positions). Returns (new_distance, shifted) or None
    when nothing helps.

    Moving a span leaves current[:s] and current[e:] in place. A shift is
    skipped, unscored, once a lower bound on its distance reaches the
    threshold t (base, then the best distance found): pre[s] and suf[e]
    from _shift_bounds, then, after the moved part shifted[s:e] is scored
    from cols[s], the diagonal floor at column e. Such a shift could never
    pass the strict d < t test, so the visiting order and the winner are
    the same as scoring every shift.

    floor is a lower bound on the distance of every shift (ter's
    bag-of-words floor). Once the best distance found reaches it, no later
    shift can be strictly lower, so the search returns at once.
    """
    best = None
    t = base
    n, m = len(current), len(ref)
    full = (1 << m) - 1
    cols, pre, suf = _shift_bounds(current, ref, masks, rmasks)
    for i in range(n):
        runs = []  # (q, length of the match of current[i:] at ref[q:])
        for q in positions.get(current[i], ()):
            k = 1
            while i + k < n and q + k < m and current[i + k] == ref[q + k]:
                k += 1
            runs.append((q, k))
        if not runs:
            continue
        for ln in range(max(k for _, k in runs), 0, -1):
            for q, k in runs:
                if k < ln:
                    continue
                p = min(q, n - ln)
                if p == i:
                    continue
                s, e = (p, i + ln) if p < i else (i, p + ln)
                if pre[s] >= t or suf[e] >= t:
                    continue
                if p < i:
                    mid = current[i:e] + current[p:i]
                else:
                    mid = current[i + ln : e] + current[i : i + ln]
                if mid == current[s:e]:
                    continue
                pv, mv = _advance(masks, full, mid, *cols[s])
                if _diagonal_floor(pv, mv, e, n, m) >= t:
                    continue
                pv, mv = _advance(masks, full, current[e:], pv, mv)
                d = n + pv.bit_count() - mv.bit_count()
                if d < t:
                    t = d
                    best = (d, current[:s] + mid + current[e:])
                    if t <= floor:
                        return best
    return best


def ter(cand, refs) -> TerBreakdown:
    """Translation edit rate of one candidate against its references.

    Edits are word insertions, deletions, substitutions, and block shifts,
    each costing 1. The shift search greedily applies the most-reducing
    shift until none reduces the remaining edit distance (at most 50
    shifts); the cheapest reference wins. score = edits / mean reference
    length. The candidate and each reference are token lists: a string
    raises DataError.

    Every distance comes from the word-parallel kernel (_advance) over the
    bitmasks of the reference and of the reversed reference, built once per
    reference. A shift round over an L-token candidate and an m-token
    reference tries at most one shift per matching (candidate span,
    reference position) pair, O(L * m) of them when matches are short, and
    scores each in O(L * ceil(m / w)) word operations, resuming from the
    column state of the prefix it shares with the unshifted candidate.

    A shift is skipped unscored when a lower bound on its distance already
    reaches the round's threshold (the distance before the round, then the
    best shift's): the diagonal floor of the prefix it leaves in place, the
    distance of the suffix it leaves in place to the reference's suffix
    from the same index, and the diagonal floor after its moved part. Each
    is at most the shift's true distance, and only a distance below the
    threshold can win, so the search is exact: the same edits and shifts
    as a row-by-row Levenshtein search in the same order.

    Each reference also has a floor, max(L, m) minus the tokens the
    candidate and the reference share as bags of words: a shift keeps the
    bag, and every token left without a match costs an edit, so no shifted
    candidate's distance falls below it. Only strictly fewer edits than
    the best so far win, as ties go to the earlier reference. So a
    reference whose floor reaches the fewest edits so far is skipped, and
    a shift round runs only while one more shift plus the floor stays
    below them, since a round adds a shift and cannot take the distance
    below the floor. A round also runs only while the distance is above
    the floor, and ends at the first shift that reaches it (_best_shift).
    None of these changes the edits or the shifts.
    """
    cand_t = _tokens(cand, 0, "the candidate")
    ref_ts = [_tokens(r, 0, f"reference {k}")
              for k, r in enumerate(_tokens(refs, 0, "the reference group"))]
    if not ref_ts:
        raise DataError("ter needs at least one reference")
    best_edits = math.inf
    best_shifts = 0
    cand_bag = Counter(cand_t)
    for ref_t in ref_ts:
        floor = max(len(cand_t), len(ref_t)) - sum(
            (cand_bag & Counter(ref_t)).values())
        if floor >= best_edits:
            continue  # cannot beat the earlier reference, which wins ties
        masks = _build_masks(ref_t)
        rmasks = _build_masks(ref_t[::-1])
        positions: dict = {}
        for q, tok in enumerate(ref_t):
            positions.setdefault(tok, []).append(q)
        current = cand_t
        shifts = 0
        dist = _edit_distance(masks, len(ref_t), current)
        while (dist > floor and shifts + 1 + floor < best_edits
               and shifts < _MAX_SHIFT_ITER):
            found = _best_shift(current, ref_t, masks, rmasks, positions, dist,
                                floor)
            if found is None:
                break
            dist, current = found
            shifts += 1
        edits = shifts + dist
        if edits < best_edits:
            best_edits, best_shifts = edits, shifts
    w_r = sum(len(rt) for rt in ref_ts) / len(ref_ts)
    if w_r > 0:
        score = best_edits / w_r
    else:
        score = float(best_edits)
    return TerBreakdown(edits=best_edits, shifts=best_shifts, ref_len=w_r, score=score)


def ter_corpus(cands, refs) -> TerBreakdown:
    """Pooled TER: total edits over total reference length."""
    cand_toks, ref_toks = _normalize_corpus(cands, refs)
    edits = shifts = 0
    ref_len = 0.0
    for cand, group in zip(cand_toks, ref_toks):
        seg = ter(cand, group)
        edits += seg.edits
        shifts += seg.shifts
        ref_len += seg.ref_len
    score = edits / ref_len if ref_len > 0 else float(edits)
    return TerBreakdown(edits=edits, shifts=shifts, ref_len=ref_len, score=score)


def _chunk_count(pairs) -> int:
    if not pairs:
        return 0
    ps = sorted(pairs)
    chunks = 1
    for (c0, r0), (c1, r1) in zip(ps, ps[1:]):
        if c1 != c0 + 1 or r1 != r0 + 1:
            chunks += 1
    return chunks


def _augment(adj: dict[int, list[int]], match_r: dict[int, int], root: int) -> bool:
    """One depth-first search for an augmenting path from the unmatched
    left vertex root (Kuhn's algorithm); on success flips the path into
    match_r (right vertex -> left vertex). An explicit stack in place of
    recursion, with the same visiting order, so a long path cannot
    overflow the interpreter's stack."""
    visited: set[int] = set()
    stack = [(root, iter(adj[root]))]  # left vertices on the path
    via: list[int] = []  # via[k]: the right vertex from stack[k] to stack[k + 1]
    while stack:
        u, edges = stack[-1]
        for v in edges:
            if v in visited:
                continue
            visited.add(v)
            if v not in match_r:
                match_r[v] = u
                for (left, _), right in zip(stack, via):
                    match_r[right] = left
                return True
            via.append(v)
            stack.append((match_r[v], iter(adj[match_r[v]])))
            break
        else:
            stack.pop()
            if via:
                via.pop()
    return False


def _max_matching_size(adj: dict[int, list[int]]) -> tuple[int, list[tuple[int, int]]]:
    match_r: dict[int, int] = {}
    size = 0
    for u in sorted(adj):
        if adj[u] and _augment(adj, match_r, u):
            size += 1
    return size, sorted((u, v) for v, u in match_r.items())


def _biclique_matching_size(adj: dict[int, list[int]]) -> Optional[int]:
    """The maximum matching size when every two adjacency lists hold the
    same reference positions or none in common, as in the exact and stem
    passes (their relations are equivalences), else None.

    Such a graph is a union of complete bipartite graphs, one per distinct
    list, and each matches min(its candidates, its positions) pairs."""
    takers = Counter(frozenset(rjs) for rjs in adj.values())
    if sum(map(len, takers)) != len(frozenset().union(*takers)):
        return None  # two distinct lists share a position
    return sum(min(count, len(group)) for group, count in takers.items())


_ASSIGN_NODE_CAP = 200_000

# Memo keys of the two kinds of leaf below a search node; real states are
# keyed by tuples.
_PRUNED = -1  # too many candidates left unmatched to reach the target
_COMPLETE = -2  # every candidate decided, target pairs made


def _assignment_children(space: tuple, state: tuple):
    """Yield (key, gain, rj, child) for each child of a search node, in
    visiting order: every still-free reference position rj of the node's
    candidate in adjacency order, then rj None for leaving it unmatched.

    state is (idx, made, used, ext): the depth, the pairs made so far, the
    bitmask of used reference positions, and the reference position whose
    pick at this depth would extend the path's last pair (-1 if none). gain
    is the change in chunk count the child's pick makes; key is the child's
    memo key, (used & reach of its depth, depth, made, follow), or _PRUNED /
    _COMPLETE for a leaf. follow is the next candidate's free reference
    position that would extend the pick, else -1.
    """
    cands, adj, nexts, prior, reach, slack, n = space
    idx, made, used, ext = state
    nxt = idx + 1
    ci = cands[idx]
    extendable = nexts[idx]
    for rj in adj[ci]:
        bit = 1 << rj
        if used & bit:
            continue
        c_used = used | bit
        follow = rj + 1
        if follow not in extendable or c_used >> follow & 1:
            follow = -1
        gain = 1 - (rj == ext)
        if prior:
            gain -= ((ci - 1, rj - 1) in prior) + ((ci + 1, rj + 1) in prior)
        key = _COMPLETE if nxt == n else (c_used & reach[nxt], nxt, made + 1, follow)
        yield key, gain, rj, (nxt, made + 1, c_used, follow)
    if nxt - made > slack:
        key = _PRUNED
    elif nxt == n:
        key = _COMPLETE
    else:
        key = (used & reach[nxt], nxt, made, -1)
    yield key, 0, None, (nxt, made, used, -1)


def _stage_assignment(
    adj: dict[int, list[int]],
    prior: list[tuple[int, int]],
    stats: Optional[dict] = None,
) -> list[tuple[int, int]]:
    """Pick a maximum one-to-one assignment for this matching pass,
    minimizing the chunk count of the union with earlier passes.

    The result is that of a depth-first search over the candidates in
    order (at each one, every still-free reference position in adjacency
    order, then leaving it unmatched; a node with more candidates left
    unmatched than the target allows is a leaf) that visits at most
    _ASSIGN_NODE_CAP + 1 nodes: the first fewest-chunk complete assignment
    in visiting order among the visited leaves, or the plain maximum
    matching (Kuhn's, _max_matching_size) when no complete assignment lies
    inside that budget. The target size comes in closed form when the
    graph allows it (_biclique_matching_size), else from Kuhn's matching.

    A node's subtree depends only on its state: the depth idx, the count
    made of pairs made, the used reference positions that candidates idx..
    can still take, and the reference position that a pick at idx would
    extend. The search runs that budgeted depth-first order on an explicit
    stack, so a long segment cannot overflow the interpreter's stack, and
    memoizes each subtree it finishes under the state's tuple key as
    (its node count, the fewest chunks a complete assignment in it adds).
    A child whose state is memoized with a count that fits the remaining
    budget is counted, not entered: that spends the same nodes and sees the
    same leaves as visiting it. Any other child is entered, so one that
    straddles the budget is walked down to where the budget ends. Each
    strict improvement records the path to the leaf or to the counted
    subtree; the answer is rebuilt from there as the first optimal leaf in
    visiting order: at each node, the first child whose gain plus minimum
    equals the node's minimum.

    prior must be one-to-one and share no candidate or reference position
    with adj, as meteor's earlier passes are. The union is then one-to-one
    on both sides, so adding (c, r) changes its chunk count by
    1 - [(c-1, r-1) in union] - [(c+1, r+1) in union]: the chunks a subtree
    adds depend on its state alone.

    stats, when given, gets "capped": whether the search tree has more
    nodes than the budget, so that the result may have more chunks than the
    minimum; and "nodes": the nodes it spent, counted ones included (0 when
    nothing can match).
    """
    target = _biclique_matching_size(adj)
    if target is None:
        target = _max_matching_size(adj)[0]
    if target == 0:
        if stats is not None:
            stats.update(capped=False, nodes=0)
        return []
    cands = sorted(ci for ci in adj if adj[ci])
    n = len(cands)
    # reach[idx]: the reference positions candidates idx.. can take
    reach = [0] * (n + 1)
    for idx in range(n - 1, -1, -1):
        reach[idx] = reach[idx + 1]
        for rj in adj[cands[idx]]:
            reach[idx] |= 1 << rj
    # nexts[idx]: the reference positions of the token after candidate
    # idx's, when that token is a candidate; one set per adjacency list, as
    # the exact and stem passes share a list among equal tokens
    lists = {id(rjs): rjs for rjs in adj.values()}
    sets = {key: set(rjs) for key, rjs in lists.items()}
    nexts = [sets[id(adj[ci + 1])] if adj.get(ci + 1) else () for ci in cands]
    space = (cands, adj, nexts, set(prior), reach, n - target, n)
    no_leaf = n + 1  # more chunks than any assignment adds: no complete leaf
    root = (0, 0, 0, -1)  # its state, and its key too
    left = _ASSIGN_NODE_CAP  # nodes the search may still visit after the root
    capped = False
    found = None  # (chunks, pairs, state, its minimum)
    memo = {_PRUNED: (1, no_leaf), _COMPLETE: (1, 0)}  # key -> (nodes, minimum)
    # [key, children, left on entry, fewest chunks so far, chunks on the
    #  path, gain, pick]: gain and pick are those of the move into the frame
    stack: list = [[root, _assignment_children(space, root), left, no_leaf, 0, 0, None]]
    while stack:
        frame = stack[-1]
        key, kids, entry, best, chunks, _, _ = frame
        for c_key, gain, rj, c_state in kids:
            hit = memo.get(c_key)
            if hit is None or hit[0] > left:
                break
            # a finished subtree that fits: count it instead of entering it
            left -= hit[0]
            c_min = hit[1]
            # found[0] <= chunks + best, so only a better frame minimum can
            # improve on it
            if c_min < no_leaf and gain + c_min < best:
                best = gain + c_min
                if found is None or chunks + best < found[0]:
                    pairs = [f[6] for f in stack if f[6] is not None]
                    if rj is not None:
                        pairs.append((cands[c_state[0] - 1], rj))
                    found = (chunks + best, pairs, c_state, c_min)
        else:
            stack.pop()
            memo[key] = (1 + entry - left, best)
            if stack and best < no_leaf and frame[5] + best < stack[-1][3]:
                stack[-1][3] = frame[5] + best
            continue
        if not left:
            capped = True
            break
        left -= 1
        frame[3] = best
        pick = None if rj is None else (cands[c_state[0] - 1], rj)
        stack.append([c_key, _assignment_children(space, c_state), left, no_leaf,
                      chunks + gain, gain, pick])
    if stats is not None:
        stats.update(capped=capped, nodes=_ASSIGN_NODE_CAP + 1 - left)
    if found is None:
        return _max_matching_size(adj)[1]

    _, pairs, state, need = found
    while state[0] < n:
        for c_key, gain, rj, c_state in _assignment_children(space, state):
            c_min = memo[c_key][1]
            if c_min < no_leaf and gain + c_min == need:
                break
        if rj is not None:
            pairs.append((cands[state[0]], rj))
        need -= gain
        state = c_state
    return pairs


def _meteor_breakdown(
    matches: int, chunks: int, cand_len: int, ref_len: int, penalty_exponent: int
) -> MeteorBreakdown:
    """The METEOR formula over match, chunk and token counts; all zero when
    nothing matches."""
    if matches == 0:
        return MeteorBreakdown(
            matches=0, chunks=0, precision=0.0, recall=0.0, penalty=0.0, score=0.0
        )
    precision = matches / cand_len
    recall = matches / ref_len
    penalty = 0.5 * (chunks / matches) ** penalty_exponent
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    return MeteorBreakdown(
        matches=matches,
        chunks=chunks,
        precision=precision,
        recall=recall,
        penalty=penalty,
        score=fmean * (1.0 - penalty),
    )


def meteor(
    cand,
    ref,
    lexicon: Optional[SynonymLexicon] = None,
    penalty_exponent: int = 1,
    stats: Optional[dict] = None,
) -> MeteorBreakdown:
    """METEOR score of a candidate against a single reference.

    Unigrams align in three passes over the still-unmatched tokens: exact
    match, stem match, then synonym match; each pass takes a maximum
    one-to-one matching with the fewest chunks (within the search budget of
    _stage_assignment). score = (10PR / (R + 9P)) * (1 - penalty) with
    penalty = 0.5 * (chunks/matches)^penalty_exponent, and 0 when nothing
    matches. The candidate and the reference are token lists: a string
    raises DataError.

    stats, when given, gets "meteor_capped": the names ("exact", "stem",
    "synonym") of the passes whose search ran out of budget, and
    "meteor_nodes": the search nodes the three passes spent.
    """
    # A negative exponent can lift the penalty above 1 and the score below 0.
    _at_least("METEOR penalty exponent", penalty_exponent, 0)
    ct = _tokens(cand, 0, "the candidate")
    rt = _tokens(ref, 0, "the reference")
    lex = lexicon if lexicon is not None else SynonymLexicon()
    matched: list[tuple[int, int]] = []

    capped = []
    nodes = 0
    for name in ("exact", "stem", "synonym"):
        done_c = {ci for ci, _ in matched}
        done_r = {rj for _, rj in matched}
        open_c = [ci for ci in range(len(ct)) if ci not in done_c]
        open_r = [rj for rj in range(len(rt)) if rj not in done_r]
        if name == "synonym":
            adj = {
                ci: [
                    rj
                    for rj in open_r
                    if rt[rj] in lex.synonyms(ct[ci]) or ct[ci] in lex.synonyms(rt[rj])
                ]
                for ci in open_c
            }
        else:
            # Exact and stem matching are equalities of a key: group the
            # open reference positions by key, in ascending order, and give
            # each candidate the group of its own key.
            key = stem if name == "stem" else (lambda t: t)
            groups: dict[str, list[int]] = {}
            for rj in open_r:
                groups.setdefault(key(rt[rj]), []).append(rj)
            adj = {ci: groups.get(key(ct[ci]), []) for ci in open_c}
        search: dict = {}
        matched.extend(_stage_assignment(adj, matched, search))
        if search["capped"]:
            capped.append(name)
        nodes += search["nodes"]
    if stats is not None:
        stats["meteor_capped"] = capped
        stats["meteor_nodes"] = nodes
    return _meteor_breakdown(
        len(matched), _chunk_count(matched), len(ct), len(rt), penalty_exponent
    )


def meteor_corpus(
    cands,
    refs,
    lexicon: Optional[SynonymLexicon] = None,
    penalty_exponent: int = 1,
    stats: Optional[dict] = None,
) -> MeteorBreakdown:
    """Corpus METEOR: match counts, token totals, and chunk counts pool
    over segments before the formula applies. Uses each segment's first
    reference.

    stats, when given, gets "meteor_capped": a [segment, pass] pair
    (0-based segment index, pass name) for each pass whose search ran out
    of budget, as meteor reports them, and "meteor_nodes": the search nodes
    of every segment's passes, summed.
    """
    _at_least("METEOR penalty exponent", penalty_exponent, 0)
    cand_toks, ref_toks = _normalize_corpus(cands, refs)
    m_u = chunks = cand_total = ref_total = 0
    capped = []
    nodes = 0
    for idx, (cand, group) in enumerate(zip(cand_toks, ref_toks)):
        seg_stats: Optional[dict] = {} if stats is not None else None
        seg = meteor(
            cand, group[0], lexicon=lexicon, penalty_exponent=penalty_exponent,
            stats=seg_stats,
        )
        if seg_stats is not None:
            capped += [[idx, name] for name in seg_stats["meteor_capped"]]
            nodes += seg_stats["meteor_nodes"]
        m_u += seg.matches
        chunks += seg.chunks
        cand_total += len(cand)
        ref_total += len(group[0])
    if stats is not None:
        stats["meteor_capped"] = capped
        stats["meteor_nodes"] = nodes
    return _meteor_breakdown(m_u, chunks, cand_total, ref_total, penalty_exponent)


def _check_metric_settings(metrics, bleu_order: int, nist_order: int,
                           meteor_penalty_exponent: int) -> None:
    """ConfigError unless metrics names known metrics, each once, and the
    named metrics' orders are >= 1 and METEOR's exponent >= 0."""
    known = ", ".join(METRIC_NAMES)
    if not metrics:
        raise ConfigError(f"no metric requested (known: {known})")
    seen = set()
    for name in metrics:
        if name not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {name!r} (known: {known})")
        if name in seen:
            raise ConfigError(f"metric {name!r} requested twice")
        seen.add(name)
    if "bleu" in metrics:
        _at_least("BLEU order", bleu_order, 1)
    if "nist" in metrics:
        _at_least("NIST order", nist_order, 1)
    if "meteor" in metrics:
        _at_least("METEOR penalty exponent", meteor_penalty_exponent, 0)


def metric_report(
    cands,
    refs,
    metrics=METRIC_NAMES,
    bleu_order: int = 4,
    nist_order: int = 5,
    lexicon: Optional[SynonymLexicon] = None,
    meteor_penalty_exponent: int = 1,
    stats: Optional[dict] = None,
) -> dict:
    """Score a candidate corpus and build a JSON-ready report.

    Every requested metric contributes its breakdown; BLEU, TER, and METEOR
    also carry the x100 percentage form. BLEU and NIST share one n-gram
    pass. stats, when given, gets meteor_corpus's "meteor_capped" and
    "meteor_nodes" if METEOR runs. The metric names, each known and named
    once, the settings of the requested metrics and the corpus shape are
    checked before any of them is scored; an empty selection is an error.
    Candidates and references are token lists: a string raises DataError
    naming its segment and side.
    """
    _check_metric_settings(metrics, bleu_order, nist_order,
                           meteor_penalty_exponent)
    cands, refs = _normalize_corpus(cands, refs)
    report: dict = {}
    orders = (bleu_order if "bleu" in metrics else 0,
              nist_order if "nist" in metrics else 0)
    b, nist_score = _ngram_pass(cands, refs, *orders) if any(orders) else (None, None)
    if b is not None:
        b = asdict(b)
        b["brevity_penalty"] = b.pop("brevity")
        report["bleu"] = {**b, "percent": 100.0 * b["score"]}
    if nist_score is not None:
        report["nist"] = {"score": nist_score}
    if "ter" in metrics:
        t = ter_corpus(cands, refs)
        report["ter"] = {**asdict(t), "percent": 100.0 * t.score}
    if "meteor" in metrics:
        m = meteor_corpus(
            cands, refs, lexicon=lexicon,
            penalty_exponent=meteor_penalty_exponent, stats=stats,
        )
        report["meteor"] = {**asdict(m), "percent": 100.0 * m.score}
    return report
