"""MT evaluation metrics.

Corpus BLEU with clipped pooled counts, NIST with information-weighted
n-gram matches, TER with a greedy block-shift search, and METEOR with
exact/stem/synonym matching passes. All functions are pure; token input is
either a TokenSeq or a plain token sequence.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ConfigError, DataError
from .textnorm import Stemmer, SynonymLexicon, TokenSeq, stem

__all__ = [
    "BleuParams",
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


def _tokens(x) -> tuple[str, ...]:
    return x.tokens if isinstance(x, TokenSeq) else tuple(x)


def ngram_counts(tokens, n: int) -> Counter:
    """Multiset of the contiguous n-token windows."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    toks = _tokens(tokens)
    return Counter(toks[i : i + n] for i in range(len(toks) - n + 1))


@dataclass(frozen=True)
class BleuParams:
    """Max n-gram order and the positive per-order weights summing to 1."""

    order: int = 4
    weights: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.order < 1:
            raise ConfigError(f"BLEU order must be >= 1, got {self.order}")
        if self.weights is None:
            object.__setattr__(
                self, "weights", tuple(1.0 / self.order for _ in range(self.order))
            )
            return
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != self.order:
            raise ConfigError(
                f"{len(weights)} weights given for order {self.order}"
            )
        if any(w <= 0 for w in weights):
            raise ConfigError("BLEU weights must be positive")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ConfigError(f"BLEU weights sum to {sum(weights)}, need 1")


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


def _normalize_corpus(cands, refs):
    cand_toks = [_tokens(c) for c in cands]
    ref_toks = [[_tokens(r) for r in group] for group in refs]
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


def _clipped_ngrams(cand: tuple, group, n: int) -> tuple[Counter, Counter]:
    """The candidate's order-n counts, and those counts clipped by the
    references: each n-gram at most as often as in any one reference. The
    clipped counts keep the candidate's n-gram order."""
    counts = ngram_counts(cand, n)
    if not counts:
        return counts, counts
    best: Counter = Counter()
    for rt in group:
        best |= ngram_counts(rt, n)
    return counts, counts & best


def bleu(cands, refs, params: Optional[BleuParams] = None) -> BleuBreakdown:
    """Corpus BLEU.

    Clipped n-gram matches and candidate totals are pooled over segments
    before dividing. The reference length r takes, per segment, the
    reference closest in length to the candidate (ties to the shorter one).
    Any pooled precision of zero zeroes the score.
    """
    params = params if params is not None else BleuParams()
    cand_toks, ref_toks = _normalize_corpus(cands, refs)
    order = params.order
    matched = [0] * (order + 1)
    total = [0] * (order + 1)
    c = r = 0
    for cand, group in zip(cand_toks, ref_toks):
        c += len(cand)
        r += min((abs(len(rt) - len(cand)), len(rt)) for rt in group)[1]
        for n in range(1, order + 1):
            counts, clipped = _clipped_ngrams(cand, group, n)
            matched[n] += sum(clipped.values())
            total[n] += sum(counts.values())
    precisions = tuple(
        matched[n] / total[n] if total[n] else 0.0 for n in range(1, order + 1)
    )
    brevity = brevity_penalty(c, r)
    if all(p > 0 for p in precisions):
        score = brevity * math.exp(
            sum(w * math.log(p) for w, p in zip(params.weights, precisions))
        )
    else:
        score = 0.0
    return BleuBreakdown(
        precisions=precisions, cand_len=c, ref_len=r, brevity=brevity, score=score
    )


# The NIST brevity factor is exp(beta * ln^2(min(c/r, 1))) with beta chosen
# so the factor is 0.5 when the candidate is 2/3 the reference length.
_NIST_BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2


def nist(cands, refs, order: int = 5) -> float:
    """Corpus NIST score.

    An n-gram's information weight is log2(prefix count / n-gram count)
    over the pooled reference corpus (the unigram prefix count is the total
    reference token count). Per order, the summed information of clipped
    co-occurring candidate n-grams is divided by the candidate n-gram
    total; the orders add up and the brevity factor scales the sum.
    """
    if order < 1:
        raise ConfigError(f"NIST order must be >= 1, got {order}")
    cand_toks, ref_toks = _normalize_corpus(cands, refs)
    ref_counts: list[Counter] = [Counter() for _ in range(order + 1)]
    total_ref_tokens = 0
    for group in ref_toks:
        for rt in group:
            total_ref_tokens += len(rt)
            for n in range(1, order + 1):
                ref_counts[n].update(ngram_counts(rt, n))

    def info(gram: tuple) -> float:
        n = len(gram)
        cnt = ref_counts[n][gram]
        prefix = total_ref_tokens if n == 1 else ref_counts[n - 1][gram[:-1]]
        return math.log2(prefix / cnt)

    gained = [0.0] * (order + 1)
    total = [0] * (order + 1)
    c = 0
    r_mean = 0.0
    for cand, group in zip(cand_toks, ref_toks):
        c += len(cand)
        r_mean += sum(len(rt) for rt in group) / len(group)
        for n in range(1, order + 1):
            counts, clipped = _clipped_ngrams(cand, group, n)
            total[n] += sum(counts.values())
            for gram, hits in clipped.items():
                gained[n] += hits * info(gram)
    if c == 0 or r_mean == 0:
        return 0.0
    score = sum(gained[n] / total[n] for n in range(1, order + 1) if total[n])
    ratio = min(c / r_mean, 1.0)
    factor = math.exp(_NIST_BETA * math.log(ratio) ** 2)
    return score * factor


def _levenshtein(a: Sequence, b: Sequence) -> int:
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


_MAX_SHIFT_ITER = 50


def _ref_span_positions(ref: tuple) -> dict[tuple, list[int]]:
    spans: dict[tuple, list[int]] = {}
    for q in range(len(ref)):
        for ln in range(1, len(ref) - q + 1):
            spans.setdefault(ref[q : q + ln], []).append(q)
    return spans


def _best_shift(current: tuple, ref: tuple, spans, base: int):
    """The single block shift that most reduces the edit distance.

    A shiftable block is a contiguous candidate span occurring verbatim in
    the reference; it is reinserted at a position where it matches the
    reference. Returns (new_distance, shifted) or None when nothing helps.
    """
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


def ter(cand, refs) -> TerBreakdown:
    """Translation edit rate of one candidate against its references.

    Edits are word insertions, deletions, substitutions, and block shifts,
    each costing 1. The shift search greedily applies the most-reducing
    shift until none reduces the remaining edit distance (at most 50
    shifts); the cheapest reference wins. score = edits / mean reference
    length.
    """
    cand_t = _tokens(cand)
    ref_ts = [_tokens(r) for r in refs]
    if not ref_ts:
        raise DataError("ter needs at least one reference")
    best_edits = None
    best_shifts = 0
    for ref_t in ref_ts:
        spans = _ref_span_positions(ref_t)
        current = cand_t
        shifts = 0
        dist = _levenshtein(current, ref_t)
        while dist > 0 and shifts < _MAX_SHIFT_ITER:
            found = _best_shift(current, ref_t, spans, dist)
            if found is None:
                break
            dist, current = found
            shifts += 1
        edits = shifts + dist
        if best_edits is None or edits < best_edits:
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


def _max_matching_size(adj: dict[int, list[int]]) -> tuple[int, list[tuple[int, int]]]:
    match_r: dict[int, int] = {}

    def augment(u: int, visited: set[int]) -> bool:
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


_ASSIGN_NODE_CAP = 200_000


def _stage_assignment(
    adj: dict[int, list[int]], prior: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Pick a maximum one-to-one assignment for this matching pass,
    minimizing the chunk count of the union with earlier passes.

    Exhaustive over the (small) ambiguity space with a node cap; if the cap
    trips before any complete assignment, the plain maximum matching is
    used instead.
    """
    target, fallback = _max_matching_size(adj)
    if target == 0:
        return []
    cands = sorted(ci for ci in adj if adj[ci])
    best: Optional[tuple[int, list[tuple[int, int]]]] = None
    used: set[int] = set()
    chosen: list[tuple[int, int]] = []
    nodes = 0

    def rec(idx: int, made: int):
        nonlocal best, nodes
        if nodes > _ASSIGN_NODE_CAP:
            return
        nodes += 1
        if made + (len(cands) - idx) < target:
            return
        if idx == len(cands):
            if made == target:
                chunks = _chunk_count(prior + chosen)
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


def _meteor_breakdown(
    matches: int, chunks: int, cand_len: int, ref_len: int, penalty_exponent: int
) -> MeteorBreakdown:
    """The METEOR formula over match, chunk and token counts; all zero when
    nothing matches."""
    if penalty_exponent < 0:
        # A negative exponent can lift the penalty above 1 and the score below 0.
        raise ConfigError(
            f"METEOR penalty exponent must be >= 0, got {penalty_exponent}"
        )
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
    stemmer: Optional[Stemmer] = None,
) -> MeteorBreakdown:
    """METEOR score of a candidate against a single reference.

    Unigrams align in three passes over the still-unmatched tokens: exact
    match, stem match, then synonym match; each pass takes a maximum
    one-to-one matching with the fewest chunks. score =
    (10PR / (R + 9P)) * (1 - penalty) with penalty =
    0.5 * (chunks/matches)^penalty_exponent, and 0 when nothing matches.
    """
    ct = _tokens(cand)
    rt = _tokens(ref)
    lex = lexicon if lexicon is not None else SynonymLexicon()
    stem_of = stemmer.stem if stemmer is not None else stem
    matched: list[tuple[int, int]] = []

    def relations():
        yield lambda a, b: a == b
        yield lambda a, b: stem_of(a) == stem_of(b)
        yield lambda a, b: b in lex.synonyms(a) or a in lex.synonyms(b)

    for related in relations():
        done_c = {ci for ci, _ in matched}
        done_r = {rj for _, rj in matched}
        adj = {
            ci: [
                rj
                for rj in range(len(rt))
                if rj not in done_r and related(ct[ci], rt[rj])
            ]
            for ci in range(len(ct))
            if ci not in done_c
        }
        matched.extend(_stage_assignment(adj, matched))
    return _meteor_breakdown(
        len(matched), _chunk_count(matched), len(ct), len(rt), penalty_exponent
    )


def meteor_corpus(
    cands,
    refs,
    lexicon: Optional[SynonymLexicon] = None,
    penalty_exponent: int = 1,
    stemmer: Optional[Stemmer] = None,
) -> MeteorBreakdown:
    """Corpus METEOR: match counts, token totals, and chunk counts pool
    over segments before the formula applies. Uses each segment's first
    reference."""
    cand_toks, ref_toks = _normalize_corpus(cands, refs)
    m_u = chunks = cand_total = ref_total = 0
    for cand, group in zip(cand_toks, ref_toks):
        seg = meteor(
            cand, group[0], lexicon=lexicon,
            penalty_exponent=penalty_exponent, stemmer=stemmer,
        )
        m_u += seg.matches
        chunks += seg.chunks
        cand_total += len(cand)
        ref_total += len(group[0])
    return _meteor_breakdown(m_u, chunks, cand_total, ref_total, penalty_exponent)


def metric_report(
    cands,
    refs,
    metrics=METRIC_NAMES,
    bleu_params: Optional[BleuParams] = None,
    nist_order: int = 5,
    lexicon: Optional[SynonymLexicon] = None,
    meteor_penalty_exponent: int = 1,
) -> dict:
    """Score a candidate corpus and build a JSON-ready report.

    Every requested metric contributes its breakdown; BLEU, TER, and METEOR
    also carry the x100 percentage form.
    """
    for name in metrics:
        if name not in METRIC_NAMES:
            known = ", ".join(METRIC_NAMES)
            raise ConfigError(f"unknown metric {name!r} (known: {known})")
    report: dict = {}
    if "bleu" in metrics:
        b = bleu(cands, refs, bleu_params)
        report["bleu"] = {
            "score": b.score,
            "percent": 100.0 * b.score,
            "precisions": list(b.precisions),
            "brevity_penalty": b.brevity,
            "cand_len": b.cand_len,
            "ref_len": b.ref_len,
        }
    if "nist" in metrics:
        report["nist"] = {"score": nist(cands, refs, order=nist_order)}
    if "ter" in metrics:
        t = ter_corpus(cands, refs)
        report["ter"] = {
            "score": t.score,
            "percent": 100.0 * t.score,
            "edits": t.edits,
            "shifts": t.shifts,
            "ref_len": t.ref_len,
        }
    if "meteor" in metrics:
        m = meteor_corpus(
            cands, refs, lexicon=lexicon,
            penalty_exponent=meteor_penalty_exponent,
        )
        report["meteor"] = {
            "score": m.score,
            "percent": 100.0 * m.score,
            "matches": m.matches,
            "chunks": m.chunks,
            "precision": m.precision,
            "recall": m.recall,
            "penalty": m.penalty,
        }
    return report
