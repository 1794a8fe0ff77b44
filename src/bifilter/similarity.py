"""Sentence-pair similarity scoring.

The comparator chain scores a pair tier by tier, fast-first, each tier with
its own acceptance threshold. Three comparators are registered: "overlap"
(multiset overlap of the stopword-filtered tokens), "ratio" (the
matching-block ratio of the filtered sentences) and "synonym_ratio" (the
best ratio over single-substitution synonym variants). Each works on
PreparedSentence objects and is reached through chain_evaluate or the
COMPARATORS registry. ratio(a, b) is the block-matching measure on two
plain sequences (strings or token tuples).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ._records import read_rows
from .errors import ConfigError, _at_least, _fraction
from .textnorm import (
    StopList,
    SynonymLexicon,
    expand_variants,
    remove_stopwords,
    tokenize,
)

__all__ = [
    "RatioBreakdown",
    "ComparatorChain",
    "ChainDecision",
    "ChainContext",
    "PreparedSentence",
    "ratio",
    "chain_evaluate",
    "load_chain_file",
    "register_comparator",
    "COMPARATORS",
    "DEFAULT_CHAIN",
]


def _longest_match(a: str, b: str, alo: int, ahi: int, blo: int, bhi: int):
    """Longest common contiguous block inside the window [alo,ahi)x[blo,bhi).

    For each start i in turn, one str.find (in C) asks whether
    a[i:i+size+1] occurs in b[blo:bhi], size being the incumbent's length;
    the scan stops once no longer block fits. When it occurs, the block
    at i grows by galloping (Bentley & Yao 1976): the length doubles its
    step while the prefix still occurs, then bisects. Every prefix of an
    occurring string occurs too, so this finds the longest in O(log L)
    finds. A longer prefix's leftmost occurrence is at or after the
    shorter one's, so each find starts there. Only a strictly longer
    block replaces the incumbent, so the tie-break is smallest a_start,
    then smallest b_start (the leftmost occurrence).
    """
    besti = bestsize = 0
    bestj = blo
    find = b.find
    for i in range(alo, ahi):
        limit = min(ahi - i, bhi - blo)
        if limit <= bestsize:
            break
        at = find(a[i:i + bestsize + 1], blo, bhi)
        if at < 0:
            continue
        # a[i:i+good] occurs, leftmost at `at`; a[i:i+bad] does not
        good, bad, step = bestsize + 1, limit + 1, 1
        while good < limit:
            k = min(good + step, limit)
            p = find(a[i:i + k], at, bhi)
            if p < 0:
                bad = k
                break
            good, at, step = k, p, 2 * step
        while bad - good > 1:
            k = (good + bad) // 2
            p = find(a[i:i + k], at, bhi)
            if p < 0:
                bad = k
            else:
                good, at = k, p
        besti, bestj, bestsize = i, at, good
    return besti, bestj, bestsize


def _decompose(a: str, b: str):
    """Recursive longest-common-block decomposition of a against b.

    The longest common block is taken (ties as in _longest_match), then the
    regions to its left and right are decomposed the same way. Returns
    (matches, score): the summed block lengths and
    score = 2.0 * matches / (len(a) + len(b)), 1.0 when both are empty.
    """
    t = len(a) + len(b)
    if t == 0:
        return 0, 1.0
    m = 0
    stack = [(0, len(a), 0, len(b))]
    while stack:
        alo, ahi, blo, bhi = stack.pop()
        i, j, k = _longest_match(a, b, alo, ahi, blo, bhi)
        if k:
            m += k
            if alo < i and blo < j:
                stack.append((alo, i, blo, j))
            if i + k < ahi and j + k < bhi:
                stack.append((i + k, ahi, j + k, bhi))
    return m, 2.0 * m / t


def _build_masks(b) -> dict:
    """Per-symbol bitmasks of b: bit j of masks[x] is set when b[j] == x."""
    masks: dict = {}
    for j, elem in enumerate(b):
        masks[elem] = masks.get(elem, 0) | (1 << j)
    return masks


def _lcs_run(masks: dict, full: int, a) -> int:
    """The word-parallel LCS recurrence (Allison & Dix 1986; Hyyrö 2004) of
    a against the sequence whose bitmasks are masks: V starts as full, each
    unit x of a applies u = V & masks[x]; V = ((V + u) | (V - u)) & full,
    and the final V is returned. Inside full, each zero bit of V is one unit
    of the longest common subsequence.

    full may hold several sequences, each followed by a zero guard bit that
    no mask sets (Hyyrö, Fredriksson & Navarro 2005). u is a submask of V,
    so V - u never borrows; only V + u carries, and a carry out of a
    sequence stops in its guard bit, which & full clears again. Each
    sequence's bits therefore evolve as they would on their own.
    """
    v = full
    get = masks.get
    for x in a:
        u = v & get(x, 0)
        if u:
            v = ((v + u) | (v - u)) & full
    return v


@dataclass(frozen=True)
class RatioBreakdown:
    """matches = summed block lengths, total = combined sequence length."""

    matches: int
    total: int
    score: float


def ratio(a, b) -> RatioBreakdown:
    """Matching-block similarity of two sequences: 2.0 * matches / total.

    Accepts two strings (character elements) or two token tuples (any
    hashable elements, at most 1,114,112 distinct ones). 1.0 for identical
    sequences (two empty sequences count as identical), 0.0 when nothing
    matches. Arguments are compared in canonical (sorted) order, which
    makes the score symmetric even though the block tie-break is
    order-sensitive.
    """
    if b < a:
        a, b = b, a
    if not (isinstance(a, str) and isinstance(b, str)):
        # one code point per distinct element, in first-seen order
        codes: dict = {}
        a, b = ("".join([chr(codes.setdefault(x, len(codes))) for x in seq])
                for seq in (a, b))
    m, score = _decompose(a, b)
    return RatioBreakdown(matches=m, total=len(a) + len(b), score=score)


class PreparedSentence:
    """Per-sentence data the comparators reuse across many pair scorings.

    Holds the raw sentence text, its stopword-filtered content tokens,
    their space-joined string, which the ratio-family comparators compare
    character by character, and a token Counter. Nothing else is kept:
    LCS bitmasks live in PackedStrings (a ChainContext's line pack and
    row chunks), and the block decomposition searches the strings
    themselves.
    """

    __slots__ = ("text", "tokens", "joined", "counts")

    def __init__(self, text: str, tokens: tuple[str, ...]):
        self.text = text
        self.tokens = tokens
        self.joined = " ".join(tokens)
        self.counts = Counter(tokens)


class PackedStrings:
    """Strings laid end to end in one bit vector, each followed by one zero
    guard bit, so that one _lcs_run pass gives the LCS length of a string
    against every one of them. strings holds them, in order, and index
    maps each distinct one to a position where it stands. Their bitmasks
    are built by the first lcs_lengths call (masks is None until then), so
    a pack no pass reads costs no mask. The last pass's answer is kept, so
    asking again for the same string runs no pass."""

    __slots__ = ("strings", "index", "masks", "full", "_spans", "_last")

    def __init__(self, strings):
        self.strings = tuple(strings)
        self.index = {s: k for k, s in enumerate(self.strings)}
        self.masks: dict | None = None
        full = off = 0
        spans = []
        for s in self.strings:
            ones = (1 << len(s)) - 1
            full |= ones << off
            spans.append((off, ones))
            off += len(s) + 1
        self.full = full
        self._spans = spans
        self._last: tuple[str, list[int]] | None = None

    def lcs_lengths(self, a: str) -> list[int]:
        """LCS length of a against each string, in order."""
        last = self._last
        if last is not None and last[0] == a:
            return last[1]
        masks = self.masks
        if masks is None:
            masks = {}
            for s, (off, _) in zip(self.strings, self._spans):
                if off:
                    for x, m in _build_masks(s).items():
                        masks[x] = masks.get(x, 0) | (m << off)
                else:
                    masks = _build_masks(s)  # unshifted, so used as built
            self.masks = masks
        matched = self.full ^ _lcs_run(masks, self.full, a)
        lengths = [((matched >> off) & ones).bit_count() for off, ones in self._spans]
        self._last = (a, lengths)
        return lengths


class _PairScratch:
    """The pair chain_evaluate is scoring: its two prepared sentences, the
    floor below which the ratio-family scores may be LCS upper bounds
    (0.0 for exact=True), the base ratio once a comparator has computed
    it, and plausible: set once a tier that did not accept still scored
    at or above the floor. The base ratio of a plausible pair is computed
    exactly, with no gate: such pairs nearly always reach the floor, so
    their pass would only delay the exact ratio."""

    __slots__ = ("pa", "pb", "floor", "base", "plausible")

    def __init__(self, pa: PreparedSentence, pb: PreparedSentence, floor: float):
        self.pa = pa
        self.pb = pb
        self.floor = floor
        self.base: float | None = None
        self.plausible = False


class ChainContext:
    """Shared comparator state: stoplist, synonym lexicon, variant cap, a
    cache of prepared sentences keyed by raw text (forget drops entries), a
    chunk table holding the content tokens of each whitespace-separated
    chunk prepare has seen as one tuple, whose strings every sentence
    holding the chunk shares (never forgotten), the scratch record of the
    pair chain_evaluate is scoring, and one first side: the last first
    sentence a gate or a bound saw, its line pack (its joined string and
    those of its synonym variants, packed), its character counts and its
    row chunks. The record and the first side make a context unsafe for
    concurrent chain_evaluate calls; the stoplist must not change while
    the context is in use, since the chunk table keeps what it removed,
    and the lexicon and variant cap must not change while it is scoring.

    Row chunks (set_row) serve a caller that scores one sentence against
    a window of targets: PackedStrings of joined target strings, from
    which the base ratio's gate reads its LCS lengths. A pair with another
    first side drops them. Each pass is kept by its pack, so a chunk runs
    it when the gate first reads a string in it, and again only after a
    pass for another sentence.
    """

    def __init__(
        self,
        stoplist: StopList | None = None,
        lexicon: SynonymLexicon | None = None,
        variant_cap: int = 64,
    ):
        _at_least("variant cap", variant_cap, 1)
        self.stoplist = stoplist if stoplist is not None else StopList(frozenset())
        self.lexicon = lexicon if lexicon is not None else SynonymLexicon()
        self.variant_cap = variant_cap
        self._prepared: dict[str, PreparedSentence] = {}
        self._chunks: dict[str, tuple[str, ...]] = {}
        self._pair: _PairScratch | None = None
        # [sentence, line pack, counts, row chunks]; None until asked for
        self._first: list = [None, None, None, ()]

    def prepare(self, sentence: str) -> PreparedSentence:
        hit = self._prepared.get(sentence)
        if hit is None:
            # tokenize peels and folds each chunk on its own, and
            # remove_stopwords judges each token on its own, so a
            # sentence's tokens are its chunks' tokens in order
            chunks = self._chunks
            tokens: list[str] = []
            for chunk in sentence.split():
                words = chunks.get(chunk)
                if words is None:
                    words = tuple(remove_stopwords(tokenize(chunk), self.stoplist))
                    # a chunk that is its own word is keyed by that word, so the
                    # key and the token are one string
                    chunks[words[0] if words == (chunk,) else chunk] = words
                tokens += words
            hit = PreparedSentence(sentence, tuple(tokens))
            self._prepared[sentence] = hit
        return hit

    def forget(self, sentence: str) -> None:
        """Drop the cached preparation of sentence, if any; a later prepare
        of the same text builds an equal one again."""
        self._prepared.pop(sentence, None)

    def _side(self, p: PreparedSentence) -> list:
        """The first side, emptied for p when it is not p's (by identity). A
        filter scores a line's pairs, then its contests, before the next."""
        first = self._first
        if first[0] is not p:
            first = self._first = [p, None, None, ()]
        return first

    def _line_pack(self, p: PreparedSentence) -> PackedStrings:
        """The joined strings of p and of its synonym variants, p's first."""
        first = self._side(p)
        if first[1] is None:
            variants = [p.tokens]
            if len(self.lexicon):
                variants = expand_variants(p.tokens, self.lexicon, self.variant_cap)
            first[1] = PackedStrings([" ".join(v) for v in variants])
        return first[1]

    def _line_counts(self, p: PreparedSentence) -> Counter:
        """The character counts of p's joined string."""
        first = self._side(p)
        if first[2] is None:
            first[2] = Counter(p.joined)
        return first[2]

    def set_row(self, p: PreparedSentence, chunks) -> None:
        """Make p the first side, with chunks (PackedStrings) as its row."""
        self._side(p)[3] = tuple(chunks)

    def _lcs(self, p: PreparedSentence, s: str) -> int:
        """LCS length of s against p.joined: from the row chunk holding s,
        if one does, otherwise from p's line pack."""
        for chunk in self._side(p)[3]:
            pos = chunk.index.get(s)
            if pos is not None:
                return chunk.lcs_lengths(p.joined)[pos]
        return self._line_pack(p).lcs_lengths(s)[0]


def _tier(comp, threshold) -> tuple[str, float]:
    """A chain tier as (registered comparator id, threshold in [0, 1]);
    ConfigError otherwise."""
    comp = str(comp)
    if comp not in COMPARATORS:
        known = ", ".join(sorted(COMPARATORS))
        raise ConfigError(f"unknown comparator {comp!r} (registered: {known})")
    return comp, _fraction(threshold, f"tier threshold for {comp!r}")


@dataclass(frozen=True)
class ComparatorChain:
    """Ordered (comparator id, acceptance threshold) tiers, fast-first.

    final_threshold is the last-resort acceptance bound applied to the last
    tier's score when no tier accepted outright.
    """

    tiers: tuple[tuple[str, float], ...]
    final_threshold: float = 0.55
    # min(final_threshold, every tier threshold), set by __post_init__.
    # Every accepted score is at least this, so a score below it decides
    # nothing by its value.
    floor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.tiers:
            raise ConfigError("comparator chain needs at least one tier")
        tiers = [_tier(comp, thr) for comp, thr in self.tiers]
        final = _fraction(self.final_threshold, "final_threshold")
        object.__setattr__(self, "tiers", tuple(tiers))
        object.__setattr__(self, "final_threshold", final)
        object.__setattr__(self, "floor", min(final, *(thr for _, thr in tiers)))


@dataclass(frozen=True)
class ChainDecision:
    """Outcome of chain_evaluate. score is the deciding tier's score; it is
    exact when it is at least the chain's floor. Below the floor it may be
    an upper bound that is itself below the floor, unless chain_evaluate
    ran with exact=True."""

    accepted: bool
    score: float
    tier: int
    comparator: str


Comparator = Callable[
    [PreparedSentence, PreparedSentence, ChainContext, ComparatorChain], float
]

COMPARATORS: dict[str, Comparator] = {}


def register_comparator(name: str, fn: Comparator, replace: bool = False) -> None:
    """Add a comparator to the registry used by chain validation.

    Registered names become valid in chain configs. A comparator's score
    must lie in [0, 1]: chain_evaluate raises ValueError naming the
    comparator for any other score, NaN included, since no score may
    exceed the 1.0 that a filter's bounds assume. Re-registering an
    existing name requires replace=True.

    A comparator may carry a bound attribute, as the built-in ones do:
    bound(pa, pb, ctx, lead) returns an upper bound on the score the
    comparator gives the pair, inside chain_evaluate or with exact=True.
    It may stop at its first check that settles whether the score can
    exceed lead, so a value above lead may be loose, up to 1.0. A chain
    with a tier whose comparator has no bound has no chain_bound, so
    align_filter scores its pairs as it would without bounds.
    """
    if name in COMPARATORS and not replace:
        raise ConfigError(f"comparator {name!r} already registered")
    COMPARATORS[name] = fn


def _gated_ratio(a: str, b: str, floor: float = 0.0, lcs: int | None = None) -> float:
    """ratio(a, b).score, or its LCS upper bound 2.0 * LCS / total when
    floor > 0 and that bound is below floor. lcs is the LCS length of a
    and b, read only when floor > 0.

    The blocks of the decomposition form a common subsequence, so their
    total is at most the LCS length and, with the score's own float
    expression, the bound is never below the exact score: an exact score
    equal to floor is never gated. floor 0 never gates.
    """
    t = len(a) + len(b)
    if floor > 0.0 and t:
        bound = 2.0 * lcs / t
        if bound < floor:
            return bound
    return ratio(a, b).score


def _scratch(ctx: ChainContext, pa, pb) -> _PairScratch:
    """ctx's record of the pair chain_evaluate is scoring, if it is (pa, pb);
    otherwise a new record with floor 0, so the scores are exact."""
    rec = ctx._pair
    if rec is None or rec.pa is not pa or rec.pb is not pb:
        rec = _PairScratch(pa, pb, 0.0)
    return rec


def _cmp_overlap(pa, pb, ctx, chain) -> float:
    """Multiset overlap of the content tokens: 2 * |common| / (|a| + |b|).
    A word repeated on one side counts only as often as it appears on both.
    Both sides empty scores 1.0, exactly one side empty 0.0."""
    na, nb = len(pa.tokens), len(pb.tokens)
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    ca, cb = pa.counts, pb.counts
    # When one side repeats no token, each token both sides hold counts
    # once: the size of the key sets' intersection.
    if len(ca) == na or len(cb) == nb:
        common = len(ca.keys() & cb.keys())
    else:
        common = sum((ca & cb).values())
    return 2.0 * common / (na + nb)


def _cmp_ratio(pa, pb, ctx, chain) -> float:
    """The ratio of the pair's joined content strings. Inside chain_evaluate it
    is computed once per pair, replaced by its LCS bound when that is below
    the floor, and the synonym tier reuses it; any other caller gets the
    exact value, and so does a pair an earlier tier scored at or above the
    floor. The gate takes the LCS length from a's row chunks when one holds
    b, otherwise from a pass of b through a's line pack."""
    rec = _scratch(ctx, pa, pb)
    if rec.base is None:
        floor = 0.0 if rec.plausible else rec.floor
        lcs = ctx._lcs(pa, pb.joined) if floor > 0.0 else None
        rec.base = _gated_ratio(pa.joined, pb.joined, floor, lcs)
    return rec.base


def _cmp_synonym_ratio(pa, pb, ctx, chain) -> float:
    """Best ratio over the single-substitution synonym variants of a's
    content tokens. The unchanged sentence is variant zero, so the score
    is never below the ratio tier's; each other variant's joined string is
    scored against b's with ratio. Inside chain_evaluate a variant whose LCS
    bound against b's joined string is below the floor scores that bound;
    one pass of b through a's line pack, shared with the base ratio's gate
    when that ran it, gives every variant's LCS length."""
    best = _cmp_ratio(pa, pb, ctx, chain)
    if best >= 1.0 or len(ctx.lexicon) == 0:
        return best
    pack = ctx._line_pack(pa)
    if len(pack.strings) == 1:
        return best
    floor = _scratch(ctx, pa, pb).floor
    lcs = pack.lcs_lengths(pb.joined) if floor > 0.0 else [None] * len(pack.strings)
    for variant, n in zip(pack.strings[1:], lcs[1:]):
        score = _gated_ratio(variant, pb.joined, floor, n)
        if score > best:
            best = score
            if best >= 1.0:
                break
    return best


def _length_bound(na: int, nb: int) -> float:
    """2 * min(na, nb) / (na + nb), 1.0 when both are 0: two sequences of
    these lengths share no more elements than the shorter holds."""
    t = na + nb
    return 2.0 * min(na, nb) / t if t else 1.0


def _bound_overlap(pa, pb, ctx, lead) -> float:
    """The token-count bound, then, when that exceeds lead, the overlap
    itself, which needs no more than the token Counters."""
    bound = _length_bound(len(pa.tokens), len(pb.tokens))
    return bound if bound <= lead else _cmp_overlap(pa, pb, ctx, None)


def _bound_ratios(pa, pb, ctx, lead) -> float:
    """The bound of the ratio and synonym_ratio tiers: the
    character-length bound of the joined strings and, when that exceeds
    lead, their character-bag bound 2 * sum_c min(count_a(c), count_b(c))
    / total.

    The blocks of a decomposition form a common subsequence, and a common
    subsequence holds each character at most as often as either side, so
    matches <= LCS <= bag: the bound is never below the ratio nor below
    its LCS gate value. Without a lexicon the synonym score is the
    ratio's, so one bound serves both tiers and chain_bound runs it once.
    With a lexicon the bound is 1.0, so every pair is scored."""
    if len(ctx.lexicon):
        return 1.0
    a, b = pa.joined, pb.joined
    bound = _length_bound(len(a), len(b))
    if bound <= lead or not b:
        return bound
    common = 0
    for c, n in ctx._line_counts(pa).items():
        k = b.count(c)
        common += n if n < k else k
    return 2.0 * common / (len(a) + len(b))


_cmp_overlap.bound = _bound_overlap
_cmp_ratio.bound = _bound_ratios
_cmp_synonym_ratio.bound = _bound_ratios
register_comparator("overlap", _cmp_overlap)
register_comparator("ratio", _cmp_ratio)
register_comparator("synonym_ratio", _cmp_synonym_ratio)

DEFAULT_CHAIN = ComparatorChain(
    tiers=(("overlap", 0.99), ("ratio", 0.90), ("synonym_ratio", 0.75)),
    final_threshold=0.55,
)


def chain_evaluate(
    a: str, b: str, chain: ComparatorChain, context: ChainContext,
    *, exact: bool = False,
) -> ChainDecision:
    """Score a sentence pair through the chain, stopping at the first tier
    whose score reaches its threshold.

    When no tier accepts outright, the last tier's score is judged against
    final_threshold as the last resort. The decision carries the score and
    index of whichever tier decided.

    The ratio-family tiers share one base ratio per pair. Each of their
    scores, the base and every synonym variant, first goes through an LCS
    gate: when 2.0 * LCS / total is below chain.floor, that bound is the
    score and the block decomposition does not run. The base ratio of a
    pair that an earlier tier scored at or above chain.floor skips the
    gate and is computed exactly. Decisions are the same
    either way; a score below the floor may then be an upper bound (still
    below the floor). exact=True computes every score in full, for callers
    that use rejected scores, such as an alignment objective. A comparator
    score outside [0, 1], or NaN, raises ValueError.
    """
    pa = context.prepare(a)
    pb = context.prepare(b)
    rec = context._pair = _PairScratch(pa, pb, 0.0 if exact else chain.floor)
    try:
        score = 0.0
        comp_id = chain.tiers[-1][0]
        for idx, (comp_id, threshold) in enumerate(chain.tiers):
            score = COMPARATORS[comp_id](pa, pb, context, chain)
            if not 0.0 <= score <= 1.0:
                raise ValueError(
                    f"comparator {comp_id!r} returned {score!r}, outside [0, 1]")
            if score >= threshold:
                return ChainDecision(True, score, idx, comp_id)
            if score >= chain.floor:
                rec.plausible = True
        last = len(chain.tiers) - 1
        return ChainDecision(score >= chain.final_threshold, score, last, comp_id)
    finally:
        context._pair = None


def chain_bound(chain: ComparatorChain,
                context: ChainContext) -> Callable[[str, str, float], float] | None:
    """A function bound(a, b, lead) giving an upper bound on
    chain_evaluate(a, b, chain, context).score, with or without
    exact=True, that runs no comparator: the largest of the tiers'
    comparator bounds, each run once however many tiers share it, and
    1.0 once one of them exceeds lead, since the pair must then be scored
    anyway.

    The bounds are those of the comparators registered when chain_bound
    is called. None, when some tier's bound is 1.0 for every pair: its
    comparator has no bound attribute (see register_comparator), or it is
    a ratio tier and the context has a lexicon.
    """
    bounds = tuple(dict.fromkeys(getattr(COMPARATORS[comp_id], "bound", None)
                                 for comp_id, _ in chain.tiers))
    if None in bounds or (_bound_ratios in bounds and len(context.lexicon)):
        return None

    def bound(a: str, b: str, lead: float) -> float:
        pa = context.prepare(a)
        pb = context.prepare(b)
        best = 0.0
        for tier_bound in bounds:
            value = tier_bound(pa, pb, context, lead)
            if value > lead:
                return 1.0
            if value > best:
                best = value
        return best

    return bound


def load_chain_file(path: str | Path) -> ComparatorChain:
    """Parse a chain config file.

    Format, one directive per line ('#' starts a comment):

        tier <comparator> <threshold>     # repeated, in tier order
        final_threshold <x>               # optional, default 0.55

    Every error in a line is a ConfigError that starts with path:lineno.
    """
    tiers: list[tuple[str, float]] = []
    final_threshold = 0.55

    def directive(line: str) -> None:
        nonlocal final_threshold
        parts = line.split("#", 1)[0].split()
        key = parts[0]
        if key == "tier":
            if len(parts) != 3:
                raise ConfigError("expected 'tier <comparator> <threshold>'")
            tiers.append(_tier(parts[1], parts[2]))
        elif key == "final_threshold":
            if len(parts) != 2:
                raise ConfigError("expected 'final_threshold <x>'")
            final_threshold = _fraction(parts[1], "final_threshold")
        else:
            raise ConfigError(f"unknown directive {key!r}")

    read_rows(path, "chain config", convert=directive, error=ConfigError)
    if not tiers:
        raise ConfigError(f"{path}: no 'tier' lines; the chain needs at least one")
    return ComparatorChain(tiers=tuple(tiers), final_threshold=final_threshold)
