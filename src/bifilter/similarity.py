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
    LCS bitmasks live in PackedStrings (the ChainContext's line slot and
    a caller's row chunks), and the block decomposition searches the
    strings themselves.
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
    a pack no pass reads costs no mask."""

    __slots__ = ("strings", "index", "masks", "full", "_spans")

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

    def lcs_lengths(self, a: str) -> list[int]:
        """LCS length of a against each string, in order."""
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
        return [((matched >> off) & ones).bit_count() for off, ones in self._spans]


class _PairScratch:
    """The pair chain_evaluate is scoring: its two prepared sentences, the
    floor below which the ratio-family scores may be LCS upper bounds
    (0.0 for exact=True), the base ratio once a comparator has computed
    it, the LCS lengths of b's joined string against a's line slot once
    a gate has run that pass, and plausible: set once a tier that did not
    accept still scored at or above the floor. The base ratio of a
    plausible pair is computed exactly, with no gate: such pairs nearly
    always reach the floor, so their pass would only delay the exact
    ratio."""

    __slots__ = ("pa", "pb", "floor", "base", "lcs", "plausible")

    def __init__(self, pa: PreparedSentence, pb: PreparedSentence, floor: float):
        self.pa = pa
        self.pb = pb
        self.floor = floor
        self.base: float | None = None
        self.lcs: list[int] | None = None
        self.plausible = False


class ChainContext:
    """Shared comparator state: stoplist, synonym lexicon, variant cap, a
    cache of prepared sentences keyed by raw text (forget drops entries), a
    chunk table holding the content tokens of each whitespace-separated
    chunk prepare has seen (never forgotten), a word table through which
    equal content tokens of every prepared sentence share one string, the
    scratch record of the pair chain_evaluate is scoring, and one line
    slot: the joined strings of the last first side a pair gate saw and of
    its synonym variants, packed. The record and the slot make a context
    unsafe for concurrent chain_evaluate calls; the stoplist must not
    change while the context is in use, since the chunk table keeps what
    it removed, and the lexicon and variant cap must not change while it
    is scoring.

    The row slot (set_row) serves a caller that scores one sentence
    against a window of targets: it holds that prepared sentence and
    PackedStrings chunks of joined target strings, and the base ratio's
    gate reads its LCS lengths from there for pairs whose first sentence
    is the row's. A chunk's pass runs the first time the gate reads a
    string in it, at most once per set_row.
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
        self._words: dict[str, str] = {}
        self._pair: _PairScratch | None = None
        self._line: tuple[PreparedSentence, PackedStrings] | None = None
        # (sentence, chunks, each chunk's LCS lengths once its pass ran)
        self.row: tuple[PreparedSentence, tuple[PackedStrings, ...], list] | None = None

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
                    word = self._words.setdefault
                    words = tuple([word(t, t)
                                   for t in remove_stopwords(tokenize(chunk), self.stoplist)])
                    # a chunk that is its own word is keyed by the shared word
                    chunks[words[0] if words == (chunk,) else chunk] = words
                tokens += words
            hit = PreparedSentence(sentence, tuple(tokens))
            self._prepared[sentence] = hit
        return hit

    def forget(self, sentence: str) -> None:
        """Drop the cached preparation of sentence, if any; a later prepare
        of the same text builds an equal one again."""
        self._prepared.pop(sentence, None)

    def _line_pack(self, p: PreparedSentence) -> PackedStrings:
        """The joined strings of p and of its synonym variants, p's first,
        packed when p is not the slot's sentence. A filter scores a source
        line's pairs, then its contests, before the next line, so each line
        is packed about once."""
        slot = self._line
        if slot is None or slot[0] is not p:
            variants = [p.tokens]
            if len(self.lexicon):
                variants = expand_variants(p.tokens, self.lexicon, self.variant_cap)
            slot = self._line = (p, PackedStrings([" ".join(v) for v in variants]))
        return slot[1]

    def set_row(self, p: PreparedSentence | None, chunks=()) -> None:
        """Fill the row slot with p and its target chunks (PackedStrings),
        no pass run yet; set_row(None) empties it."""
        chunks = tuple(chunks)
        self.row = None if p is None else (p, chunks, [None] * len(chunks))

    def _row_lcs(self, p: PreparedSentence, s: str) -> int | None:
        """LCS length of s against p.joined from the row slot, running the
        pass of the chunk holding s if it has not run; None when the slot
        is not p's (by identity) or no chunk holds s."""
        row = self.row
        if row is None or row[0] is not p:
            return None
        _, chunks, passes = row
        for k, chunk in enumerate(chunks):
            pos = chunk.index.get(s)
            if pos is not None:
                if passes[k] is None:
                    passes[k] = chunk.lcs_lengths(p.joined)
                return passes[k][pos]
        return None


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
    comparator for any other score, NaN included, since a filter takes a
    candidate scoring 1.0 as unbeatable. Re-registering an existing name
    requires replace=True.
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


def _scratch(ctx: ChainContext, pa, pb) -> _PairScratch | None:
    """ctx's record of the pair chain_evaluate is scoring, if it is (pa, pb)."""
    rec = ctx._pair
    return rec if rec is not None and rec.pa is pa and rec.pb is pb else None


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
    floor. The gate takes the LCS length from ctx's row slot when the row
    is a's and holds b, otherwise from a pass of b through a's line slot."""
    rec = _scratch(ctx, pa, pb)
    if rec is None:
        return _gated_ratio(pa.joined, pb.joined)
    if rec.base is None:
        floor = 0.0 if rec.plausible else rec.floor
        lcs = None
        if floor > 0.0:
            lcs = ctx._row_lcs(pa, pb.joined)
            if lcs is None:
                rec.lcs = ctx._line_pack(pa).lcs_lengths(pb.joined)
                lcs = rec.lcs[0]
        rec.base = _gated_ratio(pa.joined, pb.joined, floor, lcs)
    return rec.base


def _cmp_synonym_ratio(pa, pb, ctx, chain) -> float:
    """Best ratio over the single-substitution synonym variants of a's
    content tokens. The unchanged sentence is variant zero, so the score
    is never below the ratio tier's; each other variant's joined string is
    scored against b's with ratio. Inside chain_evaluate a variant whose LCS
    bound against b's joined string is below the floor scores that bound;
    one pass of b through a's line slot, shared with the base ratio's gate
    when that ran it, gives every variant's LCS length."""
    best = _cmp_ratio(pa, pb, ctx, chain)
    if best >= 1.0 or len(ctx.lexicon) == 0:
        return best
    rec = _scratch(ctx, pa, pb)
    floor = rec.floor if rec is not None else 0.0
    pack = ctx._line_pack(pa)
    if len(pack.strings) == 1:
        return best
    if floor == 0.0:
        lcs = [None] * len(pack.strings)
    else:
        lcs = rec.lcs or pack.lcs_lengths(pb.joined)
    for variant, n in zip(pack.strings[1:], lcs[1:]):
        score = _gated_ratio(variant, pb.joined, floor, n)
        if score > best:
            best = score
            if best >= 1.0:
                break
    return best


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
    below the floor). The base ratio's LCS length comes from context's row
    slot when the row's sentence is a's and the row holds b. exact=True
    computes every score in full, for callers that use rejected scores,
    such as an alignment objective. A comparator score outside [0, 1], or
    NaN, raises ValueError.
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
