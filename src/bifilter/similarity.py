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

from ._records import read_records
from .errors import ConfigError
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
    "PackedTargets",
    "RowLcs",
    "ratio",
    "chain_evaluate",
    "load_chain_file",
    "register_comparator",
    "COMPARATORS",
    "DEFAULT_CHAIN",
]


def _build_index(b) -> dict:
    b2j: dict = {}
    for j, elem in enumerate(b):
        b2j.setdefault(elem, []).append(j)
    return b2j


def _longest_match(a, b2j, alo: int, ahi: int, blo: int, bhi: int):
    """Longest common contiguous block inside the window [alo,ahi)x[blo,bhi).

    Tie-break is smallest a_start, then smallest b_start: same-size blocks
    complete in start order under the ascending row/position scan, and only
    strictly longer blocks replace the incumbent.
    """
    besti = bestj = bestsize = 0
    j2len: dict[int, int] = {}
    for i in range(alo, ahi):
        newj2len: dict[int, int] = {}
        for j in b2j.get(a[i], ()):
            if j < blo:
                continue
            if j >= bhi:
                break
            k = newj2len[j] = j2len.get(j - 1, 0) + 1
            if k > bestsize:
                besti, bestj, bestsize = i - k + 1, j - k + 1, k
        j2len = newj2len
    return besti, bestj, bestsize


def _decompose(a, b2j, alen: int, blen: int):
    """Recursive longest-common-block decomposition of a[:alen] against the
    sequence indexed by b2j.

    The longest common block is taken (ties as in _longest_match), then the
    regions to its left and right are decomposed the same way. Returns
    (matches, score): the summed block lengths and
    score = 2.0 * matches / (alen + blen), 1.0 when both are empty.
    """
    t = alen + blen
    if t == 0:
        return 0, 1.0
    m = 0
    stack = [(0, alen, 0, blen)]
    while stack:
        alo, ahi, blo, bhi = stack.pop()
        i, j, k = _longest_match(a, b2j, alo, ahi, blo, bhi)
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


def _lcs_length(masks: dict, n: int, a) -> int:
    """Length of the longest common subsequence of a and the n-unit sequence
    whose bitmasks are masks: the zero bits of _lcs_run's V."""
    return n - _lcs_run(masks, (1 << n) - 1, a).bit_count()


@dataclass(frozen=True)
class RatioBreakdown:
    """matches = summed block lengths, total = combined sequence length."""

    matches: int
    total: int
    score: float


def ratio(a, b) -> RatioBreakdown:
    """Matching-block similarity of two sequences: 2.0 * matches / total.

    Accepts two strings (character elements) or two token tuples. 1.0 for
    identical sequences (two empty sequences count as identical), 0.0 when
    nothing matches. Arguments are compared in canonical (sorted) order,
    which makes the score symmetric even though the block tie-break is
    order-sensitive.
    """
    if b < a:
        a, b = b, a
    m, score = _decompose(a, _build_index(b), len(a), len(b))
    return RatioBreakdown(matches=m, total=len(a) + len(b), score=score)


class PreparedSentence:
    """Per-sentence data the comparators reuse across many pair scorings.

    Holds the raw sentence text, its stopword-filtered content tokens,
    their space-joined string, which the ratio-family comparators compare
    character by character, and a token Counter. The joined string's
    position index for block matching and its LCS bitmasks are built on
    first use and cached.
    """

    __slots__ = ("text", "tokens", "joined", "counts", "_index", "_masks")

    def __init__(self, text: str, tokens: tuple[str, ...]):
        self.text = text
        self.tokens = tokens
        self.joined = " ".join(tokens)
        self.counts = Counter(tokens)
        self._index: dict | None = None
        self._masks: dict | None = None

    def index(self) -> dict:
        """char -> ascending positions in joined, for _longest_match."""
        if self._index is None:
            self._index = _build_index(self.joined)
        return self._index

    def masks(self) -> dict:
        """char -> bitmask of its positions in joined, for _lcs_length."""
        if self._masks is None:
            self._masks = _build_masks(self.joined)
        return self._masks


class PackedTargets:
    """The joined content strings of a run of prepared sentences laid end
    to end in one bit vector, each followed by one zero guard bit, so that
    one _lcs_run pass gives the LCS length of a string against every one of
    them."""

    __slots__ = ("sentences", "masks", "full", "_spans")

    def __init__(self, sentences):
        self.sentences = tuple(sentences)
        masks: dict = {}
        full = off = 0
        spans = []
        for p in self.sentences:
            n = len(p.joined)
            for x, m in _build_masks(p.joined).items():
                masks[x] = masks.get(x, 0) | (m << off)
            full |= ((1 << n) - 1) << off
            spans.append((off, (1 << n) - 1))
            off += n + 1
        self.masks = masks
        self.full = full
        self._spans = spans

    def lcs_lengths(self, a: str) -> list[int]:
        """LCS length of a against each sentence, in order."""
        matched = self.full ^ _lcs_run(self.masks, self.full, a)
        return [((matched >> off) & ones).bit_count() for off, ones in self._spans]


class RowLcs:
    """LCS lengths of one sentence, text, against a window of prepared
    sentences, from one packed pass per PackedTargets chunk. packs gives
    the chunks; it is called, and the pass run, on the first lookup."""

    __slots__ = ("text", "packs", "_lcs")

    def __init__(self, text: str, packs: Callable[[], list[PackedTargets]]):
        self.text = text
        self.packs = packs
        self._lcs: dict | None = None

    def get(self, pa: PreparedSentence, pb: PreparedSentence) -> int | None:
        """LCS length of pa.joined and pb.joined, when pa is this row's
        sentence and pb is in its window; else None."""
        if pa.text != self.text:
            return None
        if self._lcs is None:
            self._lcs = {}
            for pack in self.packs():
                self._lcs.update(zip(pack.sentences, pack.lcs_lengths(pa.joined)))
        return self._lcs.get(pb)


class _PairScratch:
    """The pair chain_evaluate is scoring: its two prepared sentences, the
    floor below which the ratio-family scores may be LCS upper bounds
    (0.0 for exact=True), and the base ratio once a comparator has
    computed it."""

    __slots__ = ("pa", "pb", "floor", "base")

    def __init__(self, pa: PreparedSentence, pb: PreparedSentence, floor: float):
        self.pa = pa
        self.pb = pb
        self.floor = floor
        self.base: float | None = None


class ChainContext:
    """Shared comparator state: stoplist, synonym lexicon, variant cap, a
    cache of prepared sentences keyed by raw text, and the scratch record
    of the pair chain_evaluate is scoring. That record makes a context
    unsafe for concurrent chain_evaluate calls.

    row, when set, is the RowLcs of the sentence whose window of pairs the
    caller is scoring: the ratio tier's LCS gate then takes its LCS length
    from the row's packed pass instead of running it for the pair alone.
    """

    def __init__(
        self,
        stoplist: StopList | None = None,
        lexicon: SynonymLexicon | None = None,
        variant_cap: int = 64,
    ):
        if variant_cap < 1:
            raise ConfigError(f"variant cap must be >= 1, got {variant_cap}")
        self.stoplist = stoplist if stoplist is not None else StopList(frozenset())
        self.lexicon = lexicon if lexicon is not None else SynonymLexicon()
        self.variant_cap = variant_cap
        self._prepared: dict[str, PreparedSentence] = {}
        self._pair: _PairScratch | None = None
        self.row: RowLcs | None = None

    def prepare(self, sentence: str) -> PreparedSentence:
        hit = self._prepared.get(sentence)
        if hit is None:
            hit = PreparedSentence(
                sentence, remove_stopwords(tokenize(sentence), self.stoplist)
            )
            self._prepared[sentence] = hit
        return hit


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
        tiers = tuple((str(c), float(t)) for c, t in self.tiers)
        object.__setattr__(self, "tiers", tiers)
        if not tiers:
            raise ConfigError("comparator chain needs at least one tier")
        for comp, thr in tiers:
            if comp not in COMPARATORS:
                known = ", ".join(sorted(COMPARATORS))
                raise ConfigError(
                    f"unknown comparator {comp!r} (registered: {known})"
                )
            if not 0.0 <= thr <= 1.0:
                raise ConfigError(
                    f"tier threshold {thr} for {comp!r} outside [0, 1]"
                )
        if not 0.0 <= self.final_threshold <= 1.0:
            raise ConfigError(
                f"final_threshold {self.final_threshold} outside [0, 1]"
            )
        object.__setattr__(
            self, "floor", min(self.final_threshold, *(thr for _, thr in tiers))
        )


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

    Registered names become valid in chain configs; scores must land in
    [0, 1]. Re-registering an existing name requires replace=True.
    """
    if name in COMPARATORS and not replace:
        raise ConfigError(f"comparator {name!r} already registered")
    COMPARATORS[name] = fn


def _lcs_gate(a: str, pb: PreparedSentence, floor: float, lcs: int | None = None):
    """The LCS upper bound 2.0 * LCS / total of a against pb.joined when it
    is below floor, else None. lcs, when given, is that LCS length.

    The blocks of the decomposition form a common subsequence, so their
    total is at most the LCS length and, with the score's own float
    expression, the bound is never below the exact score: an exact score
    equal to floor is never gated. floor 0 never gates.
    """
    if floor <= 0.0:
        return None
    n = len(pb.joined)
    t = len(a) + n
    if t == 0:
        return None
    if lcs is None:
        lcs = _lcs_length(pb.masks(), n, a)
    bound = 2.0 * lcs / t
    return bound if bound < floor else None


def _ratio_prepared(
    pa: PreparedSentence, pb: PreparedSentence, floor: float = 0.0,
    lcs: int | None = None,
) -> float:
    """ratio of the two sentences' joined content strings. The larger one
    in canonical order is indexed, and its cached index and masks are used.
    With floor > 0 the LCS bound is returned when it is below floor;
    otherwise the exact decomposition runs. lcs, when given, is the LCS
    length of the two strings (LCS is symmetric, so either order)."""
    a, b = pa.joined, pb.joined
    if b < a:
        pb, a, b = pa, b, a
    bound = _lcs_gate(a, pb, floor, lcs)
    if bound is not None:
        return bound
    return _decompose(a, pb.index(), len(a), len(b))[1]


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
    exact value. The bound's LCS length comes from ctx.row when the row
    holds the pair."""
    rec = _scratch(ctx, pa, pb)
    if rec is None:
        return _ratio_prepared(pa, pb)
    if rec.base is None:
        row = ctx.row
        lcs = row.get(pa, pb) if row is not None and rec.floor > 0.0 else None
        rec.base = _ratio_prepared(pa, pb, rec.floor, lcs)
    return rec.base


def _cmp_synonym_ratio(pa, pb, ctx, chain) -> float:
    """Best ratio over the single-substitution synonym variants of a's
    content tokens. The unchanged sentence is variant zero, so the score
    is never below the ratio tier's; each other variant's joined string is
    scored against b's with ratio. Inside chain_evaluate a variant whose LCS
    bound against b's cached masks is below the floor scores that bound."""
    best = _cmp_ratio(pa, pb, ctx, chain)
    if best >= 1.0 or len(ctx.lexicon) == 0:
        return best
    rec = _scratch(ctx, pa, pb)
    floor = rec.floor if rec is not None else 0.0
    for variant in expand_variants(pa.tokens, ctx.lexicon, ctx.variant_cap)[1:]:
        joined = " ".join(variant)
        score = _lcs_gate(joined, pb, floor)
        if score is None:
            score = ratio(joined, pb.joined).score
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
    score and the block decomposition does not run. Decisions are the same
    either way; a score below the floor may then be an upper bound (still
    below the floor). The base ratio's LCS length comes from context.row
    when that row holds the pair. exact=True computes every score in full,
    for callers that use rejected scores, such as an alignment objective.
    """
    pa = context.prepare(a)
    pb = context.prepare(b)
    context._pair = _PairScratch(pa, pb, 0.0 if exact else chain.floor)
    try:
        score = 0.0
        comp_id = chain.tiers[-1][0]
        for idx, (comp_id, threshold) in enumerate(chain.tiers):
            score = COMPARATORS[comp_id](pa, pb, context, chain)
            if score >= threshold:
                return ChainDecision(True, score, idx, comp_id)
        last = len(chain.tiers) - 1
        return ChainDecision(score >= chain.final_threshold, score, last, comp_id)
    finally:
        context._pair = None


def _parse_fraction(text: str, path, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: not a number: {text!r}") from None


def load_chain_file(path: str | Path) -> ComparatorChain:
    """Parse a chain config file.

    Format, one directive per line ('#' starts a comment):

        tier <comparator> <threshold>     # repeated, in tier order
        final_threshold <x>               # optional, default 0.55
    """
    tiers: list[tuple[str, float]] = []
    final_threshold = 0.55
    for lineno, line in read_records(path, "chain config", ConfigError):
        parts = line.split("#", 1)[0].split()
        key = parts[0]
        if key == "tier":
            if len(parts) != 3:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'tier <comparator> <threshold>'"
                )
            tiers.append((parts[1], _parse_fraction(parts[2], path, lineno)))
        elif key == "final_threshold":
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'final_threshold <x>'")
            final_threshold = _parse_fraction(parts[1], path, lineno)
        else:
            raise ConfigError(f"{path}:{lineno}: unknown directive {key!r}")
    if not tiers:
        raise ConfigError(f"{path}: no 'tier' lines; the chain needs at least one")
    return ComparatorChain(tiers=tuple(tiers), final_threshold=final_threshold)
