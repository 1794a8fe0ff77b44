"""Sentence-pair similarity scoring.

Provides the matching-block ratio, a multiset token-overlap measure, a
synonym-expanded ratio, and the tiered comparator chain that runs them
fast-first with per-tier acceptance thresholds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError
from .textnorm import (
    StopList,
    SynonymLexicon,
    TokenSeq,
    expand_variants,
    remove_stopwords,
    tokenize,
)

__all__ = [
    "MatchingBlock",
    "RatioBreakdown",
    "ComparatorChain",
    "ChainDecision",
    "ChainContext",
    "PreparedSentence",
    "matching_blocks",
    "ratio",
    "token_overlap",
    "synonym_ratio",
    "chain_evaluate",
    "load_chain_file",
    "register_comparator",
    "COMPARATORS",
    "DEFAULT_CHAIN",
]


class MatchingBlock(NamedTuple):
    a_start: int
    b_start: int
    length: int


def _elements(x):
    return x.tokens if isinstance(x, TokenSeq) else x


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


def _decompose(a, b2j, alen: int, blen: int, floor: float = 0.0):
    """Blocks of a[:alen] against the sequence indexed by b2j, and the ratio.

    Returns (blocks, score): the blocks sorted by position and
    score = 2.0 * matches / (alen + blen), 1.0 when both are empty. A window
    still on the stack can add at most min(its two widths) matches, so
    2.0 * (matches + that sum) / total bounds the final score from above.
    Once the bound falls below floor the loop stops and returns the blocks
    found so far with the bound as the score. It is tested with the same
    float expression as the score, so an exact score equal to floor is
    never cut short. floor 0 never stops.
    """
    t = alen + blen
    if t == 0:
        return [], 1.0
    blocks: list[MatchingBlock] = []
    m = 0
    rem = min(alen, blen)
    stack = [(0, alen, 0, blen)]
    while stack:
        if 2.0 * (m + rem) / t < floor:
            return blocks, 2.0 * (m + rem) / t
        alo, ahi, blo, bhi = stack.pop()
        rem -= min(ahi - alo, bhi - blo)
        i, j, k = _longest_match(a, b2j, alo, ahi, blo, bhi)
        if k:
            m += k
            blocks.append(MatchingBlock(i, j, k))
            if alo < i and blo < j:
                stack.append((alo, i, blo, j))
                rem += min(i - alo, j - blo)
            if i + k < ahi and j + k < bhi:
                stack.append((i + k, ahi, j + k, bhi))
                rem += min(ahi - i - k, bhi - j - k)
    blocks.sort()
    return blocks, 2.0 * m / t


def matching_blocks(a, b) -> list[MatchingBlock]:
    """Recursive longest-common-block decomposition of two sequences.

    Accepts two strings (character elements) or two token sequences. The
    longest common contiguous block is located (ties: smallest start in
    ``a``, then smallest start in ``b``), then the regions to its left and
    right are decomposed the same way. Blocks come back sorted by position
    and never overlap.
    """
    ea, eb = _elements(a), _elements(b)
    return _decompose(ea, _build_index(eb), len(ea), len(eb))[0]


@dataclass(frozen=True)
class RatioBreakdown:
    """matches = summed block lengths, total = combined sequence length."""

    matches: int
    total: int
    score: float


def ratio(a, b) -> RatioBreakdown:
    """Matching-block similarity: 2.0 * matches / total.

    1.0 for identical sequences (two empty sequences count as identical),
    0.0 when nothing matches. Arguments are compared in canonical
    (lexicographically sorted) order, which makes the score symmetric even
    though the block tie-break is order-sensitive.
    """
    ea, eb = _elements(a), _elements(b)
    if eb < ea:
        ea, eb = eb, ea
    blocks, score = _decompose(ea, _build_index(eb), len(ea), len(eb))
    m = sum(blk.length for blk in blocks)
    return RatioBreakdown(matches=m, total=len(ea) + len(eb), score=score)


def token_overlap(a: TokenSeq, b: TokenSeq, stoplist: StopList) -> float:
    """Multiset token overlap after stopword removal.

    score = 2 * |intersection| / (|a'| + |b'|). The intersection is a
    multiset one, so a word repeated on one side only counts as often as it
    appears on both. Both sides empty after filtering scores 1.0, exactly
    one side empty scores 0.0.
    """
    fa = remove_stopwords(a, stoplist)
    fb = remove_stopwords(b, stoplist)
    na, nb = len(fa.tokens), len(fb.tokens)
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    common = Counter(fa.tokens) & Counter(fb.tokens)
    return 2.0 * sum(common.values()) / (na + nb)


def synonym_ratio(
    a: TokenSeq, b: TokenSeq, lexicon: SynonymLexicon, cap: int = 64
) -> float:
    """Best ratio over single-substitution synonym variants of ``a``.

    Variants are compared against ``b`` as space-joined strings. The
    original sentence is variant zero, so the result is never below
    ratio(a, b) on the same joined strings.
    """
    target = " ".join(b.tokens)
    best = 0.0
    for variant in expand_variants(a, lexicon, cap):
        score = ratio(" ".join(variant.tokens), target).score
        if score > best:
            best = score
            if best >= 1.0:
                break
    return best


class PreparedSentence:
    """Per-sentence data the comparators reuse across many pair scorings.

    Holds the folded token sequence, the stopword-filtered content tokens,
    their space-joined string, a token Counter, and a lazily built
    character position index for block matching.
    """

    __slots__ = ("seq", "content", "joined", "counts", "_b2j")

    def __init__(self, seq: TokenSeq, content: TokenSeq):
        self.seq = seq
        self.content = content
        self.joined = " ".join(content.tokens)
        self.counts = Counter(content.tokens)
        self._b2j = None

    def char_index(self) -> dict:
        if self._b2j is None:
            self._b2j = _build_index(self.joined)
        return self._b2j


class _PairScratch:
    """The pair chain_evaluate is scoring: its two prepared sentences, the
    floor below which scores may be upper bounds, and the base ratio once a
    comparator has computed it."""

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
    unsafe for concurrent chain_evaluate calls."""

    def __init__(
        self,
        stoplist: StopList | None = None,
        lexicon: SynonymLexicon | None = None,
        variant_cap: int = 64,
    ):
        self.stoplist = stoplist if stoplist is not None else StopList(frozenset())
        self.lexicon = lexicon if lexicon is not None else SynonymLexicon()
        self.variant_cap = variant_cap
        self._prepared: dict[str, PreparedSentence] = {}
        self._pair: _PairScratch | None = None

    def prepare(self, sentence: str) -> PreparedSentence:
        hit = self._prepared.get(sentence)
        if hit is None:
            seq = tokenize(sentence)
            hit = PreparedSentence(seq, remove_stopwords(seq, self.stoplist))
            self._prepared[sentence] = hit
        return hit


@dataclass(frozen=True)
class ComparatorChain:
    """Ordered (comparator id, acceptance threshold) tiers, fast-first.

    final_threshold is the last-resort acceptance bound applied to the last
    tier's score when no tier accepted outright. granularity selects what
    the ratio-family comparators operate on: characters of the
    stopword-filtered, space-joined sentence (default) or whole tokens.
    """

    tiers: tuple[tuple[str, float], ...]
    final_threshold: float = 0.55
    granularity: str = "chars"

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
        if self.granularity not in ("chars", "tokens"):
            raise ConfigError(
                f"granularity must be 'chars' or 'tokens', got {self.granularity!r}"
            )

    @property
    def floor(self) -> float:
        """min(final_threshold, every tier threshold). Every accepted score
        is at least this, so a score below it decides nothing by its value."""
        return min(self.final_threshold, *(thr for _, thr in self.tiers))


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


def _ratio_prepared(
    pa: PreparedSentence, pb: PreparedSentence, granularity: str, floor: float = 0.0
) -> float:
    if granularity == "tokens":
        ea, eb = pa.content.tokens, pb.content.tokens
        if eb < ea:
            ea, eb = eb, ea
        return _decompose(ea, _build_index(eb), len(ea), len(eb), floor)[1]
    sa, sb = pa.joined, pb.joined
    if sb < sa:
        pa, pb = pb, pa
        sa, sb = sb, sa
    return _decompose(sa, pb.char_index(), len(sa), len(sb), floor)[1]


def _base_ratio(pa, pb, ctx, chain) -> float:
    """The pair's ratio at the chain's granularity, shared by the
    ratio-family comparators. Inside chain_evaluate it is computed once per
    pair, cut short below the floor; any other caller gets the exact value."""
    rec = ctx._pair
    if rec is None or rec.pa is not pa or rec.pb is not pb:
        return _ratio_prepared(pa, pb, chain.granularity)
    if rec.base is None:
        rec.base = _ratio_prepared(pa, pb, chain.granularity, rec.floor)
    return rec.base


def _cmp_overlap(pa, pb, ctx, chain) -> float:
    na, nb = len(pa.content.tokens), len(pb.content.tokens)
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    common = pa.counts & pb.counts
    return 2.0 * sum(common.values()) / (na + nb)


def _cmp_ratio(pa, pb, ctx, chain) -> float:
    return _base_ratio(pa, pb, ctx, chain)


def _cmp_synonym_ratio(pa, pb, ctx, chain) -> float:
    best = _base_ratio(pa, pb, ctx, chain)
    if best >= 1.0 or len(ctx.lexicon) == 0:
        return best
    for variant in expand_variants(pa.content, ctx.lexicon, ctx.variant_cap)[1:]:
        if chain.granularity == "tokens":
            score = ratio(variant.tokens, pb.content.tokens).score
        else:
            score = ratio(" ".join(variant.tokens), pb.joined).score
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
    granularity="chars",
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

    The ratio-family tiers share one base ratio per pair, and its block
    decomposition stops once it cannot reach chain.floor. Decisions are the
    same either way; a score below the floor may then be an upper bound
    (still below the floor). exact=True computes every score in full, for
    callers that use rejected scores, such as an alignment objective.
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
        granularity chars|tokens          # optional, default chars
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read chain config {path}: {exc}") from exc
    tiers: list[tuple[str, float]] = []
    final_threshold = 0.55
    granularity = "chars"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
        elif key == "granularity":
            if len(parts) != 2:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'granularity chars|tokens'"
                )
            granularity = parts[1]
        else:
            raise ConfigError(f"{path}:{lineno}: unknown directive {key!r}")
    if not tiers:
        raise ConfigError(f"{path}: no 'tier' lines; the chain needs at least one")
    return ComparatorChain(
        tiers=tuple(tiers),
        final_threshold=final_threshold,
        granularity=granularity,
    )
