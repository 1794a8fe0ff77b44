"""Noisy-bitext filtering.

Matches every translated source line against candidate target lines near the
corpus diagonal, scoring pairs through the comparator chain. Before a line
commits to a candidate, nearby later lines may claim that candidate by
scoring strictly higher on it (the lookahead rule); displaced lines retry in
bounded displacement rounds, and whatever remains contested is resolved
first-come without vetoes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ._records import read_rows
from .corpus_io import Bitext
from .errors import ConfigError, DataError, _at_least, _index
from .similarity import (
    ChainContext,
    ChainDecision,
    ComparatorChain,
    PackedStrings,
    chain_bound,
    chain_evaluate,
)

__all__ = [
    "FilterConfig",
    "FilterResult",
    "FilterQuality",
    "align_filter",
    "evaluate_filtering",
    "load_gold_labels",
]


# A row of at least this many open candidates gets its LCS gate values from
# the packed passes of its chunks; smaller rows gate each pair through the
# source line's own pack. With a minimum of 3 / 4 / 8, align_filter on the
# benchmark's seed-0 inputs took a median 564 / 500 / 507 ms of CPU on
# filter-narrow-10k (window 1, rows of at most three) and 182 / 183 / 184 ms
# on filter-wide-1k (window 30); 9 rounds, values alternating, 2 vCPUs,
# Python 3.11. Packing rows of three is slower; 4 and 8 differ only in rows
# of 4-7 candidates, which neither workload has many of.
_PACKED_ROW_MIN = 4
# Target lines per PackedStrings chunk. Chunks start at multiples of this
# and are shared by the consecutive rows whose windows cover them; a chunk
# runs its pass when a gate reads a target in it. On filter-wide-1k,
# align_filter took a median 181 / 177 / 181 ms of CPU with chunks of 16 /
# 32 / 64 (21 rounds as above), all inside the quartiles of 16, 171-192 ms.
_PACK_CHUNK = 16


@dataclass(frozen=True)
class FilterConfig:
    """Filter parameters.

    window is the candidate search half-width around the diagonal position
    (None searches every target line, and so does any window at or above
    the number of target lines). lookahead is how many subsequent
    source lines may contest a candidate before it is committed.
    displacement_rounds bounds the veto-and-retry iterations; contested
    leftovers then resolve first-come. context supplies the stoplist,
    synonym lexicon, and sentence cache for the chain comparators;
    align_filter makes its cache forget each matched line's translation
    and, unless allow_reuse, the target line it took.
    """

    chain: ComparatorChain
    window: Optional[int] = 30
    lookahead: int = 1
    allow_reuse: bool = False
    displacement_rounds: int = 3
    context: Optional[ChainContext] = None

    def __post_init__(self):
        if self.window is not None:
            _at_least("window", self.window, 0)
        _at_least("lookahead", self.lookahead, 0)
        _at_least("displacement_rounds", self.displacement_rounds, 0)


@dataclass(frozen=True)
class FilterResult:
    """accepted rows are (src_idx, tgt_idx, score, tier); dropped_src rows
    are (src_idx, best score seen for that line).

    Accepted scores are exact. A dropped line's best score is exact when it
    is at least the chain's floor (ComparatorChain.floor); below the floor
    it may be an upper bound on the exact best score, still below the floor.

    A source line is settled when it is matched, or when one of its
    attempts finds no accepted candidate among its open targets before
    any veto: those targets only shrink, so the line is dropped and its
    best score is final then.
    """

    accepted: tuple[tuple[int, int, float, int], ...]
    dropped_src: tuple[tuple[int, float], ...]
    dropped_tgt: tuple[int, ...]


@dataclass(frozen=True)
class FilterQuality:
    total: int
    poor_in_test: int
    poor_filtered: int
    good_filtered: int


def align_filter(bitext: Bitext, cfg: FilterConfig) -> FilterResult:
    """Filter a bitext down to the accepted sentence pairs.

    For each source index i, candidate targets j lie within
    |j - round(i * |tgt| / |src|)| <= window and are still unconsumed
    (unless allow_reuse). The best-scoring chain-accepted candidate wins,
    except that a later line within the lookahead that scores strictly
    higher on that candidate defers it (i then tries its next-best); on
    a tie the earlier line keeps it. Contests compare scores from different
    tiers as plain numbers: an incumbent accepted at the overlap tier can
    lose to a contender whose ratio-tier score is strictly higher. The
    incumbent's score is an accepted one, so at least the chain's floor,
    and a contender scoring below the floor never wins. Source lines
    left without a surviving candidate are dropped with the best score
    they saw (see FilterResult); never-accepted target lines are dropped
    too.

    Only candidates that can still win are scored. A line scores its
    candidates nearest the diagonal first, ties to the lower index. Once
    one is accepted, the best accepted so far (score s at j*) bounds the
    rest: a candidate whose chain bound (similarity.chain_bound) is below
    s, or equal to s at an index above j*, is not scored, and neither is
    a contender whose bound is at most the score it would have to beat.
    A candidate accepted at 1.0 thus ends its row's higher indices and
    holds no contest. When the line's best candidate is vetoed, the row
    is scanned again without it under the same rule: decisions are
    memoized, so the rescan scores only what can beat its own incumbent.
    The result is the same as scoring every candidate, and the best score
    of a dropped line is unchanged: a skipped candidate scores at most s.
    A chain without a bound (similarity.chain_bound gives None) skips
    only what a 1.0 settles.

    A line whose scan, before any veto, finds no accepted open candidate
    is settled as dropped (see FilterResult): it keeps its best score,
    its memoized decisions and prepared translation are freed, and later
    rounds skip it. It still bids on the targets of the earlier lines
    whose lookahead reaches it; such a decision is scored again when
    asked for, with the same result.
    """
    if bitext.trans is None:
        raise DataError(
            "bitext has no translation layer; run ensure_translations first"
        )
    src, tgt, trans = bitext.source, bitext.target, bitext.trans
    for i, line in enumerate(src):
        if line != "" and trans[i] == "":
            raise DataError(
                f"translation layer incomplete at line {i + 1}; "
                "run ensure_translations first"
            )
    n_src, n_tgt = len(src), len(tgt)
    ctx = cfg.context if cfg.context is not None else ChainContext()
    # Decisions by translation text, then target text. A matched line never
    # scores again (contests skip it too), so its row is dropped then; a
    # later line with the same text recomputes the same decisions. A dead
    # line (see try_match) keeps no row: its bids as a contender are scored
    # again when asked for.
    memo: dict[str, dict[str, ChainDecision]] = {}
    bound = chain_bound(cfg.chain, ctx)

    def known(i: int, j: int) -> Optional[ChainDecision]:
        row = memo.get(trans[i])
        return None if row is None else row.get(tgt[j])

    def decide(i: int, j: int) -> ChainDecision:
        d = known(i, j)
        if d is None:
            d = chain_evaluate(trans[i], tgt[j], cfg.chain, ctx)
            if i not in dead:
                memo.setdefault(trans[i], {})[tgt[j]] = d
        return d

    def bounded_by(i: int, j: int, lead: float) -> bool:
        # decide(i, j) has not run, and it would score at most lead: no
        # score exceeds 1.0, and the chain's bound shows the rest; nothing
        # is memoized
        return known(i, j) is None and (
            lead >= 1.0 or bound is not None and bound(trans[i], tgt[j], lead) <= lead)

    def diagonal(i: int) -> int:
        return round(i * n_tgt / n_src)

    # A row's offsets from the diagonal, nearest first, ties to the lower
    # index: 0, -1, 1, -2, 2, ...
    reach = n_tgt if cfg.window is None else min(cfg.window, n_tgt)
    offsets = [0] + [o for d in range(1, reach + 1) for o in (-d, d)]

    def candidates_of(i: int) -> list[int]:
        # the open targets in i's window, in offset order
        c = diagonal(i)
        return [j for o in offsets if 0 <= (j := c + o) < n_tgt
                and (cfg.allow_reuse or j not in consumed)]

    def in_window(k: int, j: int) -> bool:
        return cfg.window is None or abs(j - diagonal(k)) <= cfg.window

    packs: dict[int, PackedStrings] = {}

    def set_row(i: int, row: list[int]) -> None:
        # line i's row chunks in ctx: the chunks covering row, those it no
        # longer covers dropped. A new chunk holds the target lines of its
        # span that are still open; the consumed ones were forgotten.
        nonlocal packs
        packs = {
            c: packs.get(c) or PackedStrings(
                [ctx.prepare(tgt[j]).joined
                 for j in range(c * _PACK_CHUNK, min((c + 1) * _PACK_CHUNK, n_tgt))
                 if cfg.allow_reuse or j not in consumed])
            for c in range(min(row) // _PACK_CHUNK, max(row) // _PACK_CHUNK + 1)
        }
        ctx.set_row(ctx.prepare(trans[i]), packs.values())

    # Empty source lines have nothing to match, whatever their translation;
    # they drop with score 0.
    skip = {i for i in range(n_src) if src[i] == ""}
    matched: dict[int, tuple[int, float, int]] = {}
    consumed: set[int] = set()
    best_seen: dict[int, float] = {}
    dead: set[int] = set()

    def take(i: int, j: int, d: ChainDecision) -> bool:
        matched[i] = (j, d.score, d.tier)
        # pop: a dead line with the same text may have freed the row
        memo.pop(trans[i], None)
        best_seen.pop(i, None)
        ctx.forget(trans[i])
        if not cfg.allow_reuse:
            consumed.add(j)
            ctx.forget(tgt[j])
        return True

    def rank(j: int, d: ChainDecision) -> tuple[float, int]:
        return -d.score, j

    def try_match(i: int, veto: bool) -> bool:
        row = candidates_of(i)
        vetoed: set[int] = set()
        while True:
            # on every scan: a contest makes its contender ctx's first
            # side, which drops the chunks but not the passes they keep
            if len(row) >= _PACKED_ROW_MIN:
                set_row(i, row)
            best = best_seen.get(i, 0.0)
            top: Optional[tuple[int, ChainDecision]] = None  # the incumbent
            for j in row:
                if j in vetoed:
                    continue
                # A candidate that cannot beat the incumbent, the best
                # accepted so far, is not scored: its bound is below the
                # incumbent's score, or equal to it at a higher index (ties
                # go to the lower). Its score is then at most best, so best
                # stays exact.
                if top is not None:
                    lead = top[1].score
                    if j < top[0]:
                        lead = math.nextafter(lead, -1.0)
                    if bounded_by(i, j, lead):
                        continue
                d = decide(i, j)
                if d.score > best:
                    best = d.score
                if d.accepted and (top is None or rank(j, d) < rank(*top)):
                    top = (j, d)
            best_seen[i] = best
            if top is None:
                if not vetoed:
                    # Dead: no open candidate is accepted, and the open
                    # ones only shrink, so every later attempt fails with
                    # the same best. The line keeps best_seen only.
                    dead.add(i)
                    memo.pop(trans[i], None)
                    ctx.forget(trans[i])
                return False
            j, d = top
            # The lookahead rule: a later unmatched line that could itself
            # reach j takes it by scoring strictly higher. A contender whose
            # bound is at most d.score is not scored. After a veto the row
            # is scanned again without j.
            if not veto or not any(
                not bounded_by(c, j, d.score) and decide(c, j).score > d.score
                for c in range(i + 1, min(i + cfg.lookahead + 1, n_src))
                if c not in matched and c not in skip and in_window(c, j)
            ):
                return take(i, j, d)
            vetoed.add(j)

    # Displacement rounds (veto on) while they match a line, then one
    # first-come round (veto off). Every pending line, neither matched nor
    # dead, gets its attempt in each round, and only a line's own attempt
    # can match it or make it dead.
    pending = [i for i in range(n_src) if i not in skip]
    rounds = cfg.displacement_rounds
    while rounds >= 0:
        pending = [i for i in pending if i not in matched and i not in dead]
        if not any([try_match(i, rounds > 0) for i in pending]):
            rounds = min(rounds, 1)
        rounds -= 1

    accepted = tuple(
        (i, matched[i][0], matched[i][1], matched[i][2]) for i in sorted(matched)
    )
    dropped_src = tuple(
        (i, best_seen.get(i, 0.0)) for i in range(n_src) if i not in matched
    )
    used = {row[0] for row in matched.values()}
    dropped_tgt = tuple(j for j in range(n_tgt) if j not in used)
    return FilterResult(
        accepted=accepted, dropped_src=dropped_src, dropped_tgt=dropped_tgt
    )


def evaluate_filtering(accepted, gold_poor, gold_good) -> FilterQuality:
    """Count filtering quality against gold pair labels.

    accepted holds the filter's accepted rows (src_idx, tgt_idx, score,
    tier): FilterResult.accepted, or the rows of a report read back with
    load_filter_report. gold_poor and gold_good are the (src_idx, tgt_idx)
    pairs labeled poor and good; together they must cover every pair the
    filter accepted. poor_filtered counts poor pairs the filter removed,
    good_filtered counts good pairs it lost.
    """
    poor = {(int(i), int(j)) for i, j in gold_poor}
    good = {(int(i), int(j)) for i, j in gold_good}
    both = poor & good
    if both:
        i, j = sorted(both)[0]
        raise ConfigError(f"pair ({i}, {j}) is labeled both poor and good")
    kept = {(i, j) for i, j, _score, _tier in accepted}
    unlabeled = kept - poor - good
    if unlabeled:
        i, j = sorted(unlabeled)[0]
        raise ConfigError(
            f"gold labels missing accepted pair ({i}, {j}); "
            "every test pair needs a label"
        )
    return FilterQuality(
        total=len(poor) + len(good),
        poor_in_test=len(poor),
        poor_filtered=len(poor - kept),
        good_filtered=len(good - kept),
    )


def load_gold_labels(
    path: str | Path,
) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Read gold pair labels: TSV rows `src_idx<TAB>tgt_idx<TAB>poor|good`,
    indices non-negative ('#' starts a comment). A pair may be labeled
    again only with the same label. Returns the (poor, good) pair sets."""
    labels: dict[tuple[int, int], str] = {}

    def gold_row(fields: list[str]) -> None:
        pair = (_index(fields[0], "src_idx"), _index(fields[1], "tgt_idx"))
        label = fields[2].lower()
        if label not in ("poor", "good"):
            raise DataError(f"label must be 'poor' or 'good', got {fields[2]!r}")
        if labels.setdefault(pair, label) != label:
            raise DataError(f"pair {pair} is labeled both poor and good")

    read_rows(path, "gold labels", "src_idx<TAB>tgt_idx<TAB>poor|good", gold_row)
    return ({pair for pair, label in labels.items() if label == "poor"},
            {pair for pair, label in labels.items() if label == "good"})
