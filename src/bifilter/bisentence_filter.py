"""Noisy-bitext filtering.

Matches every translated source line against candidate target lines near the
corpus diagonal, scoring pairs through the comparator chain. Before a line
commits to a candidate, nearby later lines may claim that candidate by
scoring strictly higher on it (the lookahead rule); displaced lines retry in
bounded displacement rounds, and whatever remains contested is resolved
first-come without vetoes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional

from .corpus_io import Bitext
from .errors import ConfigError, DataError
from .similarity import ChainContext, ChainDecision, ComparatorChain, chain_evaluate

__all__ = [
    "FilterConfig",
    "FilterResult",
    "FilterQuality",
    "align_filter",
    "resolve_conflict",
    "evaluate_filtering",
    "load_gold_labels",
]


@dataclass(frozen=True)
class FilterConfig:
    """Filter parameters.

    window is the candidate search half-width around the diagonal position
    (None searches every target line). lookahead is how many subsequent
    source lines may contest a candidate before it is committed.
    displacement_rounds bounds the veto-and-retry iterations; contested
    leftovers then resolve first-come. context supplies the stoplist,
    synonym lexicon, and sentence cache for the chain comparators.
    """

    chain: ComparatorChain
    window: Optional[int] = 30
    lookahead: int = 1
    allow_reuse: bool = False
    displacement_rounds: int = 3
    context: Optional[ChainContext] = None

    def __post_init__(self):
        if self.window is not None and self.window < 0:
            raise ConfigError(f"window must be >= 0 or None, got {self.window}")
        if self.lookahead < 0:
            raise ConfigError(f"lookahead must be >= 0, got {self.lookahead}")
        if self.displacement_rounds < 0:
            raise ConfigError(
                f"displacement_rounds must be >= 0, got {self.displacement_rounds}"
            )


@dataclass(frozen=True)
class FilterResult:
    """accepted rows are (src_idx, tgt_idx, score, tier); dropped_src rows
    are (src_idx, best score seen for that line).

    Accepted scores are exact. A dropped line's best score is exact when it
    is at least the chain's floor (ComparatorChain.floor); below the floor
    it may be an upper bound on the exact best score, still below the floor.
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


def resolve_conflict(i: int, j: int, scores, lookahead: int) -> int:
    """Decide which source line keeps target line j.

    Returns the argmax over k in {i, ..., i+lookahead} of score(k, j); ties
    go to the smallest k, so the earliest line keeps the target. scores may
    be a callable (k, j) -> float or a mapping keyed by (k, j).

    Scores are compared as plain numbers, whichever chain tier produced
    them: an incumbent accepted at the overlap tier can lose to a contender
    whose ratio-tier score is strictly higher.
    """
    lookup: Callable[[int, int], float]
    if callable(scores):
        lookup = scores
    else:
        mapping: Mapping = scores
        lookup = lambda k, jj: mapping[(k, jj)]
    best_k, best_s = i, lookup(i, j)
    for k in range(i + 1, i + lookahead + 1):
        s = lookup(k, j)
        if s > best_s:
            best_k, best_s = k, s
    return best_k


def align_filter(bitext: Bitext, cfg: FilterConfig) -> FilterResult:
    """Filter a bitext down to the accepted sentence pairs.

    For each source index i, candidate targets j lie within
    |j - round(i * |tgt| / |src|)| <= window and are still unconsumed
    (unless allow_reuse). The best-scoring chain-accepted candidate wins,
    except that a later line within the lookahead that scores strictly
    higher on that candidate defers it (i then tries its next-best).
    Contests compare scores from different tiers as plain numbers (see
    resolve_conflict). The incumbent's score is an accepted one, so at
    least the chain's floor, and a contender scoring below the floor never
    wins. Source lines left without a surviving candidate are dropped with
    the best score they saw (see FilterResult); never-accepted target lines
    are dropped too.
    """
    if bitext.trans is None:
        raise DataError(
            "bitext has no translation layer; run ensure_translations first"
        )
    src = bitext.source.lines
    tgt = bitext.target.lines
    trans = bitext.trans.lines
    for i, line in enumerate(src):
        if line != "" and trans[i] == "":
            raise DataError(
                f"translation layer incomplete at line {i + 1}; "
                "run ensure_translations first"
            )
    n_src, n_tgt = len(src), len(tgt)
    ctx = cfg.context if cfg.context is not None else ChainContext()
    memo: dict[tuple[str, str], ChainDecision] = {}

    def decide(i: int, j: int) -> ChainDecision:
        key = (trans[i], tgt[j])
        d = memo.get(key)
        if d is None:
            d = chain_evaluate(trans[i], tgt[j], cfg.chain, ctx)
            memo[key] = d
        return d

    def diagonal(i: int) -> int:
        return round(i * n_tgt / n_src)

    def candidates_of(i: int) -> range:
        if cfg.window is None:
            return range(n_tgt)
        center = diagonal(i)
        lo = max(0, center - cfg.window)
        hi = min(n_tgt - 1, center + cfg.window)
        return range(lo, hi + 1)

    def in_window(k: int, j: int) -> bool:
        return cfg.window is None or abs(j - diagonal(k)) <= cfg.window

    # Empty source lines have nothing to match; they drop with score 0.
    skip = {i for i in range(n_src) if trans[i] == ""}
    matched: dict[int, tuple[int, float, int]] = {}
    consumed: set[int] = set()
    best_seen: dict[int, float] = {}

    def contest_lookup(i: int) -> Callable[[int, int], float]:
        # Only still-unmatched later lines that could themselves reach j
        # may contest it; everyone else scores below any real score.
        def lookup(k: int, j: int) -> float:
            if k == i:
                return decide(i, j).score
            if k >= n_src or k in matched or k in skip or not in_window(k, j):
                return -1.0
            return decide(k, j).score

        return lookup

    def try_match(i: int, veto_active: bool) -> bool:
        cands: list[tuple[int, ChainDecision]] = []
        best = best_seen.get(i, 0.0)
        for j in candidates_of(i):
            if not cfg.allow_reuse and j in consumed:
                continue
            d = decide(i, j)
            if d.score > best:
                best = d.score
            if d.accepted:
                cands.append((j, d))
        best_seen[i] = best
        cands.sort(key=lambda c: (-c[1].score, c[0]))
        for j, d in cands:
            if veto_active and cfg.lookahead > 0:
                winner = resolve_conflict(i, j, contest_lookup(i), cfg.lookahead)
                if winner != i:
                    continue
            matched[i] = (j, d.score, d.tier)
            if not cfg.allow_reuse:
                consumed.add(j)
            return True
        return False

    order = [i for i in range(n_src) if i not in skip]
    for _ in range(cfg.displacement_rounds):
        pending = [i for i in order if i not in matched]
        if not pending:
            break
        progress = False
        for i in pending:
            if try_match(i, veto_active=True):
                progress = True
        if not progress:
            break
    for i in order:
        if i not in matched:
            try_match(i, veto_active=False)

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


def evaluate_filtering(result: FilterResult, gold_poor, gold_good) -> FilterQuality:
    """Count filtering quality against gold pair labels.

    gold_poor and gold_good are the (src_idx, tgt_idx) pairs labeled poor
    and good; together they must cover every pair the filter accepted.
    poor_filtered counts poor pairs the filter removed, good_filtered counts
    good pairs it lost.
    """
    poor = {(int(i), int(j)) for i, j in gold_poor}
    good = {(int(i), int(j)) for i, j in gold_good}
    both = poor & good
    if both:
        i, j = sorted(both)[0]
        raise ConfigError(f"pair ({i}, {j}) is labeled both poor and good")
    accepted = {(i, j) for i, j, _score, _tier in result.accepted}
    unlabeled = accepted - poor - good
    if unlabeled:
        i, j = sorted(unlabeled)[0]
        raise ConfigError(
            f"gold labels missing accepted pair ({i}, {j}); "
            "every test pair needs a label"
        )
    return FilterQuality(
        total=len(poor) + len(good),
        poor_in_test=len(poor),
        poor_filtered=len(poor - accepted),
        good_filtered=len(good - accepted),
    )


def load_gold_labels(
    path: str | Path,
) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Read gold pair labels: TSV rows `src_idx<TAB>tgt_idx<TAB>poor|good`
    ('#' starts a comment). Returns the (poor, good) pair sets."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read gold labels {path}: {exc}") from exc
    poor: set[tuple[int, int]] = set()
    good: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(
                f"{path}:{lineno}: expected 'src_idx<TAB>tgt_idx<TAB>poor|good'"
            )
        try:
            pair = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad pair indices") from None
        label = parts[2].strip().lower()
        if label == "poor":
            poor.add(pair)
        elif label == "good":
            good.add(pair)
        else:
            raise DataError(
                f"{path}:{lineno}: label must be 'poor' or 'good', got {parts[2]!r}"
            )
    return poor, good
