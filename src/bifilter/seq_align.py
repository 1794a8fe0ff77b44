"""Global alignment of two sentence lists.

A Needleman-Wunsch style dynamic program maximizes the summed pair
likelihoods minus a linear gap penalty; an A* engine reaches the same
objective while scoring only the cells it explores. Pair scorers are
pluggable callables mapping two sentences to a likelihood in [0, 1]; a
translation-dictionary scorer is provided.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from ._records import read_records
from .errors import ConfigError, DataError
from .similarity import ChainContext, ComparatorChain, chain_evaluate
from .textnorm import is_punct_token, tokenize

__all__ = [
    "PairScorer",
    "Alignment",
    "AlignConfig",
    "load_dictionary",
    "lexicon_scorer",
    "chain_scorer",
    "equality_scorer",
    "nw_align",
    "astar_align",
    "align_documents",
    "threshold_filter",
]

PairScorer = Callable[[str, str], float]


@dataclass(frozen=True)
class Alignment:
    """Monotone pairing of two documents.

    pairs are (i, j, likelihood) strictly increasing in both indices;
    gaps_a and gaps_b hold the indices each side left unaligned. Together
    the pairs and gaps cover each side exactly once.
    """

    pairs: tuple[tuple[int, int, float], ...]
    gaps_a: tuple[int, ...]
    gaps_b: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", tuple((int(i), int(j), float(s)) for i, j, s in self.pairs)
        )
        object.__setattr__(self, "gaps_a", tuple(int(i) for i in self.gaps_a))
        object.__setattr__(self, "gaps_b", tuple(int(j) for j in self.gaps_b))
        last_i = last_j = -1
        for i, j, _s in self.pairs:
            if i <= last_i or j <= last_j:
                raise ValueError("alignment pairs must be strictly monotone")
            last_i, last_j = i, j
        for side, paired, gaps in (
            ("a", [p[0] for p in self.pairs], self.gaps_a),
            ("b", [p[1] for p in self.pairs], self.gaps_b),
        ):
            seen = sorted(list(paired) + list(gaps))
            if seen != list(range(len(seen))):
                raise ValueError(
                    f"side {side}: pairs and gaps must partition the index set"
                )

    def objective(self, gap_penalty: float) -> float:
        return sum(p[2] for p in self.pairs) - gap_penalty * (
            len(self.gaps_a) + len(self.gaps_b)
        )


@dataclass(frozen=True)
class AlignConfig:
    gap_penalty: float = 0.2
    threshold: float = 0.0
    engine: str = "dp"

    def __post_init__(self):
        if self.gap_penalty < 0:
            raise ConfigError(f"gap_penalty must be >= 0, got {self.gap_penalty}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold {self.threshold} outside [0, 1]")
        if self.engine not in ("dp", "astar"):
            raise ConfigError(f"engine must be 'dp' or 'astar', got {self.engine!r}")


def _checked(value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"pair scorer returned {value}, outside [0, 1]")
    return value


def load_dictionary(path: str | Path) -> dict[str, dict[str, float]]:
    """Load a translation-probability table.

    TSV rows `src_word<TAB>tgt_word<TAB>prob` with prob in [0, 1]; '#'
    starts a comment, later duplicate rows override earlier ones. Keys are
    case-folded.
    """
    table: dict[str, dict[str, float]] = {}
    for lineno, line in read_records(path, "dictionary"):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(
                f"{path}:{lineno}: expected 'src_word<TAB>tgt_word<TAB>prob'"
            )
        src, tgt = parts[0].strip().lower(), parts[1].strip().lower()
        try:
            prob = float(parts[2])
        except ValueError:
            raise DataError(f"{path}:{lineno}: not a number: {parts[2]!r}") from None
        if not 0.0 <= prob <= 1.0:
            raise DataError(f"{path}:{lineno}: probability {prob} outside [0, 1]")
        if not src or not tgt:
            raise DataError(f"{path}:{lineno}: empty word field")
        table.setdefault(src, {})[tgt] = prob
    return table


def lexicon_scorer(dictionary: dict[str, dict[str, float]]) -> PairScorer:
    """Scorer averaging, over the source's non-punctuation tokens, each
    token's best translation probability into the target's non-punctuation
    token set. A source with no such tokens scores 0.0.

    The scorer keeps what it derives from each line, keyed by the line:
    for a source line, the dictionary rows of its tokens in token order
    (None where a token has no row); for a target line, its token set. Each
    distinct line is tokenized once per side for the scorer's lifetime."""
    source_rows: dict[str, tuple[Optional[dict[str, float]], ...]] = {}
    target_sets: dict[str, frozenset[str]] = {}

    def score(a: str, b: str) -> float:
        rows = source_rows.get(a)
        if rows is None:
            rows = source_rows[a] = tuple(
                dictionary.get(t) for t in tokenize(a) if not is_punct_token(t)
            )
        if not rows:
            return 0.0
        b_toks = target_sets.get(b)
        if b_toks is None:
            b_toks = target_sets[b] = frozenset(
                t for t in tokenize(b) if not is_punct_token(t)
            )
        total = 0.0
        for row in rows:
            if row:
                total += max((p for w, p in row.items() if w in b_toks), default=0.0)
        return min(1.0, total / len(rows))

    return score


def chain_scorer(chain: ComparatorChain, context: ChainContext) -> PairScorer:
    """Adapter exposing a comparator chain's score as a pair scorer (for
    same-language document pairs, e.g. through a translation layer).
    Scores are exact, rejected ones included, because the alignment
    objective adds them up."""

    def score(a: str, b: str) -> float:
        return chain_evaluate(a, b, chain, context, exact=True).score

    return score


def equality_scorer(a: str, b: str) -> float:
    """1.0 for identical sentences, else 0.0."""
    return 1.0 if a == b else 0.0


# DP move priorities on value ties: a positive-scoring match beats skipping
# an A element, which beats skipping a B element, which beats a zero-scoring
# match. The last rule keeps worthless pairs out of the alignment.
_PRI_MATCH_POS = 3
_PRI_GAP_A = 2
_PRI_GAP_B = 1
_PRI_MATCH_ZERO = 0


def _backtrace(n: int, m: int, kind_at, score_at) -> Alignment:
    """Walk back from (n, m) to (0, 0). kind_at(i, j) is the move that
    entered node (i, j): "m" from (i-1, j-1), pairing A[i-1] with B[j-1];
    "a" from (i-1, j), leaving A[i-1] unaligned; "b" from (i, j-1), leaving
    B[j-1] unaligned. score_at(i, j) is the likelihood of pair (i, j)."""
    pairs: list[tuple[int, int, float]] = []
    gaps_a: list[int] = []
    gaps_b: list[int] = []
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
    return Alignment(
        pairs=tuple(reversed(pairs)),
        gaps_a=tuple(reversed(gaps_a)),
        gaps_b=tuple(reversed(gaps_b)),
    )


def nw_align(
    doc_a: list[str], doc_b: list[str], scorer: PairScorer, cfg: AlignConfig
) -> Alignment:
    """Optimal monotone alignment by dynamic programming.

    Maximizes sum(likelihood of pairs) - gap_penalty * (total gaps). Scores
    every cell of the |A| x |B| matrix.
    """
    n, m = len(doc_a), len(doc_b)
    gap = cfg.gap_penalty
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
        row_val = value[i]
        row_move = move[i]
        prev_val = value[i - 1]
        for j in range(1, m + 1):
            s = _checked(scorer(doc_a[i - 1], doc_b[j - 1]))
            likes[i - 1][j - 1] = s
            best = (
                prev_val[j - 1] + s,
                _PRI_MATCH_POS if s > 0 else _PRI_MATCH_ZERO,
                "m",
            )
            cand = (prev_val[j] - gap, _PRI_GAP_A, "a")
            if cand[:2] > best[:2]:
                best = cand
            cand = (row_val[j - 1] - gap, _PRI_GAP_B, "b")
            if cand[:2] > best[:2]:
                best = cand
            row_val[j] = best[0]
            row_move[j] = best[2]
    return _backtrace(n, m, lambda i, j: move[i][j], lambda i, j: likes[i][j])


def _heuristic(rest_a: int, rest_b: int, gap: float) -> float:
    """Upper bound on the gain of any path from a node with rest_a lines of
    A and rest_b lines of B still to place: at most min(rest_a, rest_b)
    matches, each scoring at most 1, and at least |rest_a - rest_b| gaps,
    each costing gap.

    It is 0 at the goal and consistent (Hart, Nilsson & Raphael 1968): for
    every move u -> v with gain w, h(u) >= w + h(v). A match lowers both
    counts by 1, so min drops by 1 and the difference stays: h falls by
    exactly 1, and the match gains at most 1. A gap lowers one count by 1:
    min drops by 0 or 1 and the difference moves by exactly 1, so h rises
    by at most gap, and the gap gains -gap. A consistent heuristic that is
    0 at the goal is admissible.
    """
    return min(rest_a, rest_b) - gap * abs(rest_a - rest_b)


def astar_align(
    doc_a: list[str],
    doc_b: list[str],
    scorer: PairScorer,
    cfg: AlignConfig,
    stats: Optional[dict] = None,
) -> Alignment:
    """Optimal monotone alignment by best-first search.

    Reaches the same objective as nw_align but calls the scorer lazily,
    only for cells the search actually expands; at most once per cell.
    _heuristic never underestimates the best gain still reachable, so the
    first goal expansion is optimal. Pass a dict as
    ``stats`` to receive scorer_calls and expanded counts.
    """
    n, m = len(doc_a), len(doc_b)
    gap = cfg.gap_penalty
    cache: dict[tuple[int, int], float] = {}

    def pair_score(i: int, j: int) -> float:
        key = (i, j)
        v = cache.get(key)
        if v is None:
            v = _checked(scorer(doc_a[i], doc_b[j]))
            cache[key] = v
        return v

    best_g: dict[tuple[int, int], float] = {(0, 0): 0.0}
    parent: dict[tuple[int, int], str] = {}
    counter = 0
    heap = [(-_heuristic(n, m, gap), 0, 0.0, 0, 0)]
    expanded = 0
    while heap:
        neg_f, _seq, g, i, j = heapq.heappop(heap)
        if g < best_g.get((i, j), float("-inf")):
            continue
        if (i, j) == (n, m):
            break
        expanded += 1
        succs: list[tuple[int, int, float, str]] = []
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
                f = sg + _heuristic(n - si, m - sj, gap)
                heapq.heappush(heap, (-f, counter, sg, si, sj))
    else:
        raise DataError("alignment search exhausted without reaching the goal")
    if stats is not None:
        stats["scorer_calls"] = len(cache)
        stats["expanded"] = expanded
    return _backtrace(n, m, lambda i, j: parent[(i, j)], lambda i, j: cache[(i, j)])


def align_documents(
    doc_a: list[str],
    doc_b: list[str],
    scorer: PairScorer,
    cfg: AlignConfig,
    stats: Optional[dict] = None,
) -> Alignment:
    """Run the engine selected by cfg.engine. Pass a dict as ``stats`` to
    receive the engine's scorer_calls (the DP engine scores every cell)
    and, for astar, its expanded count."""
    if cfg.engine == "astar":
        return astar_align(doc_a, doc_b, scorer, cfg, stats=stats)
    alignment = nw_align(doc_a, doc_b, scorer, cfg)
    if stats is not None:
        stats["scorer_calls"] = len(doc_a) * len(doc_b)
    return alignment


def threshold_filter(alignment: Alignment, tau: float) -> list[tuple[int, int, float]]:
    """Keep pairs whose likelihood reaches tau, in order."""
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"threshold {tau} outside [0, 1]")
    return [p for p in alignment.pairs if p[2] >= tau]
