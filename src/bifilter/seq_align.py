"""Global alignment of two sentence lists.

A Needleman-Wunsch style dynamic program maximizes the summed pair
likelihoods minus a linear gap penalty; an A* engine reaches the same
objective while scoring only the cells it explores. Pair scorers are
pluggable callables mapping two sentences to a likelihood in [0, 1]; a
translation-dictionary scorer is provided.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from ._records import read_rows
from .errors import ConfigError, DataError, _fraction
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
"""(a, b) -> likelihood in [0, 1]; must return the same value for the same
pair: the engines keep no likelihoods and score each aligned pair again at
backtrace.

A scorer may also have an ``against`` attribute: against(doc_b) returns a
function scores(a, lo, hi) giving the list of scorer(a, b) for every b in
doc_b[lo:hi], 0 <= lo <= hi <= len(doc_b), each value equal to the pair's.
nw_align then scores a row's band per call. lexicon_scorer's scorers have
it."""


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
    engine: str = "dp"

    def __post_init__(self):
        if not (math.isfinite(self.gap_penalty) and self.gap_penalty >= 0):
            raise ConfigError(
                f"gap_penalty must be finite and >= 0, got {self.gap_penalty}")
        if self.engine not in ("dp", "astar"):
            raise ConfigError(f"engine must be 'dp' or 'astar', got {self.engine!r}")


def _checked(value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"pair scorer returned {value}, outside [0, 1]")
    return value


def _check_gap(n: int, m: int, gap: float) -> None:
    """ConfigError unless every sum an engine forms on n x m lines with
    this gap penalty stays finite. A path's gain is at least -gap(n + m),
    and A*'s bound of what is still reachable is too, so 2·gap(n + m)
    bounds every |value|; past the float range the gains turn into -inf
    and A* cannot tell a reached node from an unseen one."""
    if math.isinf(2 * (n + m) * gap):
        raise ConfigError(
            f"gap_penalty {gap} is too large for {n} x {m} lines: "
            f"2 * gap * {n + m} overflows a float")


def _checked_row(row: list[float], m: int) -> list[float]:
    """row, a scorer's against() result for a band of m target lines,
    checked as _checked checks each value: min and max, plus the sum, since
    a NaN anywhere makes the sum NaN while min and max may step over it."""
    if len(row) != m:
        raise ValueError(f"pair scorer returned a row of {len(row)} scores "
                         f"for {m} lines")
    if m and not (0.0 <= min(row) and max(row) <= 1.0
                  and not math.isnan(sum(row))):
        for value in row:
            _checked(value)
    return row


def load_dictionary(path: str | Path) -> dict[str, dict[str, float]]:
    """Load a translation-probability table.

    TSV rows `src_word<TAB>tgt_word<TAB>prob` with prob in [0, 1]; '#'
    starts a comment, later duplicate rows override earlier ones. Keys are
    case-folded.
    """
    table: dict[str, dict[str, float]] = {}
    for src, tgt, prob in read_rows(path, "dictionary",
                                    "src_word<TAB>tgt_word<TAB>prob", _dictionary_row):
        table.setdefault(src, {})[tgt] = prob
    return table


def _dictionary_row(fields: list[str]) -> tuple[str, str, float]:
    src, tgt = fields[0].lower(), fields[1].lower()
    prob = _fraction(fields[2], "probability")
    if not src or not tgt:
        raise DataError("empty word field")
    return src, tgt, prob


_RankedRow = tuple[tuple[str, float], ...]


def lexicon_scorer(dictionary: dict[str, dict[str, float]]) -> PairScorer:
    """Scorer averaging, over the source's non-punctuation tokens, each
    token's best translation probability into the target's non-punctuation
    token set. A source with no such tokens scores 0.0.

    Each dictionary word's row is ranked once, as a tuple of (target, prob)
    sorted by descending prob, and shared by every line that holds the
    word. A token's best probability is the prob of the first ranked target
    in the target's token set: the value max() over the row gives. The
    scorer keeps what it derives from each line, keyed by the line: for a
    source line, the ranked rows of its tokens in token order (tokens
    without a row are left out, as they add 0.0) and its token count; for a
    target line, its token set. Each distinct line is tokenized once per
    side for the scorer's lifetime.

    The scorer's ``against(doc_b)`` gives a function scores(a, lo, hi)
    giving a source line's scores against the lines doc_b[lo:hi], each
    equal to the pair's score. It indexes doc_b once, each target word
    mapping to the ascending indices of the lines whose token set holds it
    (an inverted file; Zobel & Moffat 2006), so a band costs one pass over
    the source's ranked rows and the lines they reach inside the band,
    found by bisecting each list, not one call per line."""
    ranked: dict[str, _RankedRow] = {}
    source_rows: dict[str, tuple[tuple[_RankedRow, ...], int]] = {}
    target_sets: dict[str, frozenset[str]] = {}

    def ranked_row(word: str) -> _RankedRow:
        row = ranked.get(word)
        if row is None:
            entries = (dictionary.get(word) or {}).items()
            row = ranked[word] = tuple(sorted(entries, key=lambda e: -e[1]))
        return row

    def source_row(a: str) -> tuple[tuple[_RankedRow, ...], int]:
        entry = source_rows.get(a)
        if entry is None:
            tokens = [t for t in tokenize(a) if not is_punct_token(t)]
            rows = tuple(row for row in map(ranked_row, tokens) if row)
            entry = source_rows[a] = (rows, len(tokens))
        return entry

    def target_set(b: str) -> frozenset[str]:
        b_toks = target_sets.get(b)
        if b_toks is None:
            b_toks = target_sets[b] = frozenset(
                t for t in tokenize(b) if not is_punct_token(t)
            )
        return b_toks

    def score(a: str, b: str) -> float:
        rows, count = source_rows.get(a) or source_row(a)
        if not count:
            return 0.0
        b_toks = target_sets.get(b) or target_set(b)
        total = 0.0
        for row in rows:
            for w, p in row:
                if w in b_toks:
                    total += p
                    break
        total /= count
        return total if total < 1.0 else 1.0

    def against(doc_b: list[str]) -> Callable[[str, int, int], list[float]]:
        index: dict[str, list[int]] = {}
        for j, b in enumerate(doc_b):
            for w in target_set(b):
                index.setdefault(w, []).append(j)

        def scores(a: str, lo: int, hi: int) -> list[float]:
            rows, count = source_rows.get(a) or source_row(a)
            totals = [0.0] * (hi - lo)
            if not count:
                return totals
            # Each token adds, to each line, the prob of its first ranked
            # target that line holds (a 0.0 prob included), in token order:
            # the very additions score makes for the pair. The top target
            # credits all its lines; a later one only lines not yet credited.
            # A posting list is ascending, so the band is one slice of it.
            for row in rows:
                (w, p), *rest = row
                lines = index.get(w, ())
                credited = lines[bisect_left(lines, lo):bisect_left(lines, hi)]
                for j in credited:
                    totals[j - lo] += p
                if rest:
                    credited = set(credited)
                    for w, p in rest:
                        lines = index.get(w, ())
                        for j in lines[bisect_left(lines, lo):bisect_left(lines, hi)]:
                            if j not in credited:
                                credited.add(j)
                                totals[j - lo] += p
            return [x if (x := t / count) < 1.0 else 1.0 for t in totals]

        return scores

    score.against = against
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


# Moves into a node (i, j): _MATCH from (i-1, j-1), pairing A[i-1] with
# B[j-1]; _GAP_A from (i-1, j), leaving A[i-1] unaligned; _GAP_B from
# (i, j-1), leaving B[j-1] unaligned. Node (i, j) has the key i * (m + 1) + j.
_MATCH, _GAP_A, _GAP_B = 0, 1, 2


def _backtrace(doc_a: list[str], doc_b: list[str], scorer: PairScorer,
               move_at) -> Alignment:
    """Walk back from node (|A|, |B|) to (0, 0), scoring each aligned pair
    again. move_at(key) is the move that entered the node with that key."""
    m = len(doc_b)
    pairs: list[tuple[int, int, float]] = []
    gaps_a: list[int] = []
    gaps_b: list[int] = []
    i, j = len(doc_a), m
    while i > 0 or j > 0:
        kind = move_at(i * (m + 1) + j)
        if kind == _MATCH:
            i, j = i - 1, j - 1
            pairs.append((i, j, _checked(scorer(doc_a[i], doc_b[j]))))
        elif kind == _GAP_A:
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


def _greedy_walk(doc_a: list[str], doc_b: list[str], scorer: PairScorer,
                 gap: float) -> tuple[float, int]:
    """(objective, scorer calls) of one monotone alignment found greedily:
    from node (0, 0), pair the two next lines when their score is at least
    what skipping one line on either side and pairing the next would gain,
    else take the better skip (the skip of an A line on a tie). Lines left
    over when one side runs out are gaps. Each pair is scored once."""
    n, m = len(doc_a), len(doc_b)
    i = j = 0
    total = 0.0
    calls = 1 if n and m else 0
    s = _checked(scorer(doc_a[0], doc_b[0])) if calls else 0.0
    while i < n and j < m:
        down = right = -math.inf
        if i + 1 < n:
            down = _checked(scorer(doc_a[i + 1], doc_b[j]))
            calls += 1
        if j + 1 < m:
            right = _checked(scorer(doc_a[i], doc_b[j + 1]))
            calls += 1
        if s >= down - gap and s >= right - gap:
            total += s
            i, j = i + 1, j + 1
            if i < n and j < m:
                s = _checked(scorer(doc_a[i], doc_b[j]))
                calls += 1
        elif down >= right:
            total -= gap
            i, s = i + 1, down
        else:
            total -= gap
            j, s = j + 1, right
    return total - gap * ((n - i) + (m - j)), calls


def nw_align(
    doc_a: list[str],
    doc_b: list[str],
    scorer: PairScorer,
    cfg: AlignConfig,
    stats: Optional[dict] = None,
) -> Alignment:
    """Optimal monotone alignment by dynamic programming.

    Maximizes sum(likelihood of pairs) - gap_penalty * (total gaps). Fills
    only the nodes that can lie on an optimal path (Ukkonen 1985): a greedy
    walk (_greedy_walk) gives the objective L of a real alignment, and a
    node whose best gain g so far has g + _heuristic(lines left) below L,
    less a rounding margin, is left out, as is every node reached only
    through such nodes. _heuristic is consistent, so a row's nodes that
    can be reached lie from the first node the row above kept to one past
    its last, then further right by gap moves, which need no score, while
    nodes are kept. A node on an optimal path gets the value and move the
    full table gives it, so the alignment is the same.

    Row i scores the pairs of doc_a[i - 1] with doc_b[lo:hi], the lines
    whose node above-left was kept, then each aligned pair again at
    backtrace: the scorer must return the same value for a pair. A scorer
    with ``against`` (see PairScorer) gives each row's band in one call,
    scores(doc_a[i - 1], lo, hi); any other is called once per cell.

    Keeps one byte per node for the move that entered it, in a bytearray
    of (|A| + 1)(|B| + 1) keyed like _backtrace's nodes, and the values of
    the previous row's kept span. On value ties a positive-scoring match
    beats skipping an A element, which beats skipping a B element, which
    beats a zero-scoring match; the last rule keeps worthless pairs out of
    the alignment. Pass a dict as ``stats`` to receive scorer_calls (the
    walk's, then each cell scored, then each aligned pair) and filled (the
    nodes given a value, row 0 and column 0 left out).
    """
    n, m = len(doc_a), len(doc_b)
    gap = cfg.gap_penalty
    _check_gap(n, m, gap)
    floor, calls = _greedy_walk(doc_a, doc_b, scorer, gap)
    floor -= 1e-9 * (n + m + 1) * (1 + gap)

    def kept(i: int, j: int, value: float) -> bool:
        return value + _heuristic(n - i, m - j, gap) >= floor

    width = m + 1
    moves = bytearray(width * (n + 1))  # all _MATCH until written
    moves[1:width] = bytes([_GAP_B]) * m
    # The kept span of the previous row: its first and last kept columns
    # lo and hi, and prev, the values of columns lo..hi then -inf for the
    # column past hi, which has no node above it.
    hi = 0
    while hi < m and kept(0, hi + 1, -gap * (hi + 1)):
        hi += 1
    lo = filled = first = 0
    prev = [0.0] + [-gap * j for j in range(1, hi + 1)] + [-math.inf]
    against = getattr(scorer, "against", None)
    scores = against(doc_b) if against is not None else None
    for i in range(1, n + 1):
        a = doc_a[i - 1]
        top = hi + 1 if hi < m else m
        if scores is None:
            row = [_checked(scorer(a, b)) for b in doc_b[lo:top]]
        else:
            row = _checked_row(scores(a, lo, top), top - lo)
        calls += top - lo
        # column lo: only the node above it was kept
        left = -gap * i if lo == 0 else prev[0] - gap
        cur = [left]
        base = i * width
        moves[base + lo] = _GAP_A
        keys = range(base + lo + 1, base + top + 1)
        for key, s, diag, above in zip(keys, row, prev, prev[1:]):
            best = diag + s
            move = _MATCH
            up = above - gap
            side = left - gap
            if s > 0.0:
                if up > best:
                    best, move = up, _GAP_A
                if side > best:
                    best, move = side, _GAP_B
            else:
                if up >= best:
                    best, move = up, _GAP_A
                if side > best or (side == best and move == _MATCH):
                    best, move = side, _GAP_B
            cur.append(best)
            left = best
            if move:
                moves[key] = move
        # past the band only gap moves reach a node
        j = top
        while j < m and kept(i, j, left):
            j += 1
            left -= gap
            cur.append(left)
            moves[base + j] = _GAP_B
        filled += len(cur) - (lo == 0)
        first = next((k for k, v in enumerate(cur) if kept(i, lo + k, v)), None)
        if first is None:
            break
        last = len(cur) - 1
        while not kept(i, lo + last, cur[last]):
            last -= 1
        prev = cur[first:last + 1]
        prev.append(-math.inf)
        lo, hi = lo + first, lo + last
    if first is None or hi < m:
        raise ValueError("no alignment reaches the greedy walk's objective: "
                         "the pair scorer gave a pair two different scores")
    alignment = _backtrace(doc_a, doc_b, scorer, moves.__getitem__)
    if stats is not None:
        stats["scorer_calls"] = calls + len(alignment.pairs)
        stats["filled"] = filled
    return alignment


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

    Reaches the same objective as nw_align but calls the scorer lazily: a
    cell is scored each time the search expands its node (once, unless
    float rounding reopens the node with a better gain), then each aligned
    pair again at backtrace, as nw_align does. _heuristic never
    underestimates the best gain still reachable, so the first goal
    expansion is optimal. The loop computes _heuristic's value for each
    successor inline, grouped as _heuristic groups it (the bound first,
    then added to the gain), so ties fall as they would through the call.
    Each reached node keeps one float, its best gain, and one move. Pass a
    dict as ``stats`` to receive scorer_calls (cells scored plus aligned
    pairs) and expanded counts.
    """
    n, m = len(doc_a), len(doc_b)
    gap = cfg.gap_penalty
    _check_gap(n, m, gap)
    width = m + 1
    goal = n * width + m
    # node key -> best gain found; node key -> the move into it
    gains: dict[int, float] = {0: 0.0}
    moves: dict[int, int] = {0: _MATCH}
    unseen = float("-inf")
    push, pop = heapq.heappush, heapq.heappop
    counter = 0
    heap = [(-_heuristic(n, m, gap), 0, 0.0, 0)]
    expanded = scored = 0
    while heap:
        _neg_f, _seq, g, key = pop(heap)
        if g < gains[key]:
            continue
        if key == goal:
            break
        expanded += 1
        i, j = divmod(key, width)
        rest_a, rest_b = n - i, m - j
        # successors in the order _MATCH, _GAP_A, _GAP_B; each bound is
        # _heuristic(lines left after the move, gap)
        if rest_a and rest_b:
            s = scorer(doc_a[i], doc_b[j])
            scored += 1
            # a float in [0, 1] is what _checked would return as is
            if type(s) is not float or not 0.0 <= s <= 1.0:
                s = _checked(s)
            succ = key + width + 1
            sg = g + s
            if sg > gains.get(succ, unseen):
                gains[succ] = sg
                moves[succ] = _MATCH
                counter += 1
                x, y = rest_a - 1, rest_b - 1
                h = (x if x < y else y) - gap * (x - y if x > y else y - x)
                push(heap, (-(sg + h), counter, sg, succ))
        sg = g - gap
        if rest_a:
            succ = key + width
            if sg > gains.get(succ, unseen):
                gains[succ] = sg
                moves[succ] = _GAP_A
                counter += 1
                x = rest_a - 1
                h = (x if x < rest_b else rest_b) - gap * (
                    x - rest_b if x > rest_b else rest_b - x)
                push(heap, (-(sg + h), counter, sg, succ))
        if rest_b:
            succ = key + 1
            if sg > gains.get(succ, unseen):
                gains[succ] = sg
                moves[succ] = _GAP_B
                counter += 1
                y = rest_b - 1
                h = (rest_a if rest_a < y else y) - gap * (
                    rest_a - y if rest_a > y else y - rest_a)
                push(heap, (-(sg + h), counter, sg, succ))
    else:
        raise DataError("alignment search exhausted without reaching the goal")
    alignment = _backtrace(doc_a, doc_b, scorer, moves.__getitem__)
    if stats is not None:
        stats["scorer_calls"] = scored + len(alignment.pairs)
        stats["expanded"] = expanded
    return alignment


def align_documents(
    doc_a: list[str],
    doc_b: list[str],
    scorer: PairScorer,
    cfg: AlignConfig,
    stats: Optional[dict] = None,
) -> Alignment:
    """Run the engine selected by cfg.engine. Pass a dict as ``stats`` to
    receive the engine's scorer_calls (for dp its greedy walk's first, then
    the cells it scored, then each aligned pair once more) and its count of
    nodes: filled for dp, expanded for astar."""
    if cfg.engine == "astar":
        return astar_align(doc_a, doc_b, scorer, cfg, stats=stats)
    return nw_align(doc_a, doc_b, scorer, cfg, stats=stats)


def threshold_filter(alignment: Alignment, tau: float) -> list[tuple[int, int, float]]:
    """Keep pairs whose likelihood reaches tau, in order."""
    tau = _fraction(tau, "threshold")
    return [p for p in alignment.pairs if p[2] >= tau]
