"""Traced runs: per-layer counts and times, measured from outside the program.

The workload's command runs through ``bifilter.cli.main`` in this process
while the library functions it reaches are wrapped with timers and
counters. All wrapping happens here: module attributes are rebound,
comparators are re-registered with ``register_comparator(..., replace=True)``
and the filter gets a timed ``ChainContext`` subclass through
``FilterConfig.context``. Everything is restored afterwards.

Calls that happen once or a few hundred times per command (loading,
filtering, aligning, each metric, each TER and METEOR segment) get a span
each: name, start, end and parent, kept in memory and written to
``spans.json`` when the run ends. Calls that happen tens of thousands of
times (comparators, the chain, prepare, the pair scorer, tokenize) only
add to a counter and a time total, so that tracing stays cheap and does
not itself allocate memory inside the measured filter.

The command runs twice: the first pass gives the times, the second also
runs tracemalloc around ``align_filter``. Both must reproduce the
untraced outputs byte for byte and the same counts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import bifilter  # noqa: E402
from bifilter import bisentence_filter, cli, mt_metrics, seq_align, similarity  # noqa: E402

TIERS = tuple(name for name, _ in similarity.DEFAULT_CHAIN.tiers)
ENGINES = ("dp", "astar")
# Tracer.n keys that count calls through a wrapper (the others count
# accepts and TER shifts).
WRAPPED_CALLS = (*TIERS, "chain", "prepare", "scorer", "tokenize", "tokenize.cli")


class Tracer:
    """Spans of one traced command, plus counters and summed seconds for
    calls too frequent to keep a span each."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.n: Counter = Counter()
        self.s: defaultdict = defaultdict(float)
        self.info: dict = {}
        self.problems: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
               "end": None, "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum((r["end"] - r["start"] for r in self.spans if r["name"] == name), 0.0)

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.spans if r["name"] == name]

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def timed(self, key: str, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.s[key] += time.perf_counter() - t0
            self.n[key] += 1
            return result
        return wrapper


class TimedChainContext(similarity.ChainContext):
    """ChainContext that counts and times prepare() calls, cache hits
    included."""

    def __init__(self, tracer: Tracer, **kwargs):
        super().__init__(**kwargs)
        self._tracer = tracer

    def prepare(self, sentence):
        t0 = time.perf_counter()
        prepared = super().prepare(sentence)
        self._tracer.s["prepare"] += time.perf_counter() - t0
        self._tracer.n["prepare"] += 1
        return prepared


def _comparator(tr: Tracer, name: str, fn, threshold: float):
    def wrapper(pa, pb, ctx, chain):
        t0 = time.perf_counter()
        score = fn(pa, pb, ctx, chain)
        tr.s[name] += time.perf_counter() - t0
        tr.n[name] += 1
        if score >= threshold:
            tr.n[name + ".accepts"] += 1
        return score
    return wrapper


def _patches(tr: Tracer, measure_alloc: bool) -> list[tuple[object, str, object]]:
    chain_evaluate = bisentence_filter.chain_evaluate

    def timed_chain(a, b, chain, context):
        t0 = time.perf_counter()
        decision = chain_evaluate(a, b, chain, context)
        tr.s["chain"] += time.perf_counter() - t0
        tr.n["chain"] += 1
        if decision.accepted:
            tr.n["chain.accepts"] += 1
        return decision

    align_filter = cli.align_filter

    def timed_align_filter(bitext, cfg):
        ctx = cfg.context
        cfg = dataclasses.replace(cfg, context=TimedChainContext(
            tr, stoplist=ctx.stoplist, lexicon=ctx.lexicon, variant_cap=ctx.variant_cap))
        with tr.span("bisentence_filter.align_filter"):
            if measure_alloc:
                tracemalloc.start()
            try:
                return align_filter(bitext, cfg)
            finally:
                if measure_alloc:
                    tr.info["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

    lexicon_scorer = cli.lexicon_scorer
    align_documents = cli.align_documents

    def timed_align_documents(doc_a, doc_b, scorer, cfg, stats=None):
        stats = {} if stats is None else stats
        with tr.span(f"seq_align.{cfg.engine}"):
            alignment = align_documents(doc_a, doc_b, scorer, cfg, stats=stats)
        tr.info.update(engine=cfg.engine, cells=len(doc_a) * len(doc_b), **stats)
        if "scorer_calls" in stats and stats["scorer_calls"] != tr.n["scorer"]:
            tr.problems.append(f"A* stats report {stats['scorer_calls']} scorer "
                               f"calls, the scorer saw {tr.n['scorer']}")
        return alignment

    ter, meteor = mt_metrics.ter, mt_metrics.meteor

    def spanned_ter(cand, refs):
        with tr.span("mt_metrics.ter_segment"):
            result = ter(cand, refs)
        tr.n["ter_shifts"] += result.shifts
        return result

    return [
        (cli, "load_bitext", tr.spanned("corpus_io.load", cli.load_bitext)),
        (cli, "load_corpus", tr.spanned("corpus_io.load", cli.load_corpus)),
        (cli, "ensure_translations", tr.spanned("corpus_io.translate", cli.ensure_translations)),
        (cli, "write_bitext", tr.spanned("corpus_io.write", cli.write_bitext)),
        (cli, "align_filter", timed_align_filter),
        (cli, "lexicon_scorer", lambda *a, **k: tr.timed("scorer", lexicon_scorer(*a, **k))),
        (cli, "align_documents", timed_align_documents),
        (cli, "metric_report", tr.spanned("mt_metrics.metric_report", cli.metric_report)),
        (cli, "tokenize", tr.timed("tokenize.cli", cli.tokenize)),
        (similarity, "tokenize", tr.timed("tokenize", similarity.tokenize)),
        (seq_align, "tokenize", tr.timed("tokenize", seq_align.tokenize)),
        (bisentence_filter, "chain_evaluate", timed_chain),
        (mt_metrics, "bleu", tr.spanned("mt_metrics.bleu", mt_metrics.bleu)),
        (mt_metrics, "nist", tr.spanned("mt_metrics.nist", mt_metrics.nist)),
        (mt_metrics, "ter_corpus", tr.spanned("mt_metrics.ter", mt_metrics.ter_corpus)),
        (mt_metrics, "meteor_corpus", tr.spanned("mt_metrics.meteor", mt_metrics.meteor_corpus)),
        (mt_metrics, "ter", spanned_ter),
        (mt_metrics, "meteor", tr.spanned("mt_metrics.meteor_segment", meteor)),
    ]


def run_traced(argv: list[str], tr: Tracer, measure_alloc: bool) -> int:
    """Run one CLI command in process with every wrapper in place."""
    patches = _patches(tr, measure_alloc)
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    comparators = dict(similarity.COMPARATORS)
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        for name, threshold in similarity.DEFAULT_CHAIN.tiers:
            similarity.register_comparator(
                name, _comparator(tr, name, comparators[name], threshold), replace=True)
        with contextlib.redirect_stdout(io.StringIO()), tr.span("cli.main"):
            return cli.main(argv)
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)
        for name in TIERS:
            similarity.register_comparator(name, comparators[name], replace=True)


def _quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command. Layers the command does not
    reach read 0."""
    m: dict[str, tuple[float, str]] = {}
    for t in TIERS:
        m[f"similarity.{t}.calls"] = (tr.n[t], "count")
        m[f"similarity.{t}.s"] = (tr.s[t], "s")
        m[f"similarity.{t}.accepts"] = (tr.n[t + ".accepts"], "count")
    calls, secs = tr.n["chain"], tr.s["chain"]
    m["similarity.chain.calls"] = (calls, "count")
    m["similarity.chain.s"] = (secs, "s")
    m["similarity.chain.accept_frac"] = (tr.n["chain.accepts"] / calls if calls else 0.0, "fraction")
    m["similarity.chain.pairs_per_s"] = (calls / secs if secs else 0.0, "1/s")
    m["similarity.prepare_calls"] = (tr.n["prepare"], "count")
    m["similarity.prepare_s"] = (tr.s["prepare"], "s")

    align_filter_s = tr.total("bisentence_filter.align_filter")
    m["bisentence_filter.align_filter_s"] = (align_filter_s, "s")
    # prepare() runs inside chain_evaluate, so the chain time covers it.
    m["bisentence_filter.resolve_self_s"] = (align_filter_s - secs if align_filter_s else 0.0, "s")
    m["bisentence_filter.alloc_peak_mb"] = (tr.info.get("alloc_peak", 0) / 2**20, "MB")

    m["corpus_io.load_s"] = (tr.total("corpus_io.load"), "s")
    m["corpus_io.write_s"] = (tr.total("corpus_io.write"), "s")
    m["corpus_io.translate_s"] = (tr.total("corpus_io.translate"), "s")

    for engine in ENGINES:
        ran = tr.info.get("engine") == engine
        scorer_calls = tr.n["scorer"] if ran else 0
        scorer_s = tr.s["scorer"] if ran else 0.0
        m[f"seq_align.{engine}.scorer_calls"] = (scorer_calls, "count")
        m[f"seq_align.{engine}.scorer_s"] = (scorer_s, "s")
        m[f"seq_align.{engine}.engine_self_s"] = (tr.total(f"seq_align.{engine}") - scorer_s, "s")
    m["seq_align.astar.expanded"] = (tr.info.get("expanded", 0), "count")
    cells = tr.info.get("cells", 0)
    m["seq_align.astar.cell_frac"] = (
        m["seq_align.astar.scorer_calls"][0] / cells if cells else 0.0, "fraction")

    for name in ("bleu", "nist", "ter", "meteor"):
        m[f"mt_metrics.{name}_s"] = (tr.total(f"mt_metrics.{name}"), "s")
    ter_ms = [1000 * d for d in tr.durations("mt_metrics.ter_segment")]
    meteor_ms = [1000 * d for d in tr.durations("mt_metrics.meteor_segment")]
    m["mt_metrics.ter_seg_p50_ms"] = (_quantile(ter_ms, 50), "ms")
    m["mt_metrics.ter_seg_p99_ms"] = (_quantile(ter_ms, 99), "ms")
    m["mt_metrics.meteor_seg_p99_ms"] = (_quantile(meteor_ms, 99), "ms")
    m["mt_metrics.ter_shifts"] = (tr.n["ter_shifts"], "count")
    m["textnorm.tokenize_s"] = (tr.s["tokenize"] + tr.s["tokenize.cli"], "s")

    (root,) = [r for r in tr.spans if r["name"] == "cli.main"]
    stages = sum(r["end"] - r["start"] for r in tr.spans if r["parent"] == root["id"])
    m["cli.overhead_s"] = (root["end"] - root["start"] - stages - tr.s["tokenize.cli"], "s")
    return m


def _per_call_cost(wrap, calls: int = 5000, repeats: int = 5) -> float:
    """Seconds that wrap adds to one call, timed around a no-op: the
    fastest of a few repeats less the bare no-op's fastest."""
    def noop():
        return None

    def fastest(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(0.0, (fastest(wrap(noop)) - fastest(noop)) / calls)


def tracing_overhead(tr: Tracer) -> float:
    """Estimated seconds the wrappers added to a traced command: its
    wrapped calls and spans times what one of each costs on a no-op.
    Subtracting an untraced run's time instead would measure mostly the
    machine's drift between the two runs."""
    scratch = Tracer()
    call_s = _per_call_cost(lambda fn: scratch.timed("noop", fn))
    span_s = _per_call_cost(lambda fn: scratch.spanned("noop", fn))
    return call_s * sum(tr.n[k] for k in WRAPPED_CALLS) + span_s * len(tr.spans)


def traced_metrics(command, workdir: Path, runner, verify) -> dict[str, tuple[float, str]]:
    """Run the two traced passes and return the per-layer metrics.

    command(out) gives the CLI arguments writing into directory out, and
    verify(out) the problems of the outputs found there. Each pass counts
    as one runner operation; it fails when the command fails, when verify
    finds a problem, or (second pass) when a count differs from the first.
    """
    if not Path(bifilter.__file__).resolve().is_relative_to(SRC):
        runner.record("traced", [f"bifilter imported from {bifilter.__file__}, not {SRC}"])
        return {}
    passes = []
    for label, measure_alloc in (("traced", False), ("traced-alloc", True)):
        out = workdir / label
        out.mkdir()
        tr = Tracer()
        problems = []
        try:
            rc = run_traced(command(out), tr, measure_alloc)
        except Exception as exc:  # a crash is a failed operation, not a crash of the run
            rc = f"{type(exc).__name__}: {exc}"
        if rc != 0:
            problems.append(f"traced command failed: {rc}")
        else:
            problems += verify(out)
        problems += tr.problems
        if passes and not problems:
            first = {k: v for k, (v, u) in layer_metrics(passes[0]).items() if u == "count"}
            again = {k: v for k, (v, u) in layer_metrics(tr).items() if u == "count"}
            problems += [f"{k} is {again[k]} here but {first[k]} in the first pass"
                         for k in first if first[k] != again[k]]
        runner.record(label, problems)
        passes.append(tr)
        if problems:
            break
    (workdir / "spans.json").write_text(
        json.dumps({tr_label: tr.spans for tr_label, tr in zip(("traced", "traced-alloc"), passes)}),
        encoding="utf-8")
    if len(passes) < 2 or runner.failed:
        return {}
    metrics = layer_metrics(passes[0])
    metrics["bisentence_filter.alloc_peak_mb"] = layer_metrics(passes[1])["bisentence_filter.alloc_peak_mb"]
    metrics["trace.overhead_s"] = (tracing_overhead(passes[0]), "s")
    return metrics
