"""Command line entry point.

Subcommands: filter (clean a noisy bitext), align (sequence-align two
documents), evaluate (score a candidate corpus), stats (corpus statistics),
eval-filter (judge a filter run against gold labels). Every run that writes
a report also writes a JSON manifest (resolved config, input digests,
version, wall time; for align also the engine's work counters) next to it,
unless the report is a device or a FIFO.

Every setting is a flag with a plain default. The BIFILTER_CONFIG
defaults file that older versions read is refused: a run with the
variable set exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from ._records import write_text, written_in_place
from .bisentence_filter import (
    FilterConfig,
    align_filter,
    evaluate_filtering,
    load_gold_labels,
)
from .corpus_io import (
    CommandProvider,
    FileProvider,
    ensure_translations,
    load_bitext,
    load_corpus,
    load_filter_report,
    vocab_stats,
    write_bitext,
)
from .errors import BifilterError, ConfigError, DataError
from .mt_metrics import METRIC_NAMES, metric_report
from .seq_align import (
    AlignConfig,
    align_documents,
    equality_scorer,
    lexicon_scorer,
    load_dictionary,
    threshold_filter,
)
from .similarity import DEFAULT_CHAIN, ChainContext, load_chain_file
from .textnorm import (
    StopList,
    SynonymLexicon,
    default_stoplist,
    stoplist_langs,
    tokenize,
)

PAIRS_HEADER = "i\tj\tlikelihood"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_manifest(report_path, subcommand: str, args, inputs, started: float,
                    stats=None):
    """Write <report_path>.manifest.json; stats, when given, is the run's
    work counters. A report written in place (a device such as /dev/null,
    a FIFO) gets no manifest: there is no file beside it to describe."""
    if written_in_place(report_path):
        return
    config = {}
    for key, value in sorted(vars(args).items()):
        if key == "func":
            continue
        config[key] = str(value) if isinstance(value, Path) else value
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "inputs": {
            str(p): _sha256(Path(p)) for p in inputs if p is not None
        },
        "version": __version__,
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    if stats is not None:
        manifest["stats"] = stats
    write_text(f"{report_path}.manifest.json", _json(manifest), "manifest")


def _print_fields(record) -> dict:
    """Print a dataclass record's fields as name<TAB>value lines, in field
    order, and return them as a dict."""
    fields = dataclasses.asdict(record)
    for name, value in fields.items():
        print(f"{name}\t{value}")
    return fields


def _load_context(args) -> ChainContext:
    if args.stoplist:
        stoplist = StopList.load(args.stoplist)
    elif args.stoplist_lang.lower() in stoplist_langs():
        stoplist = default_stoplist(args.stoplist_lang)
    else:
        raise ConfigError(
            f"--stoplist-lang {args.stoplist_lang!r}: no packaged stoplist "
            f"(packaged: {', '.join(stoplist_langs())})"
        )
    if args.synonyms:
        lexicon = SynonymLexicon.load(args.synonyms)
    else:
        lexicon = SynonymLexicon()
    return ChainContext(
        stoplist=stoplist, lexicon=lexicon, variant_cap=args.variant_cap
    )


def cmd_filter(args) -> int:
    started = time.monotonic()
    chain = load_chain_file(args.chain) if args.chain else DEFAULT_CHAIN
    if args.provider_file and args.provider_cmd:
        raise ConfigError("give either --provider-file or --provider-cmd, not both")
    context = _load_context(args)
    bitext = load_bitext(args.src, args.tgt, args.trans)
    if args.provider_file:
        bitext = ensure_translations(bitext, FileProvider(args.provider_file))
    elif args.provider_cmd:
        bitext = ensure_translations(
            bitext, CommandProvider(args.provider_cmd, batch_size=args.batch_size)
        )
    if bitext.trans is None:
        raise ConfigError(
            "no translation layer: give --trans, --provider-file, or --provider-cmd"
        )
    cfg = FilterConfig(
        chain=chain,
        window=args.window,
        lookahead=args.lookahead,
        allow_reuse=args.allow_reuse,
        displacement_rounds=args.displacement_rounds,
        context=context,
    )
    result = align_filter(bitext, cfg)
    write_bitext(result, bitext, args.out_src, args.out_tgt, args.report)
    _write_manifest(
        args.report, "filter", args,
        [args.src, args.tgt, args.trans, args.chain,
         args.provider_file, args.stoplist, args.synonyms],
        started,
    )
    print(
        f"accepted {len(result.accepted)} pairs, "
        f"dropped {len(result.dropped_src)} source and "
        f"{len(result.dropped_tgt)} target lines"
    )
    return 0


def cmd_align(args) -> int:
    started = time.monotonic()
    cfg = AlignConfig(gap_penalty=args.gap, threshold=args.threshold,
                      engine=args.engine)
    doc_a = list(load_corpus(args.doc_a).lines)
    doc_b = list(load_corpus(args.doc_b).lines)
    if args.dict:
        scorer = lexicon_scorer(load_dictionary(args.dict))
    else:
        scorer = equality_scorer
    stats: dict = {}
    alignment = align_documents(doc_a, doc_b, scorer, cfg, stats=stats)
    kept = threshold_filter(alignment, cfg.threshold)
    lines = [PAIRS_HEADER]
    lines += [f"{i}\t{j}\t{s:.4f}" for i, j, s in kept]
    write_text(args.out, "".join(line + "\n" for line in lines), "pairs")
    _write_manifest(args.out, "align", args,
                    [args.doc_a, args.doc_b, args.dict], started, stats=stats)
    print(f"aligned {len(alignment.pairs)} pairs, kept {len(kept)} "
          f"at threshold {cfg.threshold}")
    return 0


def cmd_evaluate(args) -> int:
    started = time.monotonic()
    metrics = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    if not metrics:
        raise ConfigError("--metrics selected nothing")
    cand_corpus = load_corpus(args.cand)
    ref_corpora = [load_corpus(p) for p in args.ref]
    for p, corpus in zip(args.ref, ref_corpora):
        if len(corpus.lines) != len(cand_corpus.lines):
            raise DataError(
                f"{p}: {len(corpus.lines)} lines but candidate has "
                f"{len(cand_corpus.lines)}"
            )
    cands = [tokenize(line) for line in cand_corpus.lines]
    refs = [
        [tokenize(corpus.lines[i]) for corpus in ref_corpora]
        for i in range(len(cands))
    ]
    lexicon = SynonymLexicon.load(args.synonyms) if args.synonyms else None
    report = metric_report(
        cands,
        refs,
        metrics=metrics,
        bleu_order=args.bleu_order,
        nist_order=args.nist_order,
        lexicon=lexicon,
        meteor_penalty_exponent=args.meteor_penalty_exponent,
    )
    write_text(args.report, _json(report), "report")
    _write_manifest(args.report, "evaluate", args,
                    [args.cand, *args.ref, args.synonyms], started)
    for name in metrics:
        print(f"{name}\t{report[name]['score']:.4f}")
    return 0


def cmd_stats(args) -> int:
    started = time.monotonic()
    payload = _print_fields(vocab_stats(load_bitext(args.src, args.tgt)))
    if args.report:
        write_text(args.report, _json(payload), "report")
        _write_manifest(args.report, "stats", args, [args.src, args.tgt], started)
    return 0


def cmd_eval_filter(args) -> int:
    started = time.monotonic()
    rows = load_filter_report(args.report)
    poor, good = load_gold_labels(args.gold)
    payload = _print_fields(evaluate_filtering(rows, poor, good))
    if args.out:
        write_text(args.out, _json(payload), "report")
        _write_manifest(args.out, "eval-filter", args,
                        [args.report, args.gold], started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifilter",
        description="Bitext filtering, sequence alignment, and MT metrics.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("filter", formatter_class=fmt,
                       help="clean a noisy bitext through the comparator chain")
    p.add_argument("--src", required=True, help="source-language corpus")
    p.add_argument("--tgt", required=True, help="target-language corpus")
    p.add_argument("--trans", default=None,
                   help="intermediate translation of the source (target language)")
    p.add_argument("--provider-file", default=None,
                   help="pre-translated file filling missing trans lines by index")
    p.add_argument("--provider-cmd", default=None,
                   help="shell command translating stdin lines to stdout lines")
    p.add_argument("--batch-size", type=int, default=100,
                   help="lines per provider command invocation")
    p.add_argument("--chain", default=None,
                   help="comparator chain config file (default: built-in chain)")
    p.add_argument("--window", type=int, default=30,
                   help="candidate search half-width around the diagonal")
    p.add_argument("--lookahead", type=int, default=1,
                   help="later lines that may contest a candidate")
    p.add_argument("--displacement-rounds", type=int, default=3,
                   help="bounded veto-and-retry rounds")
    p.add_argument("--allow-reuse", action="store_true",
                   help="let one target line pair with several source lines")
    p.add_argument("--stoplist", default=None,
                   help="stopword file overriding the shipped list")
    p.add_argument("--stoplist-lang", default="en",
                   help="shipped stoplist language tag")
    p.add_argument("--synonyms", default=None, help="synonym lexicon file")
    p.add_argument("--variant-cap", type=int, default=64,
                   help="max synonym variants per sentence")
    p.add_argument("--out-src", required=True, help="cleaned source output")
    p.add_argument("--out-tgt", required=True, help="cleaned target output")
    p.add_argument("--report", required=True, help="accepted-pairs TSV output")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("align", formatter_class=fmt,
                       help="sequence-align two documents")
    p.add_argument("--doc-a", required=True, help="first document")
    p.add_argument("--doc-b", required=True, help="second document")
    p.add_argument("--dict", default=None,
                   help="translation dictionary TSV "
                        "(default: exact-equality scorer)")
    p.add_argument("--gap", type=float, default=0.2, help="gap penalty")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="drop pairs below this likelihood")
    p.add_argument("--engine", choices=("dp", "astar"), default="dp",
                   help="search engine")
    p.add_argument("--out", required=True, help="pairs TSV output")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("evaluate", formatter_class=fmt,
                       help="score a candidate corpus against references")
    p.add_argument("--cand", required=True, help="candidate corpus")
    p.add_argument("--ref", required=True, action="append",
                   help="reference corpus (repeat for multiple references)")
    p.add_argument("--metrics", default=",".join(METRIC_NAMES),
                   help="comma-separated metric subset")
    p.add_argument("--bleu-order", type=int, default=4,
                   help="max BLEU n-gram order")
    p.add_argument("--nist-order", type=int, default=5,
                   help="max NIST n-gram order")
    p.add_argument("--meteor-penalty-exponent", type=int, default=1,
                   help="exponent on the chunk ratio in the penalty")
    p.add_argument("--synonyms", default=None,
                   help="synonym lexicon file for the synonym matching pass")
    p.add_argument("--report", required=True, help="metric report JSON output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", formatter_class=fmt,
                       help="sentence-pair and vocabulary counts")
    p.add_argument("--src", required=True, help="source corpus")
    p.add_argument("--tgt", required=True, help="target corpus")
    p.add_argument("--report", default=None, help="optional JSON output")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval-filter", formatter_class=fmt,
                       help="judge a filter report against gold labels")
    p.add_argument("--report", required=True, help="filter report TSV")
    p.add_argument("--gold", required=True,
                   help="gold labels TSV (src_idx, tgt_idx, poor|good)")
    p.add_argument("--out", default=None, help="optional JSON output")
    p.set_defaults(func=cmd_eval_filter)
    return parser


def main(argv=None) -> int:
    try:
        config = os.environ.get("BIFILTER_CONFIG")
        if config:
            raise ConfigError(
                f"BIFILTER_CONFIG={config}: defaults files are no longer "
                "read; pass the settings as flags and unset the variable"
            )
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BifilterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
