"""Command line entry point.

Subcommands: filter (clean a noisy bitext), align (sequence-align two
documents), evaluate (score a candidate corpus), stats (corpus statistics),
eval-filter (judge a filter run against gold labels). Every run that writes
a report also writes a JSON manifest (resolved config, input digests,
version, wall time) next to it.

The environment variable BIFILTER_CONFIG may point to a key-value file
supplying flag defaults; explicit flags always win.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from ._records import read_records, write_text
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
from .mt_metrics import METRIC_NAMES, BleuParams, metric_report
from .seq_align import (
    AlignConfig,
    align_documents,
    equality_scorer,
    lexicon_scorer,
    load_dictionary,
    threshold_filter,
)
from .similarity import DEFAULT_CHAIN, ChainContext, load_chain_file
from .textnorm import StopList, SynonymLexicon, default_stoplist, tokenize

PAIRS_HEADER = "i\tj\tlikelihood"


def _env_config() -> dict[str, str]:
    path = os.environ.get("BIFILTER_CONFIG")
    if not path:
        return {}
    out: dict[str, str] = {}
    for lineno, line in read_records(path, "BIFILTER_CONFIG file", ConfigError):
        parts = line.split("#", 1)[0].split(None, 1)
        if len(parts) != 2:
            raise ConfigError(f"{path}:{lineno}: expected 'key value'")
        out[parts[0].replace("-", "_")] = parts[1].strip()
    return out


def _cast_like(builtin, raw: str, key: str):
    where = f"{os.environ['BIFILTER_CONFIG']}: value for {key!r}"
    if isinstance(builtin, bool):
        word = raw.lower()
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("0", "false", "no", "off"):
            return False
        raise ConfigError(
            f"{where} is not a boolean (1/true/yes/on or 0/false/no/off): {raw!r}"
        )
    try:
        if isinstance(builtin, int):
            return int(raw)
        if isinstance(builtin, float):
            return float(raw)
    except ValueError:
        raise ConfigError(f"{where} is not a number: {raw!r}") from None
    return raw


class _Defaults:
    """Flag defaults: built-in values, overridable via BIFILTER_CONFIG.
    Records every key a flag asked for, so check_used can reject the
    config keys no flag reads."""

    def __init__(self):
        self.env = _env_config()
        self.asked: set[str] = set()

    def get(self, key: str, builtin):
        self.asked.add(key)
        raw = self.env.get(key)
        if raw is None:
            return builtin
        return _cast_like(builtin, raw, key)

    def check_used(self) -> None:
        unknown = sorted(set(self.env) - self.asked)
        if unknown:
            raise ConfigError(
                f"{os.environ['BIFILTER_CONFIG']}: unknown key(s) "
                f"{', '.join(unknown)}: no flag takes its default from them"
            )


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_manifest(report_path, subcommand: str, args, inputs, started: float):
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
    write_text(f"{report_path}.manifest.json", _json(manifest), "manifest")


def _load_context(args) -> ChainContext:
    if getattr(args, "stoplist", None):
        stoplist = StopList.load(args.stoplist)
    else:
        stoplist = default_stoplist(args.stoplist_lang)
    if getattr(args, "synonyms", None):
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
        context=_load_context(args),
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
    alignment = align_documents(doc_a, doc_b, scorer, cfg)
    kept = threshold_filter(alignment, cfg.threshold)
    lines = [PAIRS_HEADER]
    lines += [f"{i}\t{j}\t{s:.4f}" for i, j, s in kept]
    write_text(args.out, "".join(line + "\n" for line in lines), "pairs")
    _write_manifest(args.out, "align", args,
                    [args.doc_a, args.doc_b, args.dict], started)
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
        bleu_params=BleuParams(order=args.bleu_order),
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
    bitext = load_bitext(args.src, args.tgt)
    stats = vocab_stats(bitext)
    print(f"sentence_pairs\t{stats.sentence_pairs}")
    print(f"source_vocab\t{stats.source_vocab}")
    print(f"target_vocab\t{stats.target_vocab}")
    if args.report:
        payload = {
            "sentence_pairs": stats.sentence_pairs,
            "source_vocab": stats.source_vocab,
            "target_vocab": stats.target_vocab,
        }
        write_text(args.report, _json(payload), "report")
        _write_manifest(args.report, "stats", args, [args.src, args.tgt], started)
    return 0


def cmd_eval_filter(args) -> int:
    started = time.monotonic()
    rows = load_filter_report(args.report)
    poor, good = load_gold_labels(args.gold)
    quality = evaluate_filtering(rows, poor, good)
    print(f"total\t{quality.total}")
    print(f"poor_in_test\t{quality.poor_in_test}")
    print(f"poor_filtered\t{quality.poor_filtered}")
    print(f"good_filtered\t{quality.good_filtered}")
    if args.out:
        payload = {
            "total": quality.total,
            "poor_in_test": quality.poor_in_test,
            "poor_filtered": quality.poor_filtered,
            "good_filtered": quality.good_filtered,
        }
        write_text(args.out, _json(payload), "report")
        _write_manifest(args.out, "eval-filter", args,
                        [args.report, args.gold], started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    d = _Defaults()
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
    p.add_argument("--batch-size", type=int, default=d.get("batch_size", 100),
                   help="lines per provider command invocation")
    p.add_argument("--chain", default=d.get("chain", None),
                   help="comparator chain config file (default: built-in chain)")
    p.add_argument("--window", type=int, default=d.get("window", 30),
                   help="candidate search half-width around the diagonal")
    p.add_argument("--lookahead", type=int, default=d.get("lookahead", 1),
                   help="later lines that may contest a candidate")
    p.add_argument("--displacement-rounds", type=int,
                   default=d.get("displacement_rounds", 3),
                   help="bounded veto-and-retry rounds")
    p.add_argument("--allow-reuse", action="store_true",
                   default=d.get("allow_reuse", False),
                   help="let one target line pair with several source lines")
    p.add_argument("--stoplist", default=None,
                   help="stopword file overriding the shipped list")
    p.add_argument("--stoplist-lang", default=d.get("stoplist_lang", "en"),
                   help="shipped stoplist language tag")
    p.add_argument("--synonyms", default=None, help="synonym lexicon file")
    p.add_argument("--variant-cap", type=int, default=d.get("variant_cap", 64),
                   help="max synonym variants per sentence")
    p.add_argument("--out-src", required=True, help="cleaned source output")
    p.add_argument("--out-tgt", required=True, help="cleaned target output")
    p.add_argument("--report", required=True, help="accepted-pairs TSV output")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("align", formatter_class=fmt,
                       help="sequence-align two documents")
    p.add_argument("--doc-a", required=True, help="first document")
    p.add_argument("--doc-b", required=True, help="second document")
    p.add_argument("--dict", default=d.get("dict", None),
                   help="translation dictionary TSV "
                        "(default: exact-equality scorer)")
    p.add_argument("--gap", type=float, default=d.get("gap", 0.2),
                   help="gap penalty")
    p.add_argument("--threshold", type=float, default=d.get("threshold", 0.0),
                   help="drop pairs below this likelihood")
    p.add_argument("--engine", choices=("dp", "astar"),
                   default=d.get("engine", "dp"), help="search engine")
    p.add_argument("--out", required=True, help="pairs TSV output")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("evaluate", formatter_class=fmt,
                       help="score a candidate corpus against references")
    p.add_argument("--cand", required=True, help="candidate corpus")
    p.add_argument("--ref", required=True, action="append",
                   help="reference corpus (repeat for multiple references)")
    p.add_argument("--metrics", default=d.get("metrics", ",".join(METRIC_NAMES)),
                   help="comma-separated metric subset")
    p.add_argument("--bleu-order", type=int, default=d.get("bleu_order", 4),
                   help="max BLEU n-gram order")
    p.add_argument("--nist-order", type=int, default=d.get("nist_order", 5),
                   help="max NIST n-gram order")
    p.add_argument("--meteor-penalty-exponent", type=int,
                   default=d.get("meteor_penalty_exponent", 1),
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
    d.check_used()
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BifilterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
