"""Line-oriented corpus and bitext I/O.

A corpus file is UTF-8, LF line endings, one sentence per line. The bitext
carries an optional intermediate translation layer aligned 1:1 with the
source side; translation providers fill in missing layer entries.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol, Sequence

from ._records import _split_lines, read_lines, read_records, write_text
from .errors import ConfigError, DataError
from .textnorm import is_punct_token, tokenize

__all__ = [
    "Corpus",
    "Bitext",
    "VocabStats",
    "TranslationProvider",
    "FileProvider",
    "CommandProvider",
    "REPORT_HEADER",
    "load_corpus",
    "save_corpus",
    "load_bitext",
    "ensure_translations",
    "vocab_stats",
    "write_bitext",
    "write_filter_report",
    "load_filter_report",
]


@dataclass(frozen=True)
class Corpus:
    """Ordered sentence lines; lines[i] corresponds to file line i+1."""

    lines: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))

    def __len__(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class Bitext:
    """Source and target corpora plus the optional translation layer.

    Source and target lengths may differ; the translation layer, when
    present, must have exactly one line per source line.
    """

    source: Corpus
    target: Corpus
    trans: Optional[Corpus] = None

    def __post_init__(self):
        if self.trans is not None and len(self.trans.lines) != len(self.source.lines):
            raise DataError(
                f"translation layer has {len(self.trans.lines)} lines but the "
                f"source has {len(self.source.lines)}; they must align 1:1"
            )


@dataclass(frozen=True)
class VocabStats:
    sentence_pairs: int
    source_vocab: int
    target_vocab: int


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus file; interior empty lines survive as empty strings."""
    return Corpus(lines=tuple(read_lines(path, "corpus")))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write one sentence per line, LF endings, trailing newline (an empty
    corpus gives an empty file), so that reloading reproduces the lines."""
    for idx, line in enumerate(corpus.lines):
        if "\n" in line or "\r" in line:
            raise DataError(
                f"{path}: line {idx + 1} contains an embedded line terminator"
            )
    write_text(path, "".join(line + "\n" for line in corpus.lines), "corpus")


def load_bitext(
    src: str | Path,
    tgt: str | Path,
    trans: str | Path | None = None,
) -> Bitext:
    """Assemble a bitext from corpus files. No alignment between source and
    target is assumed; a translation file must match the source line count."""
    source = load_corpus(src)
    target = load_corpus(tgt)
    trans_corpus = None
    if trans is not None:
        trans_corpus = load_corpus(trans)
        if len(trans_corpus.lines) != len(source.lines):
            raise DataError(
                f"{trans}: {len(trans_corpus.lines)} lines, but source {src} "
                f"has {len(source.lines)}; the translation layer must align 1:1"
            )
    return Bitext(source=source, target=target, trans=trans_corpus)


class TranslationProvider(Protocol):
    """Anything that can translate source lines, one output line per input
    line, in order."""

    def translate(self, lines: Sequence[str], indices: Sequence[int]) -> list[str]:
        ...


class FileProvider:
    """Provider backed by a pre-translated file whose line i translates
    source line i."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lines: tuple[str, ...] | None = None

    def translate(self, lines: Sequence[str], indices: Sequence[int]) -> list[str]:
        if self._lines is None:
            self._lines = load_corpus(self.path).lines
        out = []
        for i in indices:
            if i >= len(self._lines):
                raise DataError(
                    f"{self.path}: has {len(self._lines)} lines, but source "
                    f"line {i + 1} needs a translation"
                )
            out.append(self._lines[i])
        return out


class CommandProvider:
    """Provider that pipes batches of source lines through an external
    command's stdin and reads one translated line back per input line.

    The command is a shell string run once per batch.
    """

    def __init__(self, command: str, batch_size: int = 100):
        if batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {batch_size}")
        self.command = command
        self.batch_size = batch_size

    def translate(self, lines: Sequence[str], indices: Sequence[int]) -> list[str]:
        out: list[str] = []
        for start in range(0, len(lines), self.batch_size):
            batch = list(lines[start : start + self.batch_size])
            proc = subprocess.run(
                self.command,
                shell=True,
                input="".join(line + "\n" for line in batch),
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                detail = proc.stderr.strip()
                raise DataError(
                    f"translation command exited with {proc.returncode}"
                    + (f": {detail}" if detail else "")
                )
            got = _split_lines(proc.stdout)
            if len(got) != len(batch):
                raise DataError(
                    f"translation command returned {len(got)} lines "
                    f"for a {len(batch)}-line batch"
                )
            out.extend(got)
        return out


def ensure_translations(
    bitext: Bitext, provider: Optional[TranslationProvider] = None
) -> Bitext:
    """Fill missing translation-layer entries through the provider.

    An empty trans line marks a missing translation. Source lines that are
    themselves empty stay untranslated (there is nothing to translate), so
    downstream code must treat empty source lines as unmatched. Idempotent:
    a complete layer comes back unchanged.
    """
    src_lines = bitext.source.lines
    if bitext.trans is not None:
        trans_lines = list(bitext.trans.lines)
    else:
        trans_lines = [""] * len(src_lines)
    missing = [i for i, t in enumerate(trans_lines) if t == "" and src_lines[i] != ""]
    if not missing and bitext.trans is not None:
        return bitext
    if missing:
        if provider is None:
            raise DataError(
                f"{len(missing)} source lines have no translation and no "
                "provider is configured"
            )
        got = provider.translate([src_lines[i] for i in missing], missing)
        if len(got) != len(missing):
            raise DataError(
                f"provider returned {len(got)} lines for {len(missing)} requests"
            )
        for i, line in zip(missing, got):
            if line == "":
                raise DataError(
                    f"provider returned an empty translation for source line {i + 1}"
                )
            trans_lines[i] = line
    return Bitext(
        source=bitext.source,
        target=bitext.target,
        trans=Corpus(lines=tuple(trans_lines)),
    )


def vocab_stats(bitext: Bitext) -> VocabStats:
    """Distinct case-folded word counts per side plus the pair count.

    Punctuation tokens are not vocabulary. sentence_pairs is
    min(|source|, |target|): the pair count for an aligned bitext, an upper
    bound for an unaligned one.
    """

    def vocab(corpus: Corpus) -> int:
        words: set[str] = set()
        for line in corpus.lines:
            for tok in tokenize(line).tokens:
                if not is_punct_token(tok):
                    words.add(tok)
        return len(words)

    return VocabStats(
        sentence_pairs=min(len(bitext.source.lines), len(bitext.target.lines)),
        source_vocab=vocab(bitext.source),
        target_vocab=vocab(bitext.target),
    )


REPORT_HEADER = "src_idx\ttgt_idx\tscore\ttier"


def write_filter_report(rows, path: str | Path) -> None:
    """Write accepted pairs as TSV: src_idx, tgt_idx, score (4 decimals),
    deciding tier index. Header always present."""
    lines = [REPORT_HEADER]
    for src_idx, tgt_idx, score, tier in rows:
        lines.append(f"{src_idx}\t{tgt_idx}\t{score:.4f}\t{tier}")
    write_text(path, "".join(line + "\n" for line in lines), "report")


def load_filter_report(path: str | Path) -> list[tuple[int, int, float, int]]:
    """Read back a report TSV written by write_filter_report. The header
    must be the file's first line."""
    records = read_records(path, "report")
    if not records or records[0] != (1, REPORT_HEADER):
        raise DataError(f"{path}: missing report header {REPORT_HEADER!r}")
    rows: list[tuple[int, int, float, int]] = []
    for lineno, line in records[1:]:
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 tab-separated columns")
        try:
            rows.append((int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3])))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return rows


def write_bitext(result, bitext: Bitext, out_src, out_tgt, report) -> None:
    """Write the accepted pairs of a filter result in source order: two
    parallel line files plus the TSV report."""
    n_src, n_tgt = len(bitext.source.lines), len(bitext.target.lines)
    rows = sorted(result.accepted, key=lambda r: r[0])
    for src_idx, tgt_idx, _score, _tier in rows:
        if not (0 <= src_idx < n_src) or not (0 <= tgt_idx < n_tgt):
            raise DataError(
                f"accepted pair ({src_idx}, {tgt_idx}) is outside the "
                f"{n_src}x{n_tgt} corpus bounds"
            )
    save_corpus(Corpus(tuple(bitext.source.lines[r[0]] for r in rows)), out_src)
    save_corpus(Corpus(tuple(bitext.target.lines[r[1]] for r in rows)), out_tgt)
    write_filter_report(rows, report)
