"""Line-oriented corpus and bitext I/O.

A corpus file is UTF-8, LF line endings, one sentence per line. The bitext
carries an optional intermediate translation layer aligned 1:1 with the
source side; translation providers fill in missing layer entries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Protocol, Sequence

from ._records import (
    _decode_utf8,
    _split_lines,
    read_lines,
    read_rows,
    write_files,
)
from .errors import DataError, _at_least, _fraction, _index
from .textnorm import is_punct_token, tokenize

__all__ = [
    "Bitext",
    "VocabStats",
    "TranslationProvider",
    "FileProvider",
    "CommandProvider",
    "REPORT_HEADER",
    "load_corpus",
    "load_bitext",
    "ensure_translations",
    "vocab_stats",
    "write_bitext",
    "load_filter_report",
]


@dataclass(frozen=True)
class Bitext:
    """Source and target corpora plus the optional translation layer, each
    a tuple of lines (any other sequence given is made one).

    Source and target lengths may differ; the translation layer, when
    present, must have exactly one line per source line.
    """

    source: tuple[str, ...]
    target: tuple[str, ...]
    trans: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        for side in ("source", "target", "trans"):
            lines = getattr(self, side)
            if lines is not None:
                object.__setattr__(self, side, tuple(lines))
        if self.trans is not None and len(self.trans) != len(self.source):
            raise DataError(
                f"translation layer has {len(self.trans)} lines but the "
                f"source has {len(self.source)}; they must align 1:1"
            )


@dataclass(frozen=True)
class VocabStats:
    sentence_pairs: int
    source_vocab: int
    target_vocab: int


def load_corpus(path: str | Path) -> tuple[str, ...]:
    """Read a corpus file: element i is file line i+1, and interior empty
    lines survive as empty strings."""
    return tuple(read_lines(path, "corpus"))


def _corpus_text(lines, path) -> Iterator[str]:
    """One line per sentence, LF endings, trailing newline (no lines give
    an empty text), so that load_corpus reads the lines back. A line may
    hold a CR anywhere but at its end, where the reader takes it for part
    of a CRLF ending. Every line is checked when this is called; the text
    comes one line at a time."""
    for idx, line in enumerate(lines):
        if "\n" in line or line.endswith("\r"):
            raise DataError(
                f"{path}: line {idx + 1} contains an embedded line terminator"
            )
    return (line + "\n" for line in lines)


def load_bitext(
    src: str | Path,
    tgt: str | Path,
    trans: str | Path | None = None,
) -> Bitext:
    """Assemble a bitext from corpus files. No alignment between source and
    target is assumed; a translation file must match the source line count."""
    source = load_corpus(src)
    target = load_corpus(tgt)
    trans_lines = None
    if trans is not None:
        trans_lines = load_corpus(trans)
        if len(trans_lines) != len(source):
            raise DataError(
                f"{trans}: {len(trans_lines)} lines, but source {src} "
                f"has {len(source)}; the translation layer must align 1:1"
            )
    return Bitext(source=source, target=target, trans=trans_lines)


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
            self._lines = load_corpus(self.path)
        out = []
        for i in indices:
            if i >= len(self._lines):
                raise DataError(
                    f"{self.path}: has {len(self._lines)} lines, but source "
                    f"line {i + 1} needs a translation"
                )
            out.append(self._lines[i])
        return out


# A batch whose command runs longer than this is taken to hang.
_BATCH_TIMEOUT_S = 600.0


class CommandProvider:
    """Provider that pipes batches of source lines through an external
    command's stdin and reads one translated line back per input line.

    The command is a shell string run once per batch, in a session of its
    own. The pipe is UTF-8 both ways, whatever the locale; output that is
    not UTF-8 raises DataError naming the batch. A batch that has not
    finished after _BATCH_TIMEOUT_S seconds has its whole process group
    killed and raises DataError.
    """

    def __init__(self, command: str, batch_size: int = 100):
        _at_least("batch size", batch_size, 1)
        self.command = command
        self.batch_size = batch_size

    def translate(self, lines: Sequence[str], indices: Sequence[int]) -> list[str]:
        # imported here, their only use, so that importing the package
        # does not pay for them
        import signal
        import subprocess

        out: list[str] = []
        for number, start in enumerate(range(0, len(lines), self.batch_size), 1):
            batch = list(lines[start : start + self.batch_size])
            where = (
                f"translation command, batch {number} (source lines "
                f"{indices[start] + 1}-{indices[start + len(batch) - 1] + 1})"
            )
            proc = subprocess.Popen(
                self.command,
                shell=True,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                start_new_session=True,
            )
            try:
                stdout, stderr = proc.communicate(
                    "".join(line + "\n" for line in batch).encode("utf-8"),
                    timeout=_BATCH_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.communicate()
                raise DataError(
                    f"{where}: no result after {_BATCH_TIMEOUT_S:g} s; killed"
                ) from None
            if proc.returncode != 0:
                detail = stderr.decode("utf-8", errors="replace").strip()
                raise DataError(
                    f"{where}: exited with {proc.returncode}"
                    + (f": {detail}" if detail else "")
                )
            got = _split_lines(_decode_utf8(stdout, where))
            if len(got) != len(batch):
                raise DataError(
                    f"{where}: returned {len(got)} lines for {len(batch)}"
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
    src_lines = bitext.source
    if bitext.trans is not None:
        trans_lines = list(bitext.trans)
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
        trans=tuple(trans_lines),
    )


def vocab_stats(bitext: Bitext) -> VocabStats:
    """Distinct case-folded word counts per side plus the pair count.

    Punctuation tokens are not vocabulary. sentence_pairs is
    min(|source|, |target|): the pair count for an aligned bitext, an upper
    bound for an unaligned one.
    """

    def vocab(lines: tuple[str, ...]) -> int:
        words: set[str] = set()
        for line in lines:
            for tok in tokenize(line):
                if not is_punct_token(tok):
                    words.add(tok)
        return len(words)

    return VocabStats(
        sentence_pairs=min(len(bitext.source), len(bitext.target)),
        source_vocab=vocab(bitext.source),
        target_vocab=vocab(bitext.target),
    )


REPORT_HEADER = "src_idx\ttgt_idx\tscore\ttier"


def _report_text(rows) -> Iterator[str]:
    """Accepted pairs as TSV: src_idx, tgt_idx, score (4 decimals),
    deciding tier index, one line at a time. Header always present."""
    yield REPORT_HEADER + "\n"
    for src_idx, tgt_idx, score, tier in rows:
        yield f"{src_idx}\t{tgt_idx}\t{score:.4f}\t{tier}\n"


def load_filter_report(path: str | Path) -> list[tuple[int, int, float, int]]:
    """Read back a report TSV written by write_bitext. The header
    must be the file's first line; indices and tiers are non-negative
    integers and scores lie in [0, 1]."""
    return read_rows(path, "report", REPORT_HEADER.replace("\t", "<TAB>"),
                     _report_row, header=REPORT_HEADER)


def _report_row(fields: list[str]) -> tuple[int, int, float, int]:
    return (_index(fields[0], "src_idx"), _index(fields[1], "tgt_idx"),
            _fraction(fields[2], "score"), _index(fields[3], "tier"))


def write_bitext(result, bitext: Bitext, out_src, out_tgt, report) -> None:
    """Write the accepted pairs of a filter result in source order: two
    parallel line files plus the TSV report, all three through one
    write_files call, so a failed write leaves all three with their old
    content."""
    src, tgt = bitext.source, bitext.target
    n_src, n_tgt = len(src), len(tgt)
    rows = sorted(result.accepted, key=lambda r: r[0])
    for src_idx, tgt_idx, _score, _tier in rows:
        if not (0 <= src_idx < n_src) or not (0 <= tgt_idx < n_tgt):
            raise DataError(
                f"accepted pair ({src_idx}, {tgt_idx}) is outside the "
                f"{n_src}x{n_tgt} corpus bounds"
            )

    def outputs():  # each file is checked when write_files reaches it
        yield out_src, _corpus_text([src[r[0]] for r in rows], out_src), "corpus"
        yield out_tgt, _corpus_text([tgt[r[1]] for r in rows], out_tgt), "corpus"
        yield report, _report_text(rows), "report"

    write_files(outputs())
