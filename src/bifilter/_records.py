"""Reading and writing the package's files.

Corpora and the line-record files (stoplists, synonym lexicons,
dictionaries, gold labels, filter reports and chain files) agree on what
a line is: the file is UTF-8, lines end in LF, and
a trailing CR (foreign CRLF input) is dropped. Nothing else splits a
line. Every output file is written through write_text.
"""

from __future__ import annotations

from pathlib import Path

from .errors import DataError


def _decode_utf8(data: bytes, path, error=DataError) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise error(
            f"{path}: invalid UTF-8 at byte offset {exc.start} "
            f"(line {line}): {exc.reason}"
        ) from exc


def _split_lines(text: str) -> list[str]:
    """Split file text into lines: the trailing newline does not create an
    empty final line, and a trailing CR (foreign CRLF input) is dropped."""
    if not text:
        return []
    chunks = text.split("\n")
    if chunks[-1] == "":
        chunks.pop()
    return [c[:-1] if c.endswith("\r") else c for c in chunks]


def read_lines(path, what: str, error=DataError) -> list[str]:
    """Every line of a UTF-8 file. A read failure or invalid UTF-8 raises
    error naming the path; what says which kind of file it is."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    return _split_lines(_decode_utf8(data, path, error))


def read_records(path, what: str, error=DataError) -> list[tuple[int, str]]:
    """(line number, stripped line) for every line of a record file that is
    neither blank nor a '#' comment line. Errors as for read_lines."""
    records = []
    for lineno, raw in enumerate(read_lines(path, what, error), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            records.append((lineno, line))
    return records


def write_text(path, text: str, what: str) -> None:
    """Write text to path as UTF-8. A write failure raises DataError
    naming the path; what says which kind of file it is."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc
