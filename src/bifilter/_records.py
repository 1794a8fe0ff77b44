"""Reading and writing the package's files.

Corpora and the line-record files (stoplists, synonym lexicons,
dictionaries, gold labels, filter reports and chain files) agree on what
a line is: the file is UTF-8, lines end in LF, and a trailing CR (foreign
CRLF input) is dropped. Nothing else splits a line. read_rows is the one
row reader of the line-record files. Every output file is written through
write_files, which writes all its temporary files before the first rename.
"""

from __future__ import annotations

import contextlib
import os
import stat
from pathlib import Path

from .errors import ConfigError, DataError


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


def read_rows(path, what: str, usage: str | None = None, convert=None,
              header: str | None = None, error=DataError) -> list:
    """The rows of a line-record file: every line that is neither blank
    nor a '#' comment line, stripped; with a usage string such as
    'word<TAB>prob', split at TABs into stripped fields, as many as usage
    names; then passed through convert if given. With header, line 1 must
    be header and is no row. A DataError or ConfigError raised while a row
    is split or converted becomes error with 'path:lineno: ' in front.
    Errors reading the file as for read_lines."""
    lines = read_lines(path, what, error)
    if header is not None:
        if not lines or lines[0].strip() != header:
            raise error(f"{path}: missing {what} header {header!r}")
        lines[0] = ""
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = line if usage is None else [f.strip() for f in line.split("\t")]
            if usage is not None and len(row) != usage.count("<TAB>") + 1:
                raise DataError(f"expected '{usage}'")
            rows.append(row if convert is None else convert(row))
        except (ConfigError, DataError) as exc:
            raise error(f"{path}:{lineno}: {exc}") from None
    return rows


def written_in_place(path) -> bool:
    """True when write_files writes path in place: path exists and, after
    following symlinks, is not a regular file (a device, a FIFO). False
    when path cannot be examined; writing it then fails."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except OSError:
        return False


def write_text(path, text: str, what: str) -> None:
    """Write text to path as UTF-8: write_files with one file."""
    write_files([(path, (text,), what)])


def write_files(files) -> None:
    """Write each (path, pieces, what) of files, a list or an iterator, as
    UTF-8: the file's text is the strings of the iterable pieces in order,
    each written as it comes, so no whole text need be built; what says
    which kind of file it is. A missing path or a regular file is
    replaced atomically: its text goes to a new temporary file in
    the target's directory, which then replaces the target. Every
    temporary file is written before the first replaces its target, so a
    failed write leaves every such target with its old content; the
    renames follow in order, so a failed rename leaves each target with
    its old content or its new content, never a part. (There is no fsync:
    this guards against a failed process, not against a power cut.) A
    symlink at path is followed. The new file keeps the old one's
    permission bits, and its owner and group where the writing user may
    set them; it is a new inode, so hard links to the old file, extended
    attributes and ACLs are not carried over. Any other existing path (a
    device such as /dev/null, a FIFO, /dev/stdout) is written in place, in
    turn with the temporary files. A failure removes every temporary file
    not yet renamed and raises DataError naming the path."""
    staged = []  # (temporary file, target, path, what), in order
    try:
        for path, pieces, what in files:
            if written_in_place(path):
                with open(path, "w", encoding="utf-8") as fh:
                    for piece in pieces:
                        fh.write(piece)
            else:
                try:
                    old = os.stat(path)
                except FileNotFoundError:
                    old = None
                target = os.path.realpath(path)
                head, name = os.path.split(target)
                name = f".{name}.{os.urandom(6).hex()}.tmp"
                tmp = os.path.join(head, name)
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                staged.append((tmp, target, path, what))
                with open(fd, "w", encoding="utf-8") as fh:
                    if old is not None:
                        with contextlib.suppress(PermissionError):
                            os.fchown(fd, old.st_uid, old.st_gid)
                        os.fchmod(fd, stat.S_IMODE(old.st_mode))
                    for piece in pieces:
                        fh.write(piece)
        while staged:
            tmp, target, path, what = staged[0]
            os.replace(tmp, target)
            del staged[0]
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc
    finally:
        for tmp, *_ in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
