"""Reading and writing the package's files.

Corpora and the line-record files (stoplists, synonym lexicons,
dictionaries, gold labels, filter reports and chain files) agree on what
a line is: the file is UTF-8, lines end in LF, and
a trailing CR (foreign CRLF input) is dropped. Nothing else splits a
line. Every output file is written through write_text, which replaces
the file whole.
"""

from __future__ import annotations

import contextlib
import os
import stat
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


def written_in_place(path) -> bool:
    """True when write_text writes path in place: path exists and, after
    following symlinks, is not a regular file (a device, a FIFO). Raises
    OSError when path cannot be examined."""
    try:
        return not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        return False


def write_text(path, text: str, what: str) -> None:
    """Write text to path as UTF-8. A missing path or a regular file is
    replaced atomically: the text goes to a new temporary file in the
    target's directory, which then replaces the target, so a failed
    process leaves it with its old content or its new content, never a
    part. (There is no fsync: this guards against a failed process, not
    against a power cut.) A symlink at path is followed. The new file keeps
    the old one's permission bits, and its owner and group where the
    writing user may set them; it is a new inode, so hard links to the old
    file, extended attributes and ACLs are not carried over. Any other
    existing path (a device such as /dev/null, a FIFO, /dev/stdout) is
    written in place. A write failure removes the temporary file and
    raises DataError naming the path; what says which kind of file it is."""
    tmp = None
    try:
        if written_in_place(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        try:
            old = os.stat(path)
        except FileNotFoundError:
            old = None
        target = os.path.realpath(path)
        head, name = os.path.split(target)
        candidate = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
        fd = os.open(candidate, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = candidate
        with open(fd, "w", encoding="utf-8") as fh:
            if old is not None:
                with contextlib.suppress(PermissionError):
                    os.fchown(fd, old.st_uid, old.st_gid)
                os.fchmod(fd, stat.S_IMODE(old.st_mode))
            fh.write(text)
        os.replace(tmp, target)
        tmp = None
    except OSError as exc:
        raise DataError(f"cannot write {what} {path}: {exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
