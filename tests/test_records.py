"""The seven line-record loaders share one reader: the same errors for a
file that cannot be read or is not UTF-8, and the same handling of blank
lines, '#' comment lines and CRLF line ends. Every output goes through
one writer, write_text."""

import contextlib
import os
import stat
import types
from typing import Callable, NamedTuple

import pytest

from bifilter import textnorm
from bifilter._records import write_text, written_in_place
from bifilter.bisentence_filter import load_gold_labels
from bifilter.corpus_io import REPORT_HEADER, load_filter_report
from bifilter.errors import ConfigError, DataError
from bifilter.seq_align import load_dictionary
from bifilter.similarity import load_chain_file
from bifilter.textnorm import StopList, SynonymLexicon


def _default_stoplist(path, monkeypatch):
    # Serve the package's data directory from the directory above path's.
    root = path.parent.parent
    monkeypatch.setattr(textnorm, "resources", types.SimpleNamespace(
        files=lambda _package: root, as_file=contextlib.nullcontext))
    return textnorm.default_stoplist("xx")


class Loader(NamedTuple):
    name: str
    load: Callable  # (path, monkeypatch) -> a value that compares by content
    error: type
    records: list[str]  # valid lines; the first stays the file's first line


LOADERS = [
    Loader("chain.cfg", lambda p, _mp: load_chain_file(p), ConfigError,
           ["tier overlap 0.99", "tier ratio 0.9  # inline comment",
            "final_threshold 0.5"]),
    Loader("gold.tsv", lambda p, _mp: load_gold_labels(p), DataError,
           ["0\t0\tpoor", "1\t1\tgood", "2\t3\tgood"]),
    Loader("dict.tsv", lambda p, _mp: load_dictionary(p), DataError,
           ["kot\tcat\t1.0", "dom\thouse\t0.9", "dom\thome\t0.4"]),
    Loader("stop.txt", lambda p, _mp: StopList.load(p), DataError,
           ["the", "Of", "and"]),
    Loader("data/stopwords_xx.txt", _default_stoplist, DataError,
           ["the", "Of", "and"]),
    Loader("lex.txt", lambda p, _mp: vars(SynonymLexicon.load(p)), DataError,
           ["big\tlarge, huge", "small\ttiny", "big\tgreat"]),
    Loader("report.tsv", lambda p, _mp: load_filter_report(p), DataError,
           [REPORT_HEADER, "0\t1\t0.9250\t2", "3\t3\t1.0000\t0"]),
]
IDS = [loader.name for loader in LOADERS]


def _place(tmp_path, loader: Loader, data: bytes):
    path = tmp_path / "files" / loader.name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("loader", LOADERS, ids=IDS)
def test_invalid_utf8_names_path_offset_and_line(loader, tmp_path, monkeypatch):
    good = "".join(line + "\n" for line in loader.records).encode("utf-8")
    path = _place(tmp_path, loader, good + b"# caf\xe9\n")
    with pytest.raises(loader.error) as exc:
        loader.load(path, monkeypatch)
    offset, line = len(good) + 5, len(loader.records) + 1
    assert str(exc.value).startswith(
        f"{path}: invalid UTF-8 at byte offset {offset} (line {line})"
    )


# A missing packaged stoplist is an unsupported language: default_stoplist
# returns an empty list for it, so it is not among these loaders.
@pytest.mark.parametrize(
    "loader", [ld for ld in LOADERS if ld.load is not _default_stoplist],
    ids=[ld.name for ld in LOADERS if ld.load is not _default_stoplist],
)
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_path_names_path(loader, kind, tmp_path, monkeypatch):
    path = tmp_path / "files" / loader.name
    if kind == "directory":
        path.mkdir(parents=True)
    with pytest.raises(loader.error) as exc:
        loader.load(path, monkeypatch)
    assert "cannot read" in str(exc.value) and str(path) in str(exc.value)


@pytest.mark.parametrize("loader", LOADERS, ids=IDS)
def test_blank_comment_and_crlf_lines_parse_as_lf(loader, tmp_path, monkeypatch):
    plain = "".join(line + "\n" for line in loader.records)
    noisy = [loader.records[0]]
    for line in loader.records[1:]:
        noisy += ["", "# a comment", "   ", "\t# an indented comment", line]
    noisy += ["", "#"]
    want = loader.load(_place(tmp_path / "lf", loader, plain.encode()), monkeypatch)
    for eol in ("\n", "\r\n"):
        text = "".join(line + eol for line in noisy)
        got = loader.load(_place(tmp_path / "noisy", loader, text.encode()),
                          monkeypatch)
        assert got == want


def test_write_text_replaces_whole_file_in_place(tmp_path):
    """An existing output keeps its permission bits, a symlink is written
    through, and no temporary file stays behind."""
    real = tmp_path / "real.txt"
    real.write_text("old text that is longer than the new\n", encoding="utf-8")
    real.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(real)
    write_text(link, "new \u00e9\n", "report")
    assert real.read_bytes() == "new \u00e9\n".encode("utf-8")
    assert real.stat().st_mode & 0o777 == 0o640
    assert link.is_symlink()
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


def test_write_text_keeps_owner_and_group(tmp_path, monkeypatch):
    """The replacing file is given the old file's owner and group; a user
    who may not set them still gets the write."""
    real = tmp_path / "real.txt"
    real.write_text("old\n", encoding="utf-8")
    old = real.stat()
    calls = []

    def fchown(fd, uid, gid):
        calls.append((uid, gid))
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "fchown", fchown)
    write_text(real, "new\n", "report")
    assert calls == [(old.st_uid, old.st_gid)]
    assert real.read_text(encoding="utf-8") == "new\n"
    assert os.listdir(tmp_path) == ["real.txt"]


@pytest.mark.parametrize("via_link", [False, True])
def test_write_text_writes_into_a_fifo_in_place(via_link, tmp_path, monkeypatch):
    """A path that is not a regular file (a FIFO here; /dev/null or
    /dev/stdout alike) is written in place, never renamed over."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    path = fifo
    if via_link:
        path = tmp_path / "link"
        path.symlink_to(fifo)

    def no_replace(src, dst):
        raise AssertionError(f"os.replace({src!r}, {dst!r})")

    monkeypatch.setattr(os, "replace", no_replace)
    # A reader opened without blocking lets the writer open at once; the
    # text fits the pipe buffer, so the write does not block either.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_text(path, "new \u00e9\n", "report")
        assert os.read(reader, 1024) == "new \u00e9\n".encode("utf-8")
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == sorted({"fifo", path.name})


def test_written_in_place_only_for_existing_non_regular_paths(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    regular = tmp_path / "regular"
    regular.write_text("x", encoding="utf-8")
    link = tmp_path / "link"
    link.symlink_to(fifo)
    assert not written_in_place(tmp_path / "missing")
    assert not written_in_place(regular)
    assert written_in_place(fifo)
    assert written_in_place(link)
