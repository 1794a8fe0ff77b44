import errno
import os

import pytest
from hypothesis import given, strategies as st

from bifilter import _records
from bifilter.corpus_io import (
    Bitext,
    CommandProvider,
    FileProvider,
    REPORT_HEADER,
    ensure_translations,
    load_bitext,
    load_corpus,
    load_filter_report,
    vocab_stats,
    write_bitext,
)
from bifilter.errors import DataError

# what one corpus line can hold: any text without LF, with a CR anywhere
# but at its end (the reader drops a trailing CR as part of a CRLF ending)
line_text = st.lists(
    st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)) | st.just("\r"),
    max_size=30,
).map("".join).filter(lambda line: not line.endswith("\r"))


class TestLoadSave:
    def test_plain_file(self, write_lines):
        p = write_lines("a.txt", ["a", "b"])
        assert load_corpus(p) == ("a", "b")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_bytes(b"")
        assert load_corpus(p) == ()

    def test_no_trailing_newline(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_bytes(b"x")
        assert load_corpus(p) == ("x",)

    def test_crlf_stripped(self, tmp_path):
        p = tmp_path / "crlf.txt"
        p.write_bytes(b"a\r\nb\r\n")
        assert load_corpus(p) == ("a", "b")

    def test_blank_interior_lines_kept(self, tmp_path):
        p = tmp_path / "gap.txt"
        p.write_bytes(b"a\n\nb\n")
        assert load_corpus(p) == ("a", "", "b")

    def test_invalid_utf8_reports_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"fine\n\xff\xfe oops\n")
        with pytest.raises(DataError) as err:
            load_corpus(p)
        assert "line 2" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(tmp_path / "absent.txt")

    def test_save_rejects_embedded_newline(self, tmp_path):
        bt = Bitext(source=("a\nb",), target=("x",))
        out = [tmp_path / name for name in ("s.txt", "t.txt", "r.tsv")]
        with pytest.raises(DataError):
            write_bitext(_FakeResult([(0, 0, 1.0, 0)]), bt, *out)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("line", ["a\r", "\r", "a\rb\r"])
    def test_save_rejects_a_trailing_cr(self, tmp_path, line):
        # the reader would drop it as part of a CRLF ending
        bt = Bitext(source=("x",), target=(line,))
        out = [tmp_path / name for name in ("s.txt", "t.txt", "r.tsv")]
        with pytest.raises(DataError, match="t.txt: line 1 contains an embedded line"):
            write_bitext(_FakeResult([(0, 0, 1.0, 0)]), bt, *out)
        assert list(tmp_path.iterdir()) == []

    @given(st.lists(line_text, max_size=20))
    def test_round_trip(self, tmp_path_factory, lines):
        d = tmp_path_factory.mktemp("rt")
        bt = Bitext(source=lines, target=lines[::-1])
        rows = [(i, len(lines) - 1 - i, 1.0, 0) for i in range(len(lines))]
        write_bitext(_FakeResult(rows), bt, d / "s.txt", d / "t.txt", d / "r.tsv")
        assert load_corpus(d / "s.txt") == load_corpus(d / "t.txt") == tuple(lines)


class TestBitext:
    def test_lengths_may_differ(self, write_lines):
        src = write_lines("s.txt", ["a", "b", "c"])
        tgt = write_lines("t.txt", ["x", "y", "z", "w", "v"])
        bt = load_bitext(src, tgt)
        assert len(bt.source) == 3 and len(bt.target) == 5
        assert bt.trans is None

    def test_sides_become_tuples(self):
        bt = Bitext(source=["a", "b"], target=iter(["x"]), trans=["A", "B"])
        assert (bt.source, bt.target, bt.trans) == (("a", "b"), ("x",), ("A", "B"))

    def test_trans_layer_loaded(self, write_lines):
        src = write_lines("s.txt", ["a", "b", "c"])
        tgt = write_lines("t.txt", ["x", "y"])
        trn = write_lines("tr.txt", ["A", "B", "C"])
        bt = load_bitext(src, tgt, trn)
        assert bt.trans == ("A", "B", "C")

    def test_trans_length_mismatch(self, write_lines):
        src = write_lines("s.txt", ["a", "b", "c"])
        tgt = write_lines("t.txt", ["x"])
        trn = write_lines("tr.txt", ["A", "B"])
        with pytest.raises(DataError) as err:
            load_bitext(src, tgt, trn)
        msg = str(err.value)
        assert "3" in msg and "2" in msg


class TestEnsureTranslations:
    def bt(self, src, trans=None):
        return Bitext(
            source=src,
            target=("x",) * len(src),
            trans=trans,
        )

    def test_identity_when_present(self):
        bt = self.bt(["a", "b"], ["A", "B"])
        assert ensure_translations(bt) is bt

    def test_file_provider(self, write_lines):
        p = write_lines("trans.txt", ["ONE", "TWO"])
        bt = ensure_translations(self.bt(["one", "two"]), FileProvider(p))
        assert bt.trans == ("ONE", "TWO")

    def test_file_provider_too_short(self, write_lines):
        p = write_lines("trans.txt", ["ONE"])
        with pytest.raises(DataError):
            ensure_translations(self.bt(["one", "two"]), FileProvider(p))

    def test_command_provider_uppercases(self):
        prov = CommandProvider("tr 'a-z' 'A-Z'")
        bt = ensure_translations(self.bt(["one", "two"]), prov)
        assert bt.trans == ("ONE", "TWO")

    def test_command_provider_failure(self):
        prov = CommandProvider("false")
        with pytest.raises(DataError):
            ensure_translations(self.bt(["one"]), prov)

    def test_command_provider_wrong_count(self):
        # swallows input, emits a single line
        prov = CommandProvider("cat >/dev/null; echo only")
        with pytest.raises(DataError):
            ensure_translations(self.bt(["one", "two"]), prov)

    def test_command_provider_failure_names_the_batch(self):
        # grep exits 1 on the second one-line batch, where it selects nothing
        prov = CommandProvider("grep -v '^two$'", batch_size=1)
        with pytest.raises(DataError, match=r"batch 2 \(source lines 2-2\): exited with 1"):
            ensure_translations(self.bt(["one", "two", "three"]), prov)

    def test_command_provider_wrong_count_names_the_batch(self):
        prov = CommandProvider("cat; echo extra", batch_size=2)
        with pytest.raises(DataError, match=r"batch 1 \(source lines 1-2\): returned 3 lines for 2"):
            ensure_translations(self.bt(["one", "two", "three"]), prov)

    def test_command_provider_invalid_utf8_names_the_batch(self):
        prov = CommandProvider("cat >/dev/null; printf '\\377\\n'")
        with pytest.raises(DataError, match=(
                r"^translation command, batch 1 \(source lines 1-1\): "
                r"invalid UTF-8 at byte offset 0 \(line 1\): ")):
            ensure_translations(self.bt(["one"]), prov)

    def test_command_provider_stderr_not_utf8(self):
        prov = CommandProvider("printf 'bad \\377' >&2; exit 3")
        with pytest.raises(DataError, match="exited with 3: bad \ufffd"):
            ensure_translations(self.bt(["one"]), prov)

    @pytest.mark.parametrize("got, message", [
        (["ONE", "TWO", "THREE"], "provider returned 3 lines for 2 requests"),
        (["ONE", ""], "provider returned an empty translation for source line 2"),
    ], ids=["one-line-too-many", "empty-line"])
    def test_provider_output_checked(self, got, message):
        class Provider:
            def translate(self, lines, indices):
                return got

        with pytest.raises(DataError) as exc:
            ensure_translations(self.bt(["one", "two"]), Provider())
        assert str(exc.value) == message

    def test_missing_without_provider(self):
        with pytest.raises(DataError):
            ensure_translations(self.bt(["a"]))

    def test_idempotent(self, write_lines):
        p = write_lines("trans.txt", ["ONE", "TWO"])
        once = ensure_translations(self.bt(["one", "two"]), FileProvider(p))
        twice = ensure_translations(once, FileProvider(p))
        assert twice.trans == once.trans


class TestVocabStats:
    def test_hand_counted(self):
        bt = Bitext(source=("a b", "a"), target=("x",))
        got = vocab_stats(bt)
        assert got.source_vocab == 2
        assert got.target_vocab == 1
        assert got.sentence_pairs == 1

    def test_empty(self):
        bt = Bitext(source=(), target=())
        got = vocab_stats(bt)
        assert got.source_vocab == got.target_vocab == got.sentence_pairs == 0

    def test_case_folds(self):
        bt = Bitext(source=("Dog dog",), target=("x",))
        assert vocab_stats(bt).source_vocab == 1

    @given(st.lists(st.sampled_from(["a b", "c d", "e"]), max_size=6))
    def test_invariant_under_permutation(self, lines):
        fwd = Bitext(source=lines, target=("x",) * len(lines))
        rev = Bitext(source=lines[::-1], target=("x",) * len(lines))
        assert vocab_stats(fwd).source_vocab == vocab_stats(rev).source_vocab


class _FakeResult:
    def __init__(self, accepted):
        self.accepted = accepted


class TestWriteBitext:
    BT = Bitext(
        source=("s0", "s1", "s2"),
        target=("t0", "t1", "t2"),
        trans=("T0", "T1", "T2"),
    )

    def test_two_pairs(self, tmp_path):
        res = _FakeResult([(0, 1, 0.9, 1), (2, 0, 0.8, 2)])
        out_s, out_t = tmp_path / "s.txt", tmp_path / "t.txt"
        rep = tmp_path / "rep.tsv"
        write_bitext(res, self.BT, out_s, out_t, rep)
        assert load_corpus(out_s) == ("s0", "s2")
        assert load_corpus(out_t) == ("t1", "t0")
        rows = rep.read_text().splitlines()
        assert rows[0] == REPORT_HEADER
        assert rows[1] == "0\t1\t0.9000\t1"

    @pytest.mark.parametrize("existing", [True, False])
    @pytest.mark.parametrize("failing", [0, 1, 2], ids=["src", "tgt", "report"])
    def test_failed_write_changes_no_output(self, failing, existing, tmp_path,
                                            monkeypatch):
        """All three temporary files are written before the first rename:
        whichever write fails, every output keeps its old content (or stays
        missing) and no temporary file is left."""
        names = ["s.txt", "t.txt", "rep.tsv"]
        if existing:
            for name in names:
                (tmp_path / name).write_text(f"old {name}\n", encoding="utf-8")
        opened = []

        class DiskFull:  # writes half the text, then fails
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        def failing_open(fd, *args, **kwargs):
            fh = open(fd, *args, **kwargs)
            opened.append(fd)
            return DiskFull(fh) if len(opened) == failing + 1 else fh

        monkeypatch.setattr(_records, "open", failing_open, raising=False)
        res = _FakeResult([(0, 1, 0.9, 1), (2, 0, 0.8, 2)])
        paths = [tmp_path / name for name in names]
        with pytest.raises(DataError) as exc:
            write_bitext(res, self.BT, *paths)
        what = "report" if failing == 2 else "corpus"
        assert str(exc.value).startswith(f"cannot write {what} {paths[failing]}: ")
        assert sorted(os.listdir(tmp_path)) == (sorted(names) if existing else [])
        for name in names if existing else []:
            assert (tmp_path / name).read_text(encoding="utf-8") == f"old {name}\n"

    def test_zero_pairs_header_only(self, tmp_path):
        res = _FakeResult([])
        out_s, out_t = tmp_path / "s.txt", tmp_path / "t.txt"
        rep = tmp_path / "rep.tsv"
        write_bitext(res, self.BT, out_s, out_t, rep)
        assert out_s.read_text() == "" and out_t.read_text() == ""
        assert rep.read_text().splitlines() == [REPORT_HEADER]

    def test_out_of_order_pairs_sorted_by_source(self, tmp_path):
        pairs = [(2, 2, 0.7, 0), (0, 0, 0.9, 0), (1, 1, 0.8, 0)]
        res = _FakeResult(pairs)
        out_s, out_t = tmp_path / "s.txt", tmp_path / "t.txt"
        rep = tmp_path / "rep.tsv"
        write_bitext(res, self.BT, out_s, out_t, rep)
        want = [p[0] for p in sorted(pairs)]
        got = [int(r.split("\t")[0]) for r in rep.read_text().splitlines()[1:]]
        assert got == want

    def test_trailing_cr_in_the_last_target_line_keeps_old_outputs(self, tmp_path):
        # the target file's lines are all checked before its first is
        # written, so a bad last line leaves no partial temporary file
        names = ["s.txt", "t.txt", "rep.tsv"]
        for name in names:
            (tmp_path / name).write_text(f"old {name}\n", encoding="utf-8")
        bt = Bitext(source=("s0", "s1", "s2"), target=("t0", "t1", "t2\r"))
        res = _FakeResult([(0, 0, 0.9, 0), (1, 1, 0.9, 0), (2, 2, 0.9, 0)])
        with pytest.raises(DataError, match="t.txt: line 3 contains an embedded line"):
            write_bitext(res, bt, *(tmp_path / name for name in names))
        assert sorted(os.listdir(tmp_path)) == sorted(names)
        for name in names:
            assert (tmp_path / name).read_text(encoding="utf-8") == f"old {name}\n"

    @pytest.mark.parametrize("kind", ["fifo", "devnull"])
    def test_in_place_output_gets_nothing_before_a_bad_line(self, kind, tmp_path,
                                                            monkeypatch):
        out_tgt = tmp_path / "fifo" if kind == "fifo" else "/dev/null"
        if kind == "fifo":
            os.mkfifo(out_tgt)
        opened = []

        def recording_open(path, *args, **kwargs):
            opened.append(str(path))
            return open(path, *args, **kwargs)

        monkeypatch.setattr(_records, "open", recording_open, raising=False)
        bt = Bitext(source=("s0", "s1"), target=("t0", "t1\r"))
        res = _FakeResult([(0, 0, 0.9, 0), (1, 1, 0.9, 0)])
        # a reader opened without blocking would let a writer open at once
        reader = os.open(out_tgt, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(DataError, match="line 2 contains an embedded line"):
                write_bitext(res, bt, tmp_path / "s.txt", out_tgt, tmp_path / "r.tsv")
            assert os.read(reader, 1024) == b""
        finally:
            os.close(reader)
        assert str(out_tgt) not in opened
        assert sorted(os.listdir(tmp_path)) == (["fifo"] if kind == "fifo" else [])

    def test_pair_out_of_bounds(self, tmp_path):
        res = _FakeResult([(7, 0, 0.9, 0)])
        with pytest.raises(DataError):
            write_bitext(res, self.BT, tmp_path / "s", tmp_path / "t", tmp_path / "r")


class TestFilterReportIO:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "rep.tsv"
        rows = [(0, 1, 0.925, 2), (3, 3, 1.0, 0)]
        bt = Bitext(source=("s",) * 4, target=("t",) * 4)
        write_bitext(_FakeResult(rows), bt, tmp_path / "s", tmp_path / "t", p)
        got = load_filter_report(p)
        assert got == [(0, 1, 0.925, 2), (3, 3, 1.0, 0)]

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "rep.tsv"
        p.write_text("a\tb\n0\t1\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_filter_report(p)

    # the header must be the first line, not the first record
    @pytest.mark.parametrize("text", [
        "# note\n" + REPORT_HEADER + "\n0\t1\t0.5\t0\n",
        "\n" + REPORT_HEADER + "\n0\t1\t0.5\t0\n",
    ])
    def test_rejects_header_not_on_first_line(self, tmp_path, text):
        p = tmp_path / "rep.tsv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(DataError):
            load_filter_report(p)

    def test_rejects_short_row(self, tmp_path):
        p = tmp_path / "rep.tsv"
        p.write_text(REPORT_HEADER + "\n0\t1\t0.5\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_filter_report(p)

    # write_bitext writes non-negative indices and tiers and scores
    # in [0, 1]; the first bad field of a row names it
    @pytest.mark.parametrize("row, message", [
        ("-2\t1\tinf\t0", "src_idx must be >= 0, got -2"),
        ("0\t-1\t0.5\t0", "tgt_idx must be >= 0, got -1"),
        ("0\t1\tinf\t0", "score inf outside [0, 1]"),
        ("0\t0\tnan\t-3", "score nan outside [0, 1]"),
        ("0\t0\t0.5\t-3", "tier must be >= 0, got -3"),
        ("0\t0\t0.5\t1.0", "tier is not an integer: '1.0'"),
    ], ids=["src", "tgt", "inf", "nan", "tier", "tier-float"])
    def test_rejects_values_the_writer_never_writes(self, tmp_path, row, message):
        p = tmp_path / "rep.tsv"
        p.write_text(f"{REPORT_HEADER}\n0\t1\t0.5000\t0\n{row}\n",
                     encoding="utf-8")
        with pytest.raises(DataError) as exc:
            load_filter_report(p)
        assert str(exc.value) == f"{p}:3: {message}"
