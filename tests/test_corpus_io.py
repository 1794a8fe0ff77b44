import pytest
from hypothesis import given, strategies as st

from bifilter.corpus_io import (
    Bitext,
    CommandProvider,
    Corpus,
    FileProvider,
    REPORT_HEADER,
    ensure_translations,
    load_bitext,
    load_corpus,
    load_filter_report,
    save_corpus,
    vocab_stats,
    write_bitext,
    write_filter_report,
)
from bifilter.errors import DataError

line_text = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    max_size=30,
)


class TestLoadSave:
    def test_plain_file(self, write_lines):
        p = write_lines("a.txt", ["a", "b"])
        assert load_corpus(p).lines == ("a", "b")

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_bytes(b"")
        assert load_corpus(p).lines == ()

    def test_no_trailing_newline(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_bytes(b"x")
        assert load_corpus(p).lines == ("x",)

    def test_crlf_stripped(self, tmp_path):
        p = tmp_path / "crlf.txt"
        p.write_bytes(b"a\r\nb\r\n")
        assert load_corpus(p).lines == ("a", "b")

    def test_blank_interior_lines_kept(self, tmp_path):
        p = tmp_path / "gap.txt"
        p.write_bytes(b"a\n\nb\n")
        assert load_corpus(p).lines == ("a", "", "b")

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
        with pytest.raises(DataError):
            save_corpus(Corpus(("a\nb",)), tmp_path / "out.txt")

    @given(st.lists(line_text, max_size=20))
    def test_round_trip(self, tmp_path_factory, lines):
        p = tmp_path_factory.mktemp("rt") / "c.txt"
        save_corpus(Corpus(tuple(lines)), p)
        assert load_corpus(p).lines == tuple(lines)


class TestBitext:
    def test_lengths_may_differ(self, write_lines):
        src = write_lines("s.txt", ["a", "b", "c"])
        tgt = write_lines("t.txt", ["x", "y", "z", "w", "v"])
        bt = load_bitext(src, tgt)
        assert len(bt.source.lines) == 3 and len(bt.target.lines) == 5
        assert bt.trans is None

    def test_trans_layer_loaded(self, write_lines):
        src = write_lines("s.txt", ["a", "b", "c"])
        tgt = write_lines("t.txt", ["x", "y"])
        trn = write_lines("tr.txt", ["A", "B", "C"])
        bt = load_bitext(src, tgt, trn)
        assert bt.trans.lines == ("A", "B", "C")

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
            source=Corpus(tuple(src)),
            target=Corpus(("x",) * len(src)),
            trans=Corpus(tuple(trans)) if trans is not None else None,
        )

    def test_identity_when_present(self):
        bt = self.bt(["a", "b"], ["A", "B"])
        assert ensure_translations(bt) is bt

    def test_file_provider(self, write_lines):
        p = write_lines("trans.txt", ["ONE", "TWO"])
        bt = ensure_translations(self.bt(["one", "two"]), FileProvider(p))
        assert bt.trans.lines == ("ONE", "TWO")

    def test_file_provider_too_short(self, write_lines):
        p = write_lines("trans.txt", ["ONE"])
        with pytest.raises(DataError):
            ensure_translations(self.bt(["one", "two"]), FileProvider(p))

    def test_command_provider_uppercases(self):
        prov = CommandProvider("tr 'a-z' 'A-Z'")
        bt = ensure_translations(self.bt(["one", "two"]), prov)
        assert bt.trans.lines == ("ONE", "TWO")

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

    def test_missing_without_provider(self):
        with pytest.raises(DataError):
            ensure_translations(self.bt(["a"]))

    def test_idempotent(self, write_lines):
        p = write_lines("trans.txt", ["ONE", "TWO"])
        once = ensure_translations(self.bt(["one", "two"]), FileProvider(p))
        twice = ensure_translations(once, FileProvider(p))
        assert twice.trans.lines == once.trans.lines


class TestVocabStats:
    def test_hand_counted(self):
        bt = Bitext(source=Corpus(("a b", "a")), target=Corpus(("x",)))
        got = vocab_stats(bt)
        assert got.source_vocab == 2
        assert got.target_vocab == 1
        assert got.sentence_pairs == 1

    def test_empty(self):
        bt = Bitext(source=Corpus(()), target=Corpus(()))
        got = vocab_stats(bt)
        assert got.source_vocab == got.target_vocab == got.sentence_pairs == 0

    def test_case_folds(self):
        bt = Bitext(source=Corpus(("Dog dog",)), target=Corpus(("x",)))
        assert vocab_stats(bt).source_vocab == 1

    @given(st.lists(st.sampled_from(["a b", "c d", "e"]), max_size=6))
    def test_invariant_under_permutation(self, lines):
        fwd = Bitext(source=Corpus(tuple(lines)), target=Corpus(("x",) * len(lines)))
        rev = Bitext(source=Corpus(tuple(reversed(lines))), target=Corpus(("x",) * len(lines)))
        assert vocab_stats(fwd).source_vocab == vocab_stats(rev).source_vocab


class _FakeResult:
    def __init__(self, accepted):
        self.accepted = accepted


class TestWriteBitext:
    BT = Bitext(
        source=Corpus(("s0", "s1", "s2")),
        target=Corpus(("t0", "t1", "t2")),
        trans=Corpus(("T0", "T1", "T2")),
    )

    def test_two_pairs(self, tmp_path):
        res = _FakeResult([(0, 1, 0.9, 1), (2, 0, 0.8, 2)])
        out_s, out_t = tmp_path / "s.txt", tmp_path / "t.txt"
        rep = tmp_path / "rep.tsv"
        write_bitext(res, self.BT, out_s, out_t, rep)
        assert load_corpus(out_s).lines == ("s0", "s2")
        assert load_corpus(out_t).lines == ("t1", "t0")
        rows = rep.read_text().splitlines()
        assert rows[0] == REPORT_HEADER
        assert rows[1] == "0\t1\t0.9000\t1"

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

    def test_pair_out_of_bounds(self, tmp_path):
        res = _FakeResult([(7, 0, 0.9, 0)])
        with pytest.raises(DataError):
            write_bitext(res, self.BT, tmp_path / "s", tmp_path / "t", tmp_path / "r")


class TestFilterReportIO:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "rep.tsv"
        rows = [(0, 1, 0.925, 2), (3, 3, 1.0, 0)]
        write_filter_report(rows, p)
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
