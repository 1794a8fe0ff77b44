import errno
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import oracles
import synthcorpus
from bifilter import _records, corpus_io, mt_metrics
from bifilter.cli import build_parser, main
from bifilter.corpus_io import REPORT_HEADER
from bifilter.seq_align import (
    AlignConfig,
    align_documents,
    lexicon_scorer,
    load_dictionary,
)

GOOD_LINES = [
    "the cat sat on the mat today",
    "a dog ran across the green park",
    "the train arrived at the station late",
    "two birds sang in the old garden",
]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFilterCommand:
    def files(self, write_lines, trans=None, tgt=None):
        src = write_lines("src.txt", [f"zrodlo {i}" for i in range(len(GOOD_LINES))])
        tgt = write_lines("tgt.txt", tgt or GOOD_LINES)
        paths = {"src": src, "tgt": tgt}
        if trans is not None:
            paths["trans"] = write_lines("trans.txt", trans)
        return paths

    def test_tiny_fixture_succeeds(self, write_lines, tmp_path, capsys):
        paths = self.files(write_lines, trans=GOOD_LINES)
        code, out, err = run([
            "filter",
            "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
            "--trans", str(paths["trans"]),
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 0
        assert (tmp_path / "o.src").read_text().splitlines() == [
            f"zrodlo {i}" for i in range(4)
        ]
        assert (tmp_path / "o.tgt").read_text().splitlines() == GOOD_LINES
        rep = (tmp_path / "rep.tsv").read_text().splitlines()
        assert rep[0] == REPORT_HEADER and len(rep) == 5
        assert "accepted" in out

    def test_manifest_written_with_digests(self, write_lines, tmp_path, capsys):
        paths = self.files(write_lines, trans=GOOD_LINES)
        rep = tmp_path / "rep.tsv"
        code, _, _ = run([
            "filter",
            "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
            "--trans", str(paths["trans"]),
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(rep),
        ], capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "rep.tsv.manifest.json").read_text())
        assert manifest["subcommand"] == "filter"
        assert manifest["config"]["window"] == 30
        sha256 = {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
                  for p in [*paths.values(), tmp_path / "o.src", tmp_path / "o.tgt", rep]}
        assert manifest["inputs"] == {str(p): sha256[str(p)] for p in paths.values()}
        # each output's digest, taken once every output was renamed in place
        assert manifest["outputs"] == {
            str(p): sha256[str(p)] for p in [tmp_path / "o.src", tmp_path / "o.tgt", rep]}

    def test_missing_trans_without_provider_exits_2(self, write_lines, tmp_path, capsys):
        paths = self.files(write_lines)
        code, _, err = run([
            "filter",
            "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 2
        assert "--trans" in err or "provider" in err

    def test_negative_window_exits_2(self, write_lines, tmp_path, capsys):
        paths = self.files(write_lines, trans=GOOD_LINES)
        code, _, _ = run([
            "filter",
            "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
            "--trans", str(paths["trans"]), "--window", "-3",
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag, message", [
        ("--window", "window must be >= 0"),
        ("--lookahead", "lookahead must be >= 0"),
        ("--displacement-rounds", "displacement_rounds must be >= 0"),
    ], ids=["window", "lookahead", "displacement-rounds"])
    def test_bad_setting_exits_2_before_translating(self, flag, message, write_lines,
                                                     tmp_path, capsys):
        paths = self.files(write_lines)
        marker = tmp_path / "marker"
        code, _, err = run([
            "filter",
            "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
            "--provider-cmd", f"touch '{marker}'; cat", flag, "-1",
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 2 and message in err
        assert not marker.exists()

    @pytest.mark.parametrize("with_synonyms", [False, True])
    def test_variant_cap_below_one_exits_2(
        self, write_lines, tmp_path, capsys, with_synonyms
    ):
        paths = self.files(write_lines, trans=GOOD_LINES)
        lexicon = []
        if with_synonyms:
            lexicon = ["--synonyms", str(write_lines("lex.txt", ["cat\tfeline"]))]
        code, _, err = run([
            "filter",
            "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
            "--trans", str(paths["trans"]), "--variant-cap", "0", *lexicon,
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 2
        assert err.startswith("error: variant cap must be >= 1")

    def test_chain_file_not_utf8_exits_2(self, write_lines, tmp_path, capsys):
        paths = self.files(write_lines, trans=GOOD_LINES)
        chain = tmp_path / "chain.cfg"
        chain.write_bytes(b"tier ratio 0.9\n# caf\xe9\n")
        code, _, err = run([
            "filter",
            "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
            "--trans", str(paths["trans"]), "--chain", str(chain),
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 2
        assert err.startswith(f"error: {chain}: invalid UTF-8 at byte offset 20 (line 2)")

    def test_unknown_stoplist_lang_exits_2(self, write_lines, tmp_path, capsys):
        paths = self.files(write_lines, trans=GOOD_LINES)
        code, _, err = run([
            "filter",
            "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
            "--trans", str(paths["trans"]), "--stoplist-lang", "enn",
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 2
        assert "'enn'" in err and "(packaged: en, pl)" in err
        assert not (tmp_path / "rep.tsv").exists()

    @pytest.mark.parametrize("lang,with_file", [
        ("PL", False),  # tags match in any case
        ("enn", True),  # --stoplist replaces the packaged list, the tag goes unused
    ])
    def test_usable_stoplist_runs(self, lang, with_file, write_lines, tmp_path, capsys):
        paths = self.files(write_lines, trans=GOOD_LINES)
        stoplist = []
        if with_file:
            stoplist = ["--stoplist", str(write_lines("stop.txt", ["the"]))]
        code, _, _ = run([
            "filter",
            "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
            "--trans", str(paths["trans"]), "--stoplist-lang", lang, *stoplist,
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 0

    def test_jobs_flag_is_gone(self, write_lines, tmp_path, capsys):
        paths = self.files(write_lines, trans=GOOD_LINES)
        with pytest.raises(SystemExit) as exc:
            main([
                "filter",
                "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
                "--trans", str(paths["trans"]), "--jobs", "2",
                "--out-src", str(tmp_path / "o.src"),
                "--out-tgt", str(tmp_path / "o.tgt"),
                "--report", str(tmp_path / "rep.tsv"),
            ])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "rep.tsv").exists()

    def test_both_providers_rejected(self, write_lines, tmp_path, capsys):
        paths = self.files(write_lines)
        trans = write_lines("prov.txt", GOOD_LINES)
        code, _, _ = run([
            "filter",
            "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
            "--provider-file", str(trans), "--provider-cmd", "cat",
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 2

    def test_batch_size_checked_before_any_file_is_read(self, tmp_path, capsys):
        code, _, err = run([
            "filter",
            "--src", str(tmp_path / "missing.src"), "--tgt", str(tmp_path / "missing.tgt"),
            "--provider-cmd", "cat", "--batch-size", "0",
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 2
        assert "batch size must be >= 1, got 0" in err
        assert list(tmp_path.iterdir()) == []

    def test_interior_cr_written_back_byte_for_byte(self, tmp_path, capsys):
        # the reader keeps a CR inside a line, so the writer must too
        src, tgt = tmp_path / "src.txt", tmp_path / "tgt.txt"
        src.write_bytes("zrodlo 0\nPies\rbiega szybko.\nzrodlo 2\n".encode())
        tgt.write_bytes(
            "the cat sat on the mat\nThe dog\rruns fast.\ntwo birds sang\n".encode())
        code, _, _ = run([
            "filter", "--src", str(src), "--tgt", str(tgt), "--trans", str(tgt),
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 0
        assert (tmp_path / "o.src").read_bytes() == src.read_bytes()
        assert (tmp_path / "o.tgt").read_bytes() == tgt.read_bytes()

    def test_provider_cmd_fills_trans(self, write_lines, tmp_path, capsys):
        # source is its own translation through cat
        src = write_lines("src.txt", GOOD_LINES)
        tgt = write_lines("tgt.txt", GOOD_LINES)
        code, _, _ = run([
            "filter",
            "--src", str(src), "--tgt", str(tgt),
            "--provider-cmd", "cat",
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 0
        assert (tmp_path / "o.tgt").read_text().splitlines() == GOOD_LINES

    def test_provider_file_alone_writes_what_trans_writes(self, write_lines,
                                                         tmp_path, capsys):
        # the filter-narrow-10k benchmark's path: no --trans, every
        # translation from --provider-file
        sb = synthcorpus.build(total=200, noisy=36)
        src, tgt = write_lines("src.txt", sb.source), write_lines("tgt.txt", sb.target)
        mt = write_lines("mt.txt", sb.trans)
        outputs = {}
        for flag in ("--trans", "--provider-file"):
            out = tmp_path / flag.strip("-")
            out.mkdir()
            code, _, _ = run([
                "filter", "--src", str(src), "--tgt", str(tgt), flag, str(mt),
                "--window", "1", "--out-src", str(out / "o.src"),
                "--out-tgt", str(out / "o.tgt"), "--report", str(out / "rep.tsv"),
            ], capsys)
            assert code == 0
            outputs[flag] = [(out / n).read_bytes() for n in ("o.src", "o.tgt", "rep.tsv")]
        assert outputs["--provider-file"] == outputs["--trans"]
        assert outputs["--trans"][2].count(b"\n") > 100

    def test_provider_cmd_pipe_is_utf8_in_an_ascii_locale(self, write_lines, tmp_path):
        # under the C locale with locale coercion and UTF-8 mode off, the
        # locale's codec is ASCII; the pipe must still carry UTF-8
        line = "Żółw je sałatę."
        src, tgt = write_lines("src.txt", [line]), write_lines("tgt.txt", [line])
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "bifilter.cli", "filter",
             "--src", str(src), "--tgt", str(tgt), "--provider-cmd", "cat",
             "--out-src", str(tmp_path / "o.src"),
             "--out-tgt", str(tmp_path / "o.tgt"),
             "--report", str(tmp_path / "rep.tsv")],
            env=env, capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        assert (tmp_path / "o.src").read_text(encoding="utf-8") == line + "\n"

    def test_hung_provider_cmd_exits_nonzero(self, write_lines, tmp_path, capsys,
                                             monkeypatch):
        # the shell forks sleep, which holds the output pipe open: only
        # killing the whole process group ends the batch
        monkeypatch.setattr(corpus_io, "_BATCH_TIMEOUT_S", 0.5)
        paths = self.files(write_lines)
        started = time.monotonic()
        code, _, err = run([
            "filter",
            "--src", str(paths["src"]), "--tgt", str(paths["tgt"]),
            "--provider-cmd", "sleep 30; cat",
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code != 0 and time.monotonic() - started < 10
        assert "batch 1 (source lines 1-4): no result after 0.5 s" in err
        assert not (tmp_path / "rep.tsv").exists()


class TestAlignCommand:
    def test_identity_diagonal(self, write_lines, tmp_path, capsys):
        doc = write_lines("a.txt", ["one", "two", "three"])
        out = tmp_path / "pairs.tsv"
        code, _, _ = run([
            "align", "--doc-a", str(doc), "--doc-b", str(doc),
            "--out", str(out),
        ], capsys)
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "i\tj\tlikelihood"
        assert rows[1:] == ["0\t0\t1.0000", "1\t1\t1.0000", "2\t2\t1.0000"]

    def test_threshold_one_empty_pairs(self, write_lines, tmp_path, capsys):
        a = write_lines("a.txt", ["one", "two"])
        b = write_lines("b.txt", ["one", "other"])
        out = tmp_path / "pairs.tsv"
        code, _, _ = run([
            "align", "--doc-a", str(a), "--doc-b", str(b),
            "--threshold", "1.0", "--out", str(out),
        ], capsys)
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows == ["i\tj\tlikelihood", "0\t0\t1.0000"]

    @pytest.mark.parametrize("value, message", [
        ("1.5", "--threshold 1.5 outside [0, 1]"),
        ("-0.1", "--threshold -0.1 outside [0, 1]"),
        ("nan", "--threshold nan outside [0, 1]"),
        ("high", "--threshold is not a number: 'high'"),
    ])
    def test_bad_threshold_exits_2_before_reading(self, value, message, tmp_path,
                                                  capsys):
        # the documents do not exist: reading either would exit 1
        out = tmp_path / "pairs.tsv"
        code, _, err = run([
            "align", "--doc-a", str(tmp_path / "missing-a.txt"),
            "--doc-b", str(tmp_path / "missing-b.txt"),
            "--threshold", value, "--out", str(out),
        ], capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["dp", "astar"])
    @pytest.mark.parametrize("gap", ["nan", "inf", "-inf", "-0.5"])
    def test_bad_gap_exits_2_before_reading(self, engine, gap, tmp_path, capsys):
        # the documents do not exist: reading either would exit 1
        out = tmp_path / "pairs.tsv"
        code, _, err = run([
            "align", "--doc-a", str(tmp_path / "missing-a.txt"),
            "--doc-b", str(tmp_path / "missing-b.txt"),
            "--engine", engine, f"--gap={gap}", "--out", str(out),
        ], capsys)
        assert code == 2
        assert err == f"error: gap_penalty must be finite and >= 0, got {float(gap)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["dp", "astar"])
    @pytest.mark.parametrize("gap", ["1e308", "9e307"])
    def test_gap_too_large_for_the_documents_exits_2(self, engine, gap, write_lines,
                                                      tmp_path, capsys):
        # 2 * gap * (3 + 1) overflows; astar used to exhaust its search and
        # exit 1 while dp exited 0
        a = write_lines("a.txt", ["a", "b", "c"])
        b = write_lines("b.txt", ["x"])
        out = tmp_path / "pairs.tsv"
        code, _, err = run([
            "align", "--doc-a", str(a), "--doc-b", str(b),
            "--engine", engine, "--gap", gap, "--out", str(out),
        ], capsys)
        assert code == 2
        assert err == (f"error: gap_penalty {float(gap)} is too large for 3 x 1 "
                       "lines: 2 * gap * 4 overflows a float\n")
        assert not out.exists()

    def test_dp_and_astar_byte_identical(self, write_lines, tmp_path, capsys):
        a = write_lines("a.txt", ["one", "two", "three"])
        b = write_lines("b.txt", ["one", "inserted", "two", "three"])
        outs = {}
        for engine in ("dp", "astar"):
            out = tmp_path / f"pairs.{engine}.tsv"
            code, _, _ = run([
                "align", "--doc-a", str(a), "--doc-b", str(b),
                "--engine", engine, "--out", str(out),
            ], capsys)
            assert code == 0
            outs[engine] = out.read_bytes()
        assert outs["dp"] == outs["astar"]

    def test_dictionary_scorer(self, write_lines, tmp_path, capsys):
        a = write_lines("a.txt", ["kot"])
        b = write_lines("b.txt", ["cat"])
        d = tmp_path / "dict.tsv"
        d.write_text("kot\tcat\t1.0\n", encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        code, _, _ = run([
            "align", "--doc-a", str(a), "--doc-b", str(b),
            "--dict", str(d), "--out", str(out),
        ], capsys)
        assert code == 0
        assert out.read_text().splitlines()[1] == "0\t0\t1.0000"

    @pytest.mark.parametrize("engine", ["dp", "astar"])
    def test_manifest_holds_engine_stats(self, engine, write_lines, tmp_path,
                                         capsys):
        lines_a = ["kot ma psa", "pies", "zupa", "kot", "ma"]
        lines_b = ["the cat", "cat has dog", "dog", "soup", "a cat"]
        a, b = write_lines("a.txt", lines_a), write_lines("b.txt", lines_b)
        d = tmp_path / "dict.tsv"
        d.write_text("kot\tcat\t1.0\npies\tdog\t0.8\nma\thas\t0.5\n",
                     encoding="utf-8")
        out = tmp_path / "pairs.tsv"
        code, _, _ = run([
            "align", "--doc-a", str(a), "--doc-b", str(b), "--dict", str(d),
            "--engine", engine, "--out", str(out),
        ], capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "pairs.tsv.manifest.json").read_text())
        want = {}
        al = align_documents(lines_a, lines_b, lexicon_scorer(load_dictionary(d)),
                             AlignConfig(engine=engine), stats=want)
        assert manifest["stats"] == want
        if engine == "dp":
            # 13 calls for the band, 14 cells under the 18 nodes filled,
            # then the 4 aligned pairs once more: 31, where scoring every
            # cell and then the pairs would make 5 * 5 + 4 = 29
            assert len(al.pairs) == 4
            assert want == {"scorer_calls": 13 + 14 + 4, "filled": 18}
        else:
            assert set(want) == {"scorer_calls", "expanded"}
            assert want["scorer_calls"] < 25

    def test_dictionary_not_utf8_exits_1(self, write_lines, tmp_path, capsys):
        a = write_lines("a.txt", ["kot"])
        b = write_lines("b.txt", ["cat"])
        d = tmp_path / "dict.tsv"
        d.write_bytes(b"k\xf3t\tcat\t1.0\n")
        code, _, err = run([
            "align", "--doc-a", str(a), "--doc-b", str(b),
            "--dict", str(d), "--out", str(tmp_path / "pairs.tsv"),
        ], capsys)
        assert code == 1
        assert err.startswith(f"error: {d}: invalid UTF-8 at byte offset 1 (line 1)")


class TestEvaluateCommand:
    def test_identity_bleu_one(self, write_lines, tmp_path, capsys):
        cand = write_lines("cand.txt", ["the cat sat on the mat"])
        rep = tmp_path / "report.json"
        code, out, _ = run([
            "evaluate", "--cand", str(cand), "--ref", str(cand),
            "--report", str(rep),
        ], capsys)
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["bleu"]["score"] == pytest.approx(1.0)
        assert "bleu\t" in out

    def test_fixture_matches_library_values(self, write_lines, tmp_path, capsys):
        import math
        cand = write_lines("cand.txt", ["the cat sat"])
        ref = write_lines("ref.txt", ["the cat sat down"])
        rep = tmp_path / "report.json"
        code, _, _ = run([
            "evaluate", "--cand", str(cand), "--ref", str(ref),
            "--bleu-order", "2", "--report", str(rep),
        ], capsys)
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["bleu"]["score"] == pytest.approx(math.exp(1 - 4 / 3), abs=1e-9)

    def test_unknown_metric_exits_2(self, write_lines, tmp_path, capsys):
        cand = write_lines("cand.txt", ["abc"])
        code, _, err = run([
            "evaluate", "--cand", str(cand), "--ref", str(cand),
            "--metrics", "bleu,rouge", "--report", str(tmp_path / "r.json"),
        ], capsys)
        assert code == 2
        assert "rouge" in err

    @pytest.mark.parametrize("metrics, message", [
        ("bleu,bleu,ter", "error: metric 'bleu' requested twice\n"),
        (" , ", "error: no metric requested (known: bleu, nist, ter, meteor)\n"),
    ], ids=["repeated", "nothing"])
    def test_bad_metric_list_exits_2(self, metrics, message, write_lines, tmp_path,
                                     capsys):
        cand = write_lines("cand.txt", ["the cat sat"])
        rep = tmp_path / "r.json"
        code, out, err = run([
            "evaluate", "--cand", str(cand), "--ref", str(cand),
            "--metrics", metrics, "--report", str(rep),
        ], capsys)
        assert (code, out, err) == (2, "", message)
        assert not rep.exists()

    def test_negative_meteor_penalty_exponent_exits_2(self, write_lines, tmp_path,
                                                       capsys):
        cand = write_lines("cand.txt", ["the cat sat down"])
        ref = write_lines("ref.txt", ["the cat sat here"])
        rep = tmp_path / "r.json"
        code, out, err = run([
            "evaluate", "--cand", str(cand), "--ref", str(ref),
            "--meteor-penalty-exponent", "-1", "--report", str(rep),
        ], capsys)
        assert code == 2
        assert "exponent" in err and out == ""
        assert not rep.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--meteor-penalty-exponent", "-1", "METEOR penalty exponent must be >= 0"),
        ("--nist-order", "0", "NIST order must be >= 1"),
        ("--bleu-order", "0", "BLEU order must be >= 1"),
    ], ids=["meteor-penalty-exponent", "nist-order", "bleu-order"])
    def test_bad_setting_exits_2_before_scoring(self, flag, value, message,
                                                write_lines, tmp_path, capsys,
                                                monkeypatch):
        calls = []
        for name in ("_ngram_pass", "bleu", "nist", "ter_corpus", "meteor_corpus"):
            monkeypatch.setattr(mt_metrics, name,
                                lambda *args, _name=name, **kw: calls.append(_name))
        cand = write_lines("cand.txt", ["the cat sat down"])
        code, _, err = run([
            "evaluate", "--cand", str(cand), "--ref", str(cand),
            flag, value, "--report", str(tmp_path / "r.json"),
        ], capsys)
        assert code == 2 and message in err
        assert calls == []

    @pytest.mark.parametrize("args, message", [
        (["--metrics", "bogus"], "error: unknown metric 'bogus' (known: bleu, nist, "
                                 "ter, meteor)\n"),
        (["--metrics", "ter,ter"], "error: metric 'ter' requested twice\n"),
        (["--metrics", " , "], "error: no metric requested (known: bleu, nist, ter, "
                               "meteor)\n"),
        (["--bleu-order", "0"], "error: BLEU order must be >= 1, got 0\n"),
        (["--nist-order", "0"], "error: NIST order must be >= 1, got 0\n"),
        (["--meteor-penalty-exponent", "-1"],
         "error: METEOR penalty exponent must be >= 0, got -1\n"),
    ], ids=["unknown", "repeated", "nothing", "bleu-order", "nist-order",
            "meteor-penalty-exponent"])
    def test_bad_setting_exits_2_before_any_file_is_read(self, args, message,
                                                         tmp_path, capsys):
        rep = tmp_path / "r.json"
        missing = str(tmp_path / "missing.txt")
        code, out, err = run([
            "evaluate", "--cand", missing, "--ref", missing,
            *args, "--report", str(rep),
        ], capsys)
        assert (code, out, err) == (2, "", message)
        assert not rep.exists()

    @pytest.mark.parametrize("metrics, want", [
        ("bleu,meteor", {"meteor_capped": [[0, "exact"]], "meteor_nodes": 1}),
        ("bleu", {}),
    ])
    def test_manifest_names_capped_meteor_passes(self, metrics, want, write_lines,
                                                 tmp_path, capsys):
        cand = write_lines("cand.txt", ["a b a b", "c"])
        ref = write_lines("ref.txt", ["b a b a", "d"])
        rep = tmp_path / "r.json"
        args = ["evaluate", "--cand", str(cand), "--ref", str(ref),
                "--metrics", metrics, "--report", str(rep)]
        # a budget of one node cuts off every pass that can match anything
        with mock.patch.object(mt_metrics, "_ASSIGN_NODE_CAP", 0):
            code, _, _ = run(args, capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["stats"] == want

    def test_meteor_on_a_1200_token_line(self, write_lines, tmp_path, capsys):
        # the fewest-chunk search goes one level deeper per token
        line = " ".join(f"w{i}" for i in range(1200))
        cand = write_lines("cand.txt", [line])
        rep = tmp_path / "r.json"
        code, _, _ = run([
            "evaluate", "--cand", str(cand), "--ref", str(cand),
            "--metrics", "meteor", "--report", str(rep),
        ], capsys)
        assert code == 0
        got = json.loads(rep.read_text())["meteor"]
        assert (got["matches"], got["chunks"]) == (1200, 1)
        assert got["score"] == 1.0 - 0.5 * (1 / 1200)

    def test_ter_on_a_120_token_line_with_moved_blocks(self, write_lines, tmp_path,
                                                       capsys):
        # six 3-word blocks moved; the shift search once took minutes here
        rng = random.Random(0)
        ref = [f"w{rng.randrange(60)}" for _ in range(120)]
        cand = list(ref)
        for _ in range(6):
            i = rng.randrange(len(cand) - 3)
            block = cand[i : i + 3]
            del cand[i : i + 3]
            j = rng.randrange(len(cand))
            cand[j:j] = block
        cand_file = write_lines("cand.txt", [" ".join(cand)])
        ref_file = write_lines("ref.txt", [" ".join(ref)])
        rep = tmp_path / "r.json"
        started = time.monotonic()
        code, _, _ = run([
            "evaluate", "--cand", str(cand_file), "--ref", str(ref_file),
            "--metrics", "ter", "--report", str(rep),
        ], capsys)
        assert code == 0 and time.monotonic() - started < 5
        got = json.loads(rep.read_text())["ter"]
        assert 0 < got["edits"] <= oracles.full_matrix_lev(cand, ref)
        assert got["shifts"] <= 50

    def test_line_count_mismatch_exits_1(self, write_lines, tmp_path, capsys):
        cand = write_lines("cand.txt", ["a", "b"])
        ref = write_lines("ref.txt", ["a"])
        code, _, _ = run([
            "evaluate", "--cand", str(cand), "--ref", str(ref),
            "--report", str(tmp_path / "r.json"),
        ], capsys)
        assert code == 1

    def test_multiple_references(self, write_lines, tmp_path, capsys):
        cand = write_lines("cand.txt", ["the cat sat"])
        ref1 = write_lines("ref1.txt", ["the dog sat"])
        ref2 = write_lines("ref2.txt", ["the cat sat"])
        rep = tmp_path / "report.json"
        code, _, _ = run([
            "evaluate", "--cand", str(cand),
            "--ref", str(ref1), "--ref", str(ref2),
            "--metrics", "bleu,ter", "--report", str(rep),
        ], capsys)
        assert code == 0
        report = json.loads(rep.read_text())
        assert report["ter"]["score"] == 0.0


class TestStatsCommand:
    def test_hand_counted(self, write_lines, capsys):
        src = write_lines("src.txt", ["a b", "a"])
        tgt = write_lines("tgt.txt", ["x"])
        code, out, _ = run(["stats", "--src", str(src), "--tgt", str(tgt)], capsys)
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert rows["sentence_pairs"] == "1"
        assert rows["source_vocab"] == "2"
        assert rows["target_vocab"] == "1"

    def test_empty_inputs_zeros(self, tmp_path, capsys):
        src = tmp_path / "src.txt"; src.write_bytes(b"")
        tgt = tmp_path / "tgt.txt"; tgt.write_bytes(b"")
        code, out, _ = run(["stats", "--src", str(src), "--tgt", str(tgt)], capsys)
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert set(rows.values()) == {"0"}

    def test_manifest_only_beside_a_regular_report(self, write_lines, tmp_path, capsys):
        # a report written in place, here /dev/null through a symlink, gets
        # no manifest next to it
        src = write_lines("src.txt", ["a b"])
        tgt = write_lines("tgt.txt", ["x"])
        link = tmp_path / "null.json"
        link.symlink_to(os.devnull)
        for report in (link, tmp_path / "rep.json"):
            code, _, _ = run(["stats", "--src", str(src), "--tgt", str(tgt),
                              "--report", str(report)], capsys)
            assert code == 0
        assert link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "null.json", "rep.json", "rep.json.manifest.json", "src.txt", "tgt.txt"]

    def test_pair_count_non_increasing_after_filter(self, write_lines, tmp_path, capsys):
        noisy_tgt = GOOD_LINES[:3] + ["ISBN 1-55164-250-6."]
        src = write_lines("src.txt", [f"z {i}" for i in range(4)])
        tgt = write_lines("tgt.txt", noisy_tgt)
        trans = write_lines("trans.txt", GOOD_LINES)
        code, out, _ = run(["stats", "--src", str(src), "--tgt", str(tgt)], capsys)
        before = int(dict(l.split("\t") for l in out.splitlines())["sentence_pairs"])
        code, _, _ = run([
            "filter", "--src", str(src), "--tgt", str(tgt), "--trans", str(trans),
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 0
        code, out, _ = run([
            "stats", "--src", str(tmp_path / "o.src"),
            "--tgt", str(tmp_path / "o.tgt"),
        ], capsys)
        after = int(dict(l.split("\t") for l in out.splitlines())["sentence_pairs"])
        assert after <= before


class TestEvalFilterCommand:
    def write_report(self, tmp_path, rows):
        p = tmp_path / "rep.tsv"
        body = [REPORT_HEADER] + [f"{i}\t{j}\t{s:.4f}\t{t}" for i, j, s, t in rows]
        p.write_text("".join(r + "\n" for r in body), encoding="utf-8")
        return p

    def test_four_row_output(self, tmp_path, capsys):
        rep = self.write_report(tmp_path, [(1, 1, 0.9, 0)])
        gold = tmp_path / "gold.tsv"
        gold.write_text("0\t0\tpoor\n1\t1\tgood\n", encoding="utf-8")
        code, out, _ = run(["eval-filter", "--report", str(rep),
                            "--gold", str(gold)], capsys)
        assert code == 0
        rows = dict(line.split("\t") for line in out.splitlines())
        assert rows == {
            "total": "2", "poor_in_test": "1",
            "poor_filtered": "1", "good_filtered": "0",
        }

    def test_missing_label_exits_2(self, tmp_path, capsys):
        rep = self.write_report(tmp_path, [(5, 5, 0.9, 0)])
        gold = tmp_path / "gold.tsv"
        gold.write_text("0\t0\tpoor\n", encoding="utf-8")
        code, _, _ = run(["eval-filter", "--report", str(rep),
                          "--gold", str(gold)], capsys)
        assert code == 2

    def test_negative_gold_index_exits_1(self, tmp_path, capsys):
        # a label for a line that cannot exist is no removed noise
        rep = self.write_report(tmp_path, [(0, 0, 0.9, 0)])
        gold = tmp_path / "gold.tsv"
        gold.write_text("-1\t5\tpoor\n0\t0\tgood\n", encoding="utf-8")
        code, out, err = run(["eval-filter", "--report", str(rep),
                              "--gold", str(gold)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {gold}:1: src_idx must be >= 0, got -1\n"

    def test_conflicting_gold_labels_exit_1(self, tmp_path, capsys):
        rep = self.write_report(tmp_path, [(0, 0, 0.9, 0)])
        gold = tmp_path / "gold.tsv"
        gold.write_text("0\t0\tpoor\n0\t0\tgood\n", encoding="utf-8")
        code, out, err = run(["eval-filter", "--report", str(rep),
                              "--gold", str(gold)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {gold}:2: pair (0, 0) is labeled both poor and good\n"

    def test_json_out(self, tmp_path, capsys):
        rep = self.write_report(tmp_path, [(1, 1, 0.9, 0)])
        gold = tmp_path / "gold.tsv"
        gold.write_text("0\t0\tpoor\n1\t1\tgood\n", encoding="utf-8")
        out = tmp_path / "quality.json"
        code, _, _ = run(["eval-filter", "--report", str(rep),
                          "--gold", str(gold), "--out", str(out)], capsys)
        assert code == 0
        assert json.loads(out.read_text())["good_filtered"] == 0


class TestEnvConfig:
    """BIFILTER_CONFIG no longer supplies flag defaults: a run with it set
    exits 2 before doing anything, so an old defaults file is not silently
    ignored."""

    def test_defaults_file_exits_2(self, write_lines, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text("window 7\nlookahead 2\n", encoding="utf-8")
        monkeypatch.setenv("BIFILTER_CONFIG", str(cfg))
        lines = write_lines("lines.txt", GOOD_LINES)
        code, out, err = run([
            "filter", "--src", str(lines), "--tgt", str(lines),
            "--trans", str(lines),
            "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"),
            "--report", str(tmp_path / "rep.tsv"),
        ], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"error: BIFILTER_CONFIG={cfg}: ")
        assert not (tmp_path / "rep.tsv").exists()

    def test_unreadable_env_file_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIFILTER_CONFIG", str(tmp_path / "absent.cfg"))
        code, _, _ = run(["stats", "--src", "x", "--tgt", "y"], capsys)
        assert code == 2

    def test_empty_value_counts_as_unset(self, write_lines, capsys, monkeypatch):
        monkeypatch.setenv("BIFILTER_CONFIG", "")
        lines = write_lines("lines.txt", GOOD_LINES)
        code, _, _ = run(["stats", "--src", str(lines), "--tgt", str(lines)], capsys)
        assert code == 0


class TestOutputErrors:
    @pytest.mark.parametrize("sub", ["filter", "align", "evaluate", "stats",
                                     "eval-filter"])
    def test_output_in_missing_directory_exits_1(self, sub, write_lines,
                                                 tmp_path, capsys):
        lines = write_lines("lines.txt", GOOD_LINES)
        rep = tmp_path / "rep.tsv"
        rep.write_text(f"{REPORT_HEADER}\n0\t0\t1.0000\t0\n", encoding="utf-8")
        gold = write_lines("gold.tsv", ["0\t0\tgood"])
        out = str(tmp_path / "nodir" / "out")
        argv = {
            "filter": ["--src", lines, "--tgt", lines, "--trans", lines,
                       "--out-src", out, "--out-tgt", f"{out}.tgt", "--report", f"{out}.tsv"],
            "align": ["--doc-a", lines, "--doc-b", lines, "--out", out],
            "evaluate": ["--cand", lines, "--ref", lines, "--report", out],
            "stats": ["--src", lines, "--tgt", lines, "--report", out],
            "eval-filter": ["--report", rep, "--gold", gold, "--out", out],
        }[sub]
        code, _, err = run([sub, *map(str, argv)], capsys)
        assert code == 1
        assert "error: cannot write" in err and out in err
        assert "Traceback" not in err

    def argv(self, sub, tmp_path, write_lines, **paths):
        """A run of sub on small valid inputs, one file each, and outputs
        in tmp_path/out; paths replaces a flag's path (by argparse dest)."""
        inputs, outputs = {
            "filter": (("src", "tgt", "trans"), ("out_src", "out_tgt", "report")),
            "align": (("doc_a", "doc_b"), ("out",)),
            "evaluate": (("cand", "ref"), ("report",)),
            "stats": (("src", "tgt"), ("report",)),
            "eval-filter": ((), ("out",)),
        }[sub]
        flags = {dest: write_lines(f"{dest}.txt", GOOD_LINES) for dest in inputs}
        if sub == "eval-filter":
            flags["report"] = write_lines("rep.tsv", [REPORT_HEADER, "0\t0\t1.0000\t0"])
            flags["gold"] = write_lines("gold.tsv", ["0\t0\tgood"])
        flags.update({dest: tmp_path / "out" / dest for dest in outputs}, **paths)
        argv = [sub]
        for dest, path in flags.items():
            argv += ["--" + dest.replace("_", "-"), str(path)]
        return argv

    @staticmethod
    def tree(root):
        return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    @pytest.mark.parametrize("sub, first, second", [
        ("filter", "out_src", "out_tgt"),
        ("filter", "out_src", "report"),
        ("filter", "out_tgt", "report"),
        ("filter", "src", "out_src"),
        ("filter", "trans", "report"),
        ("align", "doc_a", "out"),
        ("align", "doc_b", "out"),
        ("evaluate", "cand", "report"),
        ("evaluate", "ref", "report"),
        ("stats", "src", "report"),
        ("stats", "tgt", "report"),
        ("eval-filter", "report", "out"),
        ("eval-filter", "gold", "out"),
    ])
    def test_output_naming_another_file_exits_2(self, sub, first, second, write_lines,
                                                tmp_path, capsys):
        # before any file is read or written: every file keeps its bytes
        (tmp_path / "out").mkdir()
        argv = self.argv(sub, tmp_path, write_lines)
        path = argv[argv.index("--" + first.replace("_", "-")) + 1]
        argv[argv.index("--" + second.replace("_", "-")) + 1] = path
        before = self.tree(tmp_path)
        code, out, err = run(argv, capsys)
        assert code == 2 and out == ""
        assert err == (f"error: --{second.replace('_', '-')} names the same file as "
                       f"--{first.replace('_', '-')}: {path}\n")
        assert self.tree(tmp_path) == before

    @pytest.mark.parametrize("link", ["symlink", "hardlink", "dotted"])
    def test_another_name_for_an_input_exits_2(self, link, write_lines, tmp_path, capsys):
        # stats --report over its own input would replace the corpus with
        # JSON and record that JSON's digest as the input's
        (tmp_path / "out").mkdir()
        src = tmp_path / "src.txt"
        report = {"symlink": tmp_path / "out" / "link.json",
                  "hardlink": tmp_path / "out" / "hard.json",
                  "dotted": tmp_path / "out" / ".." / "src.txt"}[link]
        argv = self.argv("stats", tmp_path, write_lines, report=report)
        if link == "symlink":
            report.symlink_to(src)
        elif link == "hardlink":
            os.link(src, report)
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err == f"error: --report names the same file as --src: {report}\n"
        assert src.read_text().splitlines() == GOOD_LINES

    def test_manifest_naming_an_output_exits_2(self, write_lines, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        manifest = tmp_path / "out" / "report.manifest.json"
        argv = self.argv("filter", tmp_path, write_lines, out_tgt=manifest)
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err == (f"error: the manifest of --report names the same file as "
                       f"--out-tgt: {manifest}\n")
        assert not manifest.exists()

    def test_outputs_written_in_place_may_share_a_path(self, write_lines, tmp_path,
                                                       capsys):
        argv = self.argv("filter", tmp_path, write_lines, out_src=os.devnull,
                         out_tgt=os.devnull, report=os.devnull)
        code, out, _ = run(argv, capsys)
        assert code == 0 and out.startswith("accepted 4 pairs")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src.txt", "tgt.txt", "trans.txt"]


    @pytest.mark.parametrize("fail_at", ["write", "replace"])
    def test_failed_second_write_leaves_old_or_new_files(
            self, fail_at, write_lines, tmp_path, capsys, monkeypatch):
        """filter writes out-src, out-tgt and the report to temporary files,
        renames them in that order, then writes the manifest. When the
        second temporary file fails mid-write (a full disk), every output
        keeps its old bytes; when the second rename fails, out-src has its
        new bytes and the rest their old. No temporary file is left."""
        lines = write_lines("lines.txt", GOOD_LINES)

        def argv(out):
            return ["filter", "--src", str(lines), "--tgt", str(lines),
                    "--trans", str(lines), "--out-src", str(out / "o.src"),
                    "--out-tgt", str(out / "o.tgt"),
                    "--report", str(out / "rep.tsv")]

        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert run(argv(fresh), capsys)[0] == 0
        out = tmp_path / "out"
        out.mkdir()
        names = ["o.src", "o.tgt", "rep.tsv", "rep.tsv.manifest.json"]
        old = {name: f"old {name}\n".encode() for name in names}
        for name, data in old.items():
            (out / name).write_bytes(data)

        calls = []
        if fail_at == "write":
            def failing_open(fd, *args, **kwargs):
                fh = open(fd, *args, **kwargs)
                calls.append(fd)
                if len(calls) != 2:
                    return fh

                class DiskFull:  # writes half the text, then fails
                    def __enter__(self):
                        return self

                    def __exit__(self, *exc):
                        fh.close()

                    def write(self, text):
                        fh.write(text[: len(text) // 2])
                        fh.flush()
                        raise OSError(errno.ENOSPC, "No space left on device")

                return DiskFull()

            monkeypatch.setattr(_records, "open", failing_open, raising=False)
        else:
            replace = os.replace

            def failing_replace(src, dst):
                calls.append(dst)
                if len(calls) == 2:
                    raise OSError(errno.EIO, "Input/output error")
                replace(src, dst)

            monkeypatch.setattr(os, "replace", failing_replace)
        code, _, err = run(argv(out), capsys)
        assert code == 1
        assert f"error: cannot write corpus {out / 'o.tgt'}" in err
        assert sorted(os.listdir(out)) == sorted(names)
        renamed = names[:1] if fail_at == "replace" else []
        for name in renamed:
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
            assert (out / name).read_bytes() != old[name]
        for name in names[len(renamed):]:
            assert (out / name).read_bytes() == old[name]

class TestHelp:
    @pytest.mark.parametrize("sub,flags", [
        ("filter", ["--window", "--lookahead", "--displacement-rounds",
                    "--variant-cap", "--stoplist-lang"]),
        ("align", ["--gap", "--threshold", "--engine"]),
        ("evaluate", ["--bleu-order", "--nist-order",
                      "--meteor-penalty-exponent"]),
        ("stats", ["--src", "--tgt"]),
        ("eval-filter", ["--report", "--gold"]),
    ])
    def test_help_lists_flags_with_defaults(self, sub, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out

    def test_filter_help_shows_spec_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["filter", "--help"])
        out = capsys.readouterr().out
        assert "default: 30" in out       # window
        assert "default: 1" in out        # lookahead
        assert "default: 3" in out        # displacement rounds
        assert "default: 64" in out       # variant cap

    def test_align_help_shows_spec_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["align", "--help"])
        out = capsys.readouterr().out
        assert "default: 0.2" in out      # gap penalty
        assert "default: dp" in out       # engine


class TestStartup:
    def test_import_leaves_out_the_provider_command_modules(self):
        # subprocess and signal serve only CommandProvider.translate, which
        # imports them itself; -S keeps site's imports out of the check
        probe = ("import sys, bifilter.cli; "
                 "print(sorted({'subprocess', 'signal'} & set(sys.modules)))")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
