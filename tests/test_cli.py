import errno
import json
import os
import random
import time

import pytest

import oracles
from bifilter import _records, corpus_io
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
        digests = manifest["inputs"]
        assert str(paths["src"]) in digests
        assert all(len(v) == 64 for v in digests.values())

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
        align_documents(lines_a, lines_b, lexicon_scorer(load_dictionary(d)),
                        AlignConfig(engine=engine), stats=want)
        assert manifest["stats"] == want
        if engine == "dp":
            assert want == {"scorer_calls": 25}
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
                       "--out-src", out, "--out-tgt", out, "--report", out],
            "align": ["--doc-a", lines, "--doc-b", lines, "--out", out],
            "evaluate": ["--cand", lines, "--ref", lines, "--report", out],
            "stats": ["--src", lines, "--tgt", lines, "--report", out],
            "eval-filter": ["--report", rep, "--gold", gold, "--out", out],
        }[sub]
        code, _, err = run([sub, *map(str, argv)], capsys)
        assert code == 1
        assert "error: cannot write" in err and out in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("fail_at", ["write", "replace"])
    def test_failed_second_write_leaves_old_or_new_files(
            self, fail_at, write_lines, tmp_path, capsys, monkeypatch):
        """filter writes out-src, out-tgt, the report and its manifest, in
        that order. When the second write fails, mid-file (a full disk) or
        at the rename, every output keeps its old bytes or has its new
        bytes, and no temporary file is left."""
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
        assert (out / "o.src").read_bytes() == (fresh / "o.src").read_bytes()
        assert (out / "o.src").read_bytes() != old["o.src"]
        for name in names[1:]:
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
