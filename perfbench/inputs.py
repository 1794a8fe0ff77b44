"""Seeded inputs for the benchmark workloads.

Every corpus comes from the repository's own synthetic generator,
``tests/synthcorpus.py``, which is imported, not copied. The same seed
always gives byte-identical input files. Seed 0 reproduces the acceptance
corpus of ``tests/test_acceptance.py`` for the 1k filter workload.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import synthcorpus  # noqa: E402

# Input sizes: "full" is what the benchmark measures, "tiny" is the smoke
# mode of the benchmark's own tests.
SIZES = {
    "full": {"wide_lines": 1000, "narrow_parts": 10, "narrow_part_lines": 1000,
             "align_lines": 200, "eval_segments": 48},
    "tiny": {"wide_lines": 200, "narrow_parts": 4, "narrow_part_lines": 100,
             "align_lines": 40, "eval_segments": 12},
}
NOISY_SHARE = synthcorpus.NOISY_PAIRS / synthcorpus.TOTAL_PAIRS


@dataclass
class Inputs:
    """Generated files of one workload plus what the checks need to know.

    lines is the number of input lines one command processes (source lines
    for filter, doc_a lines for align, segments for evaluate). gold_poor and
    gold_good are the noisy and clean diagonal pairs of a filter corpus.
    """

    lines: int
    files: dict[str, Path]
    gold_poor: set = field(default_factory=set)
    gold_good: set = field(default_factory=set)


def corpus_seed(seed: int, part: int = 0) -> int:
    return synthcorpus.SEED + 100 * seed + part


def _write(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _noisy_count(lines: int) -> int:
    return round(lines * NOISY_SHARE)


def build_filter_wide(workdir: Path, seed: int, size: str) -> Inputs:
    n = SIZES[size]["wide_lines"]
    sb = synthcorpus.build(total=n, noisy=_noisy_count(n), seed=corpus_seed(seed))
    return Inputs(
        lines=n,
        files={
            "src": _write(workdir / "src.txt", sb.source),
            "tgt": _write(workdir / "tgt.txt", sb.target),
            "trans": _write(workdir / "trans.txt", sb.trans),
        },
        gold_poor=sb.gold_poor,
        gold_good=sb.gold_good,
    )


def build_filter_narrow(workdir: Path, seed: int, size: str) -> Inputs:
    parts = SIZES[size]["narrow_parts"]
    n = SIZES[size]["narrow_part_lines"]
    source, target, trans = [], [], []
    poor, good = set(), set()
    for part in range(parts):
        sb = synthcorpus.build(total=n, noisy=_noisy_count(n),
                               seed=corpus_seed(seed, part))
        off = len(source)
        source += sb.source
        target += sb.target
        trans += sb.trans
        poor |= {(i + off, j + off) for i, j in sb.gold_poor}
        good |= {(i + off, j + off) for i, j in sb.gold_good}
    return Inputs(
        lines=len(source),
        files={
            "src": _write(workdir / "src.txt", source),
            "tgt": _write(workdir / "tgt.txt", target),
            "mt": _write(workdir / "mt.txt", trans),
        },
        gold_poor=poor,
        gold_good=good,
    )


def _renamer(seed: int):
    """A seeded renaming of the synthetic English vocabulary: each noun
    becomes another noun and each verb another verb, case kept, every other
    word left alone. Renaming keeps every length, repetition and overlap of
    a text, so the aligners and metrics do the same work on every seed while
    the bytes differ."""
    rng = random.Random(corpus_seed(seed))
    mapping = {}
    for words in (synthcorpus._EN_WORDS, synthcorpus._EN_VERBS):
        shuffled = list(words)
        rng.shuffle(shuffled)
        mapping.update(zip(words, shuffled))

    def word(match) -> str:
        w = match.group()
        new = mapping.get(w.lower(), w)
        return new.capitalize() if w[0].isupper() else new

    return lambda line: re.sub(r"[A-Za-z]+", word, line)


def build_align(workdir: Path, seed: int, size: str) -> Inputs:
    """doc_a is the first n translation-layer lines of the fixed-seed
    synthetic corpus, noise included. doc_b is the matching target lines
    with every 20th line deleted and, every 30 lines, a target line from
    far down the corpus inserted off the diagonal. --seed renames the
    words (see _renamer): how much of the grid A* explores depends on where
    the noisy lines fall, so the seed must not move them."""
    n = SIZES[size]["align_lines"]
    sb = synthcorpus.build(total=3 * n, noisy=_noisy_count(3 * n), seed=synthcorpus.SEED)
    rename = _renamer(seed)
    doc_a = [rename(line) for line in sb.trans[:n]]
    doc_b = []
    for i in range(n):
        if i % 20 != 7:
            doc_b.append(rename(sb.target[i]))
        if i % 30 == 15:
            doc_b.append(rename(sb.target[2 * n + i // 30]))
    vocab = sorted({w for line in doc_a + doc_b for w in re.findall(r"\w+", line.lower())})
    return Inputs(
        lines=n,
        files={
            "doc_a": _write(workdir / "doc_a.txt", doc_a),
            "doc_b": _write(workdir / "doc_b.txt", doc_b),
            "dict": _write(workdir / "dict.tsv", (f"{w}\t{w}\t1.0" for w in vocab)),
        },
    )


def _move_block(rng: random.Random, text: str) -> str:
    """Move a run of 2 to 4 words elsewhere in text, so that TER's search
    has a shift to find."""
    words = text.split()
    size = rng.randint(2, 4)
    if len(words) < size + 2:
        return text
    start = rng.randrange(len(words) - size + 1)
    rest = words[:start] + words[start + size:]
    to = rng.choice([k for k in range(len(rest) + 1) if k != start])
    return " ".join(rest[:to] + words[start:start + size] + rest[to:])


def build_evaluate(workdir: Path, seed: int, size: str) -> Inputs:
    """Segments of 1, 2 and 3 consecutive clean sentences of the fixed-seed
    synthetic corpus, in a fixed cycle. The candidate is the translation
    layer with one block of words moved, the first reference the target
    side, and the second reference the target side perturbed again with an
    independent generator. --seed renames the words (see _renamer): TER's
    shift search and METEOR's assignment search cost depend steeply on
    segment length and word repetition, so the seed must not choose them."""
    segments = SIZES[size]["eval_segments"]
    sb = synthcorpus.build(total=2 * segments, noisy=0, seed=synthcorpus.SEED)
    rng = random.Random(synthcorpus.SEED + 1)
    rename = _renamer(seed)
    cand, ref1, ref2 = [], [], []
    pos = 0
    for k in range(segments):
        span = range(pos, pos + 1 + k % 3)
        pos = span.stop
        cand.append(rename(_move_block(rng, " ".join(sb.trans[i] for i in span))))
        ref1.append(rename(" ".join(sb.target[i] for i in span)))
        ref2.append(rename(" ".join(
            synthcorpus._perturb(rng, sb.target[i], synthcorpus._EN_WORDS) for i in span
        )))
    return Inputs(
        lines=segments,
        files={
            "cand": _write(workdir / "cand.txt", cand),
            "ref1": _write(workdir / "ref1.txt", ref1),
            "ref2": _write(workdir / "ref2.txt", ref2),
        },
    )
