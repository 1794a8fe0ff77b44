"""Benchmark of the bifilter command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --trace 0|1

With --trace 0 each command runs in a child process (perfbench/child.py)
and the run reports the end-to-end metrics: set-up time, input lines per
reference time (perfbench/reference.py) and peak RSS. With --trace 1 the run executes the command once in a
child for reference and then twice in process with timers around the
library calls, and reports the per-layer metrics (see perfbench/tracing.py).
Every output is checked; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Inputs are generated from --seed by perfbench/inputs.py. Everything the
benchmark writes goes under .bench_build/ in the repository root. Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
REQUIRED = (SRC / "bifilter" / "cli.py", ROOT / "tests" / "synthcorpus.py")

# Set-up probes per run: children that only import bifilter.cli, half of
# them before the commands and half after. The fastest of them and of the
# command children is setup_s: a spawn takes under 0.1 s, and other load
# on the machine only ever slows one down.
SETUP_PROBES = 20
# A run must end within 180 s; a child still running at this point is
# killed and counted as failed.
RUN_DEADLINE_S = 170.0
# Criterion 1 of the acceptance suite, checked on every filter output.
MIN_NOISE_REMOVED = 0.80
MIN_GOOD_KEPT = 0.95


@dataclass(frozen=True)
class Workload:
    """build(dir, seed, size) writes the inputs; command(inp, out) gives the
    timed CLI arguments; check(inp, out) checks the outputs and returns
    (problems, quality figures); check_command, when set, gives a command
    run once per run only so that check can compare against it."""

    name: str
    build: Callable
    command: Callable
    check: Callable
    check_command: Optional[Callable] = None


def _filter_args(out: Path, *extra) -> list[str]:
    return ["filter", *extra, "--out-src", str(out / "out.src"),
            "--out-tgt", str(out / "out.tgt"), "--report", str(out / "report.tsv")]


def _gap_penalty() -> float:
    from bifilter.seq_align import AlignConfig

    return AlignConfig().gap_penalty


def _align_args(engine: str):
    """--threshold 0 keeps every aligned pair in the output, so check_align
    can rebuild the whole alignment from it."""
    def args(inp, out: Path) -> list[str]:
        f = inp.files
        return ["align", "--doc-a", str(f["doc_a"]), "--doc-b", str(f["doc_b"]),
                "--dict", str(f["dict"]), "--engine", engine,
                "--gap", str(_gap_penalty()), "--threshold", "0",
                "--out", str(out / f"pairs-{engine}.tsv")]
    return args


def _workloads() -> dict[str, Workload]:
    """The workloads; BENCHMARK.json records why each one exists."""
    import inputs

    return {w.name: w for w in (
        Workload(
            "filter-wide-1k",
            inputs.build_filter_wide,
            lambda inp, out: _filter_args(
                out, "--src", str(inp.files["src"]), "--tgt", str(inp.files["tgt"]),
                "--trans", str(inp.files["trans"])),
            check_filter,
        ),
        Workload(
            "filter-narrow-10k",
            inputs.build_filter_narrow,
            lambda inp, out: _filter_args(
                out, "--src", str(inp.files["src"]), "--tgt", str(inp.files["tgt"]),
                "--provider-file", str(inp.files["mt"]), "--window", "1"),
            check_filter,
        ),
        Workload(
            "align-dp",
            inputs.build_align, _align_args("dp"), check_align, _align_args("astar"),
        ),
        Workload(
            "align-astar",
            inputs.build_align, _align_args("astar"), check_align, _align_args("dp"),
        ),
        Workload(
            "evaluate-mixed",
            inputs.build_evaluate,
            lambda inp, out: ["evaluate", "--cand", str(inp.files["cand"]),
                              "--ref", str(inp.files["ref1"]),
                              "--ref", str(inp.files["ref2"]),
                              "--report", str(out / "scores.json")],
            check_evaluate,
        ),
    )}


# ---------------------------------------------------------------- outputs


def digests(out: Path) -> dict[str, str]:
    """sha256 of every output file; manifests hold wall time and paths."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and not p.name.endswith(".manifest.json")
    }


def _read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split("\n")[:-1]


def check_filter(inp, out: Path) -> tuple[list[str], dict]:
    rows = [line.split("\t") for line in _read_lines(out / "report.tsv")[1:]]
    pairs = [(int(r[0]), int(r[1])) for r in rows]
    src = _read_lines(inp.files["src"])
    tgt = _read_lines(inp.files["tgt"])
    problems = []
    if _read_lines(out / "out.src") != [src[i] for i, _ in pairs]:
        problems.append("out.src does not match the report's source lines")
    if _read_lines(out / "out.tgt") != [tgt[j] for _, j in pairs]:
        problems.append("out.tgt does not match the report's target lines")
    if len({j for _, j in pairs}) != len(pairs):
        problems.append("a target line is used twice")
    accepted = set(pairs)
    quality = {
        "noise_removed": len(inp.gold_poor - accepted) / len(inp.gold_poor),
        "good_kept": len(inp.gold_good & accepted) / len(inp.gold_good),
    }
    if quality["noise_removed"] < MIN_NOISE_REMOVED:
        problems.append(f"noise removed {quality['noise_removed']:.4f} < {MIN_NOISE_REMOVED}")
    if quality["good_kept"] < MIN_GOOD_KEPT:
        problems.append(f"good kept {quality['good_kept']:.4f} < {MIN_GOOD_KEPT}")
    return problems, quality


def _objective(path: Path, n: int, m: int) -> tuple[float, int]:
    """The objective of the alignment an align output file holds, and its
    number of pairs. Alignment checks that the pairs are monotone."""
    from bifilter.seq_align import Alignment

    pairs = [(int(r[0]), int(r[1]), float(r[2]))
             for r in (line.split("\t") for line in _read_lines(path)[1:])]
    if not all(0 <= i < n and 0 <= j < m and 0.0 <= s <= 1.0 for i, j, s in pairs):
        raise ValueError(f"{path.name}: pair out of range")
    alignment = Alignment(pairs, sorted(set(range(n)) - {p[0] for p in pairs}),
                          sorted(set(range(m)) - {p[1] for p in pairs}))
    return alignment.objective(_gap_penalty()), len(pairs)


def check_align(inp, out: Path) -> tuple[list[str], dict]:
    n = len(_read_lines(inp.files["doc_a"]))
    m = len(_read_lines(inp.files["doc_b"]))
    try:
        found = {e: _objective(out / f"pairs-{e}.tsv", n, m)
                 for e in ("dp", "astar") if (out / f"pairs-{e}.tsv").exists()}
    except ValueError as exc:
        return [str(exc)], {}
    if len(found) == 2:
        (dp, pdp), (astar, pastar) = found["dp"], found["astar"]
        # Likelihoods are written with 4 decimals.
        if abs(dp - astar) > 1e-4 * max(pdp, pastar, 1):
            return [f"dp objective {dp:.4f} != astar objective {astar:.4f}"], {}
    return [], {}


def check_evaluate(inp, out: Path) -> tuple[list[str], dict]:
    report = json.loads((out / "scores.json").read_text(encoding="utf-8"))
    problems = []
    for name, hi in (("bleu", 1.0), ("nist", math.inf), ("ter", math.inf), ("meteor", 1.0)):
        score = report.get(name, {}).get("score")
        if not isinstance(score, float) or not 0.0 <= score <= hi:
            problems.append(f"{name} score {score!r} outside [0, {hi}]")
    return problems, {}


def check_outputs(got: dict, reference: dict, extend: bool) -> list[str]:
    """Compare output digests with the ones every command of the run must
    reproduce. With extend, files not seen before join the reference."""
    if not got:
        return ["no output files"]
    problems = [f"{name} digest {got[name][:12]} != {reference[name][:12]}"
                for name in got if name in reference and got[name] != reference[name]]
    if not extend:
        problems += [f"unexpected output {name}" for name in got if name not in reference]
    elif not problems:
        reference.update(got)
    return problems


# --------------------------------------------------------------- children


@dataclass
class ChildResult:
    setup_s: float = math.nan
    main_s: float = math.nan
    rss_mb: float = math.nan
    problem: str = ""


class Runner:
    """Spawns children, one at a time, and counts operations."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str]) -> ChildResult:
        self.spawned += 1
        result_path = self.workdir / f"child-{self.spawned}.json"
        log_path = self.workdir / f"child-{self.spawned}.log"
        # Bytecode is cached under .bench_build/pycache (the warm-up child
        # writes it), so set-up time does not depend on whether the caller's
        # environment forbids writing bytecode.
        env = {k: v for k, v in os.environ.items()
               if k not in ("BIFILTER_CONFIG", "PYTHONDONTWRITEBYTECODE")}
        env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log_path, "wb") as log:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(result_path), *argv],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=self.workdir,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        log_tail = log_path.read_text(errors="replace")[-500:]
        if proc.returncode != 0 or not result_path.exists():
            return ChildResult(problem=f"child exited with {proc.returncode}: {log_tail}")
        out = json.loads(result_path.read_text(encoding="utf-8"))
        res = ChildResult(out["ready"] - spawned_at, out.get("main_s", math.nan),
                          usage.ru_maxrss / 1024.0)
        if not Path(out["module"]).resolve().is_relative_to(SRC):
            res.problem = f"bifilter imported from {out['module']}, not {SRC}"
        elif out.get("rc", 0) != 0:
            res.problem = f"bifilter exited with {out['rc']}: {log_tail}"
        return res

    def reference(self) -> float:
        """Seconds the reference workload takes in a process of its own."""
        proc = subprocess.run([sys.executable, str(HERE / "reference.py")],
                              capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        try:
            return float(proc.stdout)
        except ValueError:
            self.record("reference", [f"reference exited with {proc.returncode}: "
                                      f"{proc.stderr[-500:]}"])
            return math.nan

    def record(self, label: str, problems: list[str]) -> None:
        """Count one operation; it fails when it has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def _expected_digests(workload: str, seed: int, size: str) -> Optional[dict]:
    if seed != 0 or size != "full":
        return None
    return json.loads((HERE / "digests.json").read_text(encoding="utf-8")).get(workload)


def run_command(runner: Runner, wl: Workload, inp, cmd, out: Path, label: str,
                reference: dict) -> tuple[ChildResult, dict]:
    """Run one command child and check its outputs.

    reference holds the digests every command of the run must reproduce;
    the first successful command fills it when it is empty.
    """
    res = runner.spawn(cmd(inp, out))
    problems = [res.problem] if res.problem else []
    quality: dict = {}
    if not problems:
        try:
            problems, quality = wl.check(inp, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems += check_outputs(digests(out), reference, extend=True)
    runner.record(label, problems)
    return res, quality


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    started = time.monotonic()
    workdir = BUILD / "work" / f"{wl.name}-seed{seed}-{size}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "in").mkdir(parents=True)
    out = workdir / "out"
    out.mkdir()
    inp = wl.build(workdir / "in", seed, size)
    runner = Runner(workdir, started + RUN_DEADLINE_S)
    expected = _expected_digests(wl.name, seed, size)
    reference = dict(expected or {})
    quality: dict = {}

    if wl.check_command is not None:
        run_command(runner, wl, inp, wl.check_command, out, "check", reference)

    if trace:
        import tracing

        quality = run_command(runner, wl, inp, wl.command, out, "untraced", reference)[1]
        metrics = tracing.traced_metrics(
            lambda traced_out: wl.command(inp, traced_out), workdir, runner,
            lambda traced_out: check_outputs(digests(traced_out), reference, extend=False))
        metrics.update({f"bisentence_filter.{k}": (v, "fraction") for k, v in quality.items()})
        for k in ("noise_removed", "good_kept"):
            metrics.setdefault(f"bisentence_filter.{k}", (0.0, "fraction"))
    else:
        runner.spawn([])  # warm-up: bytecode cache and file cache
        setups = [runner.spawn([]).setup_s for _ in range(SETUP_PROBES // 2)]
        ops: list[ChildResult] = []
        # Reference seconds around each command: the mean of the reference
        # runs just before and just after it.
        refs: list[float] = []
        measure_from = time.monotonic()
        ref_before = runner.reference()
        while True:
            op_from = time.monotonic()
            res, quality = run_command(runner, wl, inp, wl.command, out,
                                       f"op{len(ops)}", reference)
            if res.problem:
                break
            ref_after = runner.reference()
            ops.append(res)
            refs.append((ref_before + ref_after) / 2)
            ref_before = ref_after
            # Start another command only if, taking as long as this one,
            # it ends within the measured seconds.
            next_end = 2 * time.monotonic() - op_from
            if next_end - measure_from > seconds or next_end >= runner.deadline:
                break
        setups += [runner.spawn([]).setup_s for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        setups += [r.setup_s for r in ops]
        setups = [s for s in setups if not math.isnan(s)]
        if ops:
            print(f"raw\t{wl.name}\tlines_per_s\t"
                  f"{statistics.median([inp.lines / r.main_s for r in ops]):.6g}\t1/s")
        metrics = {
            "setup_s": (min(setups, default=math.nan), "s"),
            "lines_per_ref": (statistics.median([inp.lines * ref / r.main_s
                                                 for r, ref in zip(ops, refs)])
                              if ops else math.nan, "lines/ref"),
            "peak_rss_mb": (max((r.rss_mb for r in ops), default=math.nan), "MB"),
        }

    if expected is not None and not runner.failed and reference != expected:
        runner.record("digests", [f"outputs {sorted(reference)} differ from digests.json"])
    print(f"digests\t{wl.name}\t{json.dumps(reference, sort_keys=True)}")
    for k, v in quality.items():
        print(f"quality\t{wl.name}\t{k}\t{v:.6f}")
    for p in runner.problems:
        print(f"FAILED\t{wl.name}\t{p}", file=sys.stderr)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric\t{wl.name}\t{name}\t{value:.6g}\t{unit}")
    ok = runner.failed == 0 and all(math.isfinite(v) for v, _u in metrics.values())
    return {
        "correct": ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for p in sorted((SRC / "bifilter").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }


def main(argv=None) -> int:
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: the program is not here (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.dont_write_bytecode = False
    sys.path[:0] = [str(HERE), str(SRC)]
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    print(f"env\t{json.dumps(environment(), sort_keys=True)}")
    names = list(workloads) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(workloads[name], args.seed, args.seconds, bool(args.trace),
                           "tiny" if args.tiny else "full")
        for name in names
    }
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
