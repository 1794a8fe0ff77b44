"""The benchmark's own tests. Standard library only:

    python3 -m unittest perfbench/test_perfbench.py

They run every workload on tiny inputs, untraced and traced, and check
that every metric BENCHMARK.json names is printed with its unit, that
spans nest, that inputs follow the seed, and that the benchmark refuses
to run where the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BUILD = ROOT / ".bench_build"
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class SmokeTest(unittest.TestCase):
    """One tiny run of every workload per trace mode, shared by the tests."""

    runs: dict[int, subprocess.CompletedProcess] = {}

    @classmethod
    def setUpClass(cls):
        for trace in (0, 1):
            cls.runs[trace] = run_bench("--workload", "all", "--tiny", "--seed", "3",
                                        "--seconds", "0.1", "--trace", str(trace))

    def printed_metrics(self, trace: int) -> dict[str, dict[str, str]]:
        proc = self.runs[trace]
        self.assertEqual(proc.returncode, 0, proc.stderr)
        out: dict[str, dict[str, str]] = {}
        for line in proc.stdout.splitlines():
            if line.startswith("metric\t"):
                _, workload, name, _value, unit = line.split("\t")
                out.setdefault(workload, {})[name] = unit
        return out

    def test_result_line_is_correct(self):
        for trace, proc in self.runs.items():
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"], proc.stderr)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], len(WORKLOADS))

    def test_every_metric_printed_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in BENCH[kind]}
            printed = self.printed_metrics(trace)
            self.assertEqual(sorted(printed), sorted(WORKLOADS))
            for workload in WORKLOADS:
                self.assertEqual(printed[workload], expected, workload)

    def test_end_to_end_metrics_are_never_zero(self):
        result = json.loads(self.runs[0].stdout.splitlines()[-1])
        for key, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, key)

    def test_child_spans_lie_inside_their_parents(self):
        self.printed_metrics(1)
        for workload in WORKLOADS:
            path = BUILD / "work" / f"{workload}-seed3-tiny" / "spans.json"
            passes = json.loads(path.read_text(encoding="utf-8"))
            self.assertEqual(sorted(passes), ["traced", "traced-alloc"])
            for spans in passes.values():
                self.assertEqual([s["name"] for s in spans if s["parent"] is None],
                                 ["cli.main"])
                for span in spans:
                    self.assertLessEqual(span["start"], span["end"])
                    if span["parent"] is not None:
                        parent = spans[span["parent"]]
                        self.assertLessEqual(parent["start"], span["start"], span)
                        self.assertLessEqual(span["end"], parent["end"], span)


class InputsTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        sys.path.insert(0, str(HERE))
        import inputs

        builders = (inputs.build_filter_wide, inputs.build_filter_narrow,
                    inputs.build_align, inputs.build_evaluate)
        BUILD.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
            for build in builders:
                seen = []
                for seed in (1, 1, 2):
                    d = Path(tmp) / f"{build.__name__}-{len(seen)}"
                    d.mkdir()
                    made = build(d, seed, "tiny")
                    seen.append({k: p.read_bytes() for k, p in made.files.items()})
                self.assertEqual(seen[0], seen[1], build.__name__)
                self.assertNotEqual(seen[0], seen[2], build.__name__)


class MissingProgramTest(unittest.TestCase):
    def test_fails_without_result_where_only_the_benchmark_is(self):
        BUILD.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in BENCH["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                             "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
