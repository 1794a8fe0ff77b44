"""Write a BENCH_*.json results file.

    python3 perfbench/baseline.py --out perfbench/BENCH_name.json

Runs every workload of BENCHMARK.json end to end once per seed (seeds 1 to
10) and traced once (seed 0), and records each end-to-end metric's values,
median, quartiles and spread (quartile distance over the median), the
per-layer metrics and the environment. Compare two such files
only when they come from the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[0].split("\t", 1)[1]), json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    report: dict = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "correct": True,
                    "end_to_end": {}, "per_layer": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            env, result = run(workload, seed, bench["run_seconds"], 0)
            report["correct"] &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report["end_to_end"][workload] = {}
        for metric in bench["end_to_end"]:
            xs = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            median = statistics.median(xs)
            report["end_to_end"][workload][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": xs,
            }
            print(f"{workload}\t{metric['name']}\tmedian {median:.6g}\t"
                  f"spread {(q3 - q1) / median:.4f}\tbound {metric['bound']}", flush=True)
        env, result = run(workload, 0, bench["run_seconds"], 1)
        report["correct"] &= result["correct"]
        report["per_layer"][workload] = result["metrics"]
        report["env"] = env
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
