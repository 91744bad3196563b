"""Ten-seed steadiness check of the end-to-end metrics.

    python3 benchmarks/steadiness.py --seeds 101-110 --out set1.json [--workload brute-bulk ...]
    python3 benchmarks/steadiness.py --compare set1.json set2.json

Runs benchmarks/run.py once per seed and workload (untraced, run_seconds from
BENCHMARK.json) and writes, per workload and metric, the values, their median
and quartiles, and the spread: (q3 - q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them. --compare reads two such files
and prints how far each median moved, as a share of the first, against the
metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run_set(workloads: list[str], seeds: list[int]) -> dict:
    out = {}
    for w in workloads:
        values: dict[str, list[float]] = {}
        correct = True
        for seed in seeds:
            cmd = [sys.executable, "benchmarks/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= res["correct"] and res["failed"] == 0
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        metrics = {}
        for k, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            metrics[k] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": v}
            print(f"{w:12s} {k:12s} median={med:.5g} spread={(q3 - q1) / med:.3f} bound={BOUND[k]}", flush=True)
        out[w] = {"runs": len(seeds), "correct": correct, "metrics": metrics}
    return out


def compare(first: dict, second: dict) -> None:
    for w, rec in first["workloads"].items():
        for k, m in rec["metrics"].items():
            moved = second["workloads"][w]["metrics"][k]["median"] / m["median"] - 1
            print(f"{w:12s} {k:12s} median moved {moved:+.3f} (bound {BOUND[k]})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", help="first-last, inclusive")
    ap.add_argument("--workload", action="append", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar="SET")
    args = ap.parse_args()
    if args.compare:
        compare(*(json.loads(Path(p).read_text()) for p in args.compare))
        return 0
    lo, hi = map(int, args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    result = {"seeds": args.seeds, "run_seconds": SPEC["run_seconds"], "workloads": run_set(workloads, seeds)}
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
