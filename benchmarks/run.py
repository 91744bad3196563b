"""The gftables benchmark.

    python3 benchmarks/run.py --workload brute-bulk --seed 1 --seconds 40 --trace 0

Runs fresh-process passes of one workload (see workloads.py) until
``--seconds`` have elapsed, at least one pass, each pass a new interpreter
(worker.py). A pass that is still running when the time is up is finished,
never cut. With ``--trace 0`` the passes are untraced and the result carries
the end-to-end metrics named in BENCHMARK.json: medians over the passes, and
for setup_s the median over processes that stop at the first timed call.
With ``--trace 1`` the run
alternates an untraced and a traced pass and reports the per-layer metrics
of the traced ones plus the tracing overhead; the traced passes never feed
the end-to-end metrics.

Every output is checked exactly outside the timed region. The last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it state the run's set-up and every metric by
name and unit. The whole run record, with every pass, goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"  # names the reported metrics and their units

SETUP_SAMPLES = 9  # set-up-only processes per untraced run; setup_s is their median
RUN_LIMIT_S = 170  # no run may outlast this, whatever --seconds says


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, deadline: float, trace: bool = False, setup_only: bool = False,
               spans: Path | None = None) -> dict:
    """One fresh-process pass; returns its record."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"a {workload} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    return f"unknown ({ref})"


def setup_info(workload: str, seed: int, first: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": first["python"],
        "numpy": first["numpy"],
        "workload": workload,
        "seed": seed,
        "seed_used": first["seed_used"],
    }


def collect(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict], list[float]]:
    """(untraced passes, traced passes, set-up samples) of one run."""
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # A workload may have a single pass per run, so set-up is sampled on its own.
    setups = [] if trace else [run_worker(workload, seed, deadline, setup_only=True)["setup_s"]
                               for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    while not plain or time.monotonic() - start < seconds:
        plain.append(run_worker(workload, seed, deadline))
        if trace:
            spans = OUT / f"spans-{workload}-seed{seed}-pass{len(traced)}.json"
            traced.append(run_worker(workload, seed, deadline, trace=True, spans=spans))
    return plain, traced, setups


def summarize(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    spec = json.loads(SPEC.read_text())
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    plain, traced, setups = collect(workload, seed, seconds, trace)
    passes = plain + traced
    wall = statistics.median(r["wall_s"] for r in plain)
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    info = setup_info(workload, seed, plain[0])
    lines = [
        "setup: " + " ".join(f"{k}={v}" for k, v in info.items() if k != "seed_used")
        + ("" if info["seed_used"] else " (unused: this workload has no seeded input)"),
        f"passes: {len(plain)} untraced" + (f", {len(traced)} traced" if trace else "")
        + "; each a fresh process; timed region of each: " + ", ".join(f"{r['wall_s']:.3f} s" for r in plain),
    ]
    for row in (traced or plain)[0]["items"]:
        size = f" |A|={row['elements']}" if row["elements"] else ""
        path = f" path={row['path']}" if size and "path" in row else ""
        lines.append(f"instance: {row['name']}{size}{path}")
    elements = plain[0]["elements"]
    e2e = {"wall_s": wall, "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    if setups:
        e2e["setup_s"] = statistics.median(setups)
    detail = [f"{k}={v:.6g} {unit_of.get(k, '')}".rstrip() for k, v in e2e.items()]
    if elements:
        detail.append(f"elements_per_s={elements / wall:.6g} 1/s (|A| summed over tables = {elements})")
    if "checks" in plain[0]:
        detail.append(f"checks_per_s={plain[0]['checks'] / wall:.6g} 1/s ({plain[0]['checks']} checks, "
                      f"{plain[0]['skips']} SKIP)")
    detail.append(f"failed_share={failed / attempted:.6g} ({failed} of {attempted} outputs)")
    lines.append("end-to-end: " + ", ".join(detail))

    if trace:
        layers = {k: [r["layers"][k] for r in traced if k in r["layers"]] for k in reported}
        layers["trace.overhead_s"] = [statistics.median(r["wall_s"] for r in traced) - wall]
        metrics = {k: statistics.median(layers[k]) for k in reported if layers.get(k)}
        absent = sorted({f"{name} ({target})" for r in traced for name, target in r["absent"]})
        if absent:
            lines.append("absent layers (hook target missing): " + ", ".join(absent))
        left_out = [k for k in reported if k not in metrics]
        if left_out:
            lines.append("per-layer metrics left out: " + ", ".join(left_out))
        if metrics.get("transform.cache_hits", 0) + metrics.get("transform.cache_misses", 0):
            lines.append(f"transform.cache_hit_ratio base: {metrics['transform.cache_hits']:g} hits of "
                         f"{metrics['transform.cache_hits'] + metrics['transform.cache_misses']:g} lookups")
        lines.append("per-layer: " + ", ".join(f"{k}={v:.6g} {unit_of[k]}" for k, v in metrics.items()))
    else:
        missing = [k for k in reported if k not in e2e]
        if missing:
            raise BenchError(f"{SPEC.name} names end-to-end metrics this run does not measure: {missing}")
        metrics = {k: e2e[k] for k in reported}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    record = {"setup": info, "seconds": seconds, "trace": trace, "setup_samples": setups,
              "untraced": plain, "traced": traced, "result": result}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gftables" / "__init__.py").is_file():
        print(f"benchmark: no gftables sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, lines = summarize(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
