"""One pass of one workload, in a fresh interpreter.

    python3 benchmarks/worker.py --workload brute-bulk --seed 1 --t0 <monotonic> [--trace] [--setup-only]

The library memoizes tables, fields and Gauss binomials, so a pass must start
from a fresh process: repeating inside one process would time cache hits.
The pass imports gftables from this checkout's ``src``, builds its inputs,
times the calls, checks every output exactly outside the timed region, and
prints one JSON record as its last stdout line. ``--t0`` is the parent's
``time.monotonic()`` when it started this process; set-up time runs from
there to the first timed call. The monotonic clock is shared by all processes
on Linux and, unlike the wall clock, is never stepped.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """gftables from this checkout's src, never from anywhere else."""
    if not (SRC / "gftables" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no gftables sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gftables

    if SRC not in Path(gftables.__file__).resolve().parents:
        raise SystemExit(f"benchmark: gftables imported from {gftables.__file__}, not {SRC}")
    return gftables


def cache_info():
    """(hits, misses) of the brute-force histogram memo, or None if it is gone."""
    from gftables import transform

    memo = getattr(transform, "_orbit_counts_cached", None)
    if memo is None or not hasattr(memo, "cache_info"):
        return None
    info = memo.cache_info()
    return info.hits, info.misses


def run_pass(items, tracer=None) -> dict:
    """Time every item, then check every output; returns the pass record."""
    timed = []
    start = time.perf_counter()
    for item in items:
        before = dict(tracer.counts) if tracer else None
        t = time.perf_counter()
        try:
            result, error = item.run(), None
        except Exception:  # one failing item must not hide the others
            result, error = None, traceback.format_exc()
        timed.append((item, result, error, time.perf_counter() - t, before))
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.active = False
    memo = cache_info()

    rec = {"wall_s": wall, "peak_rss_mb": peak_rss_mb, "attempted": 0, "failed": 0, "elements": 0,
           "serialized_bytes": 0, "items": []}
    if memo is not None:
        rec["cache_hits"], rec["cache_misses"] = memo
    for item, result, error, seconds, before in timed:
        row = {"name": item.name, "elements": item.elements, "seconds": seconds}
        if error is None:
            obj, text = result
            try:
                verdict = item.check(obj, text)
            except Exception:
                verdict, row["error"] = None, traceback.format_exc()
            if item.serialized:
                rec["serialized_bytes"] += len(text.encode())
        else:
            verdict, row["error"] = None, error
        attempted = verdict.attempted if verdict else item.outputs
        failed = verdict.failed if verdict else item.outputs
        row.update(attempted=attempted, failed=failed)
        if verdict and verdict.extra:
            rec.update(verdict.extra)
        if tracer and item.elements:
            row["path"] = _path_taken(before, tracer.counts)
        rec["attempted"] += attempted
        rec["failed"] += failed
        rec["elements"] += item.elements
        rec["items"].append(row)
    return rec


def _path_taken(before: dict, after: dict) -> str:
    """Which enumeration path an item took, from the hook counters."""
    bulk = after.get("bulk.elements", 0) - before.get("bulk.elements", 0)
    pure = after.get("transform.pure_elements", 0) - before.get("transform.pure_elements", 0)
    if bulk and pure:
        return "bulk+pure"
    return "bulk" if bulk else "pure" if pure else "memo"


def layer_metrics(tracer, hooks, rec: dict) -> dict:
    """Every per-layer figure of one traced pass. A hook whose target is missing
    gives no figure; BENCHMARK.json picks which figures the run reports."""
    from tracer import layer_totals

    inclusive, self_time = layer_totals(tracer.spans)
    out = {f"{name}_s": inclusive.get(name, 0.0) for name in sorted(hooks.installed)}
    if "bulk.orbit_counts" in hooks.installed:
        # the fold: functional evaluation plus bincount, outside the classifiers
        out["bulk.fold_s"] = self_time.get("bulk.orbit_counts", 0.0)
    out.update(tracer.counts)
    if "cache_hits" in rec:
        hits, lookups = rec["cache_hits"], rec["cache_hits"] + rec["cache_misses"]
        out.update({"transform.cache_hits": hits, "transform.cache_misses": lookups - hits,
                    "transform.cache_hit_ratio": hits / lookups if lookups else 0.0})
    out["serialize.bytes"] = rec["serialized_bytes"]
    out["verify.checks"] = rec.get("checks", 0)
    out["verify.skips"] = rec.get("skips", 0)
    out["trace.spans"] = len(tracer.spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the parent started this process")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="stop after input construction")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)

    import_library()
    import numpy

    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    tracer = hooks = None
    if args.trace:
        from tracer import Hooks, Tracer

        tracer = Tracer()
        hooks = Hooks(tracer)
    items = workload.build(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        rec = {"setup_s": setup_s}
    else:
        rec = run_pass(items, tracer)
        rec["setup_s"] = setup_s
        if tracer:
            rec["layers"] = layer_metrics(tracer, hooks, rec)
            rec["absent"] = hooks.absent
            if args.spans:
                with open(args.spans, "w") as fh:
                    json.dump([[s.id, s.parent, s.name, s.start, s.end] for s in tracer.spans], fh)
    rec.update(python=platform.python_version(), numpy=numpy.__version__, seed_used=workload.seeded)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
