"""Tests of the benchmark's own code (not of the library).

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.import_library()

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gftables import bulk  # noqa: E402


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    outer = t.begin("outer")
    a = t.begin("a")
    t.end(a)
    b = t.begin("b")
    t.end(b)
    t.end(outer)
    selfs = tracer.self_times(t.spans)
    assert selfs[outer.id] == 10.0 - 2.0 - 2.0
    assert selfs[a.id] == 2.0 and selfs[b.id] == 2.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        tracer.Span(0, None, "outer", 0.0, 10.0),
        tracer.Span(1, 0, "a", 1.0, 5.0),
        tracer.Span(2, 0, "b", 3.0, 7.0),
        tracer.Span(3, 0, "c", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert tracer.self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_recursive_span_is_not_counted_twice():
    spans = [
        tracer.Span(0, None, "f", 0.0, 4.0),
        tracer.Span(1, 0, "g", 1.0, 3.0),
        tracer.Span(2, 1, "f", 1.5, 2.5),
    ]
    inclusive, self_total = tracer.layer_totals(spans)
    assert inclusive == {"f": 4.0, "g": 2.0}
    assert self_total == {"f": 2.0 + 1.0, "g": 1.0}


def test_wrong_expected_table_shows_in_failed_share(monkeypatch):
    items = workloads._brute_items([("vec", 2, None, 3), ("mat", 1, 2, 3)], seed=5)
    rec = worker.run_pass(items)
    assert (rec["attempted"], rec["failed"]) == (2, 0)

    real = workloads.expected_entries

    def wrong(family, n, m, char):
        grid = real(family, n, m, char)
        if family == "vec":
            grid[1][1] += 1
        return grid

    monkeypatch.setattr(workloads, "expected_entries", wrong)
    rec = worker.run_pass(items)
    assert rec["failed"] / rec["attempted"] == 0.5
    assert [row["failed"] for row in rec["items"]] == [1, 0]


def test_verify_check_counts_dropped_skips_as_failed():
    item = workloads._verify_item()
    lines = ["[PASS] x"] * (workloads.VERIFY_CHECKS - 1) + ["[SKIP] y :: over budget"]
    text = "\n".join(lines + ["529 checks, 0 failures"]) + "\n"
    verdict = item.check(None, text)
    assert verdict.attempted == workloads.VERIFY_CHECKS
    assert verdict.failed == 1 and verdict.extra == {"checks": 529, "skips": 1}


def test_fresh_brute_bulk_passes_hit_no_memo():
    for seed in (1, 2):
        rec = run.run_worker("brute-bulk", seed, deadline=time.monotonic() + 150)
        assert rec["cache_hits"] == 0
        assert rec["cache_misses"] == len(workloads.BRUTE_BULK)
        assert rec["failed"] == 0


def test_missing_hook_is_reported_absent_and_its_metric_left_out():
    renamed = [h if h[0] != "bulk.digits" else ("bulk.digits", "gftables.bulk", "_digits_renamed", None)
               for h in tracer.HOOKS]
    original = bulk.orbit_counts
    t = tracer.Tracer()
    hooks = tracer.Hooks(t, renamed)
    try:
        assert hooks.absent == [("bulk.digits", "gftables.bulk._digits_renamed")]
        assert bulk.orbit_counts is not original
        rec = worker.run_pass(workloads._brute_items([("vec", 6, None, 5)], seed=1), t)
        metrics = worker.layer_metrics(t, hooks, rec)
    finally:
        hooks.uninstall()
    assert bulk.orbit_counts is original
    assert rec["failed"] == 0 and rec["items"][0]["path"] == "bulk"
    assert "bulk.digits_s" not in metrics and "bulk.chunks" not in metrics
    assert metrics["bulk.orbit_counts_s"] > 0 and metrics["bulk.elements"] == 5**6


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "brute-bulk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
