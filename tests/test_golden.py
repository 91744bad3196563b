"""Replay tests/golden/manifest.json: every recorded invocation prints the same bytes and exits the same."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden")
_spec = importlib.util.spec_from_file_location("make_manifest", GOLDEN / "make_manifest.py")
make_manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_manifest)
RECORDS = json.loads((GOLDEN / "manifest.json").read_text())["invocations"]
CLOSED_GRID = make_manifest.closed_grid()
BRUTE_GRID = make_manifest.brute_grid()


@pytest.mark.parametrize(
    "part",
    [
        pytest.param(lambda r: "20000" in r["argv"], id="compute-grid"),
        pytest.param(lambda r: r["argv"][:2] == ["verify", "all"], id="verify-all"),
        pytest.param(lambda r: r["exit"] == 2 and "20000" not in r["argv"], id="bad-inputs"),
        pytest.param(lambda r: r["argv"] in make_manifest.verify_grid(), id="verify-suites"),
        pytest.param(lambda r: r["argv"][0] == "export" and "--out" in r["argv"], id="exports"),
        pytest.param(lambda r: r["argv"] in CLOSED_GRID, id="closed-grid"),
        pytest.param(lambda r: r["argv"] in BRUTE_GRID, id="brute-grid"),
    ],
)
def test_manifest_replays_byte_identical(monkeypatch, part):
    monkeypatch.delenv("GFTABLES_BUDGET", raising=False)
    want = [rec for rec in RECORDS if part(rec)]
    assert want
    assert [rec["argv"] for rec in want if make_manifest.capture(rec["argv"]) != rec] == []


def test_manifest_covers_the_grid():
    assert [rec["argv"] for rec in RECORDS if "20000" in rec["argv"]] == make_manifest.compute_grid()
    assert sum(rec["argv"][:2] == ["verify", "all"] and rec["exit"] == 0 for rec in RECORDS) == 1


def test_manifest_covers_each_verify_suite():
    assert [rec["argv"] for rec in RECORDS if rec["argv"] in make_manifest.verify_grid()] == make_manifest.verify_grid()
    assert all(rec["exit"] == 0 for rec in RECORDS if rec["argv"] in make_manifest.verify_grid())


def test_manifest_covers_the_exports():
    exports = [rec for rec in RECORDS if rec["argv"] in make_manifest.export_grid()]
    assert [rec["argv"] for rec in exports] == make_manifest.export_grid()
    assert all(rec["exit"] == 0 and "out_sha256" in rec for rec in exports)


def test_manifest_covers_the_closed_grid():
    closed = [rec for rec in RECORDS if rec["argv"] in CLOSED_GRID]
    assert [rec["argv"] for rec in closed] == CLOSED_GRID
    assert all(rec["exit"] == 0 for rec in closed)


def test_manifest_covers_the_brute_grid():
    brute = [rec for rec in RECORDS if rec["argv"] in BRUTE_GRID]
    assert [rec["argv"] for rec in brute] == BRUTE_GRID
    assert all(rec["exit"] == 0 for rec in brute)
