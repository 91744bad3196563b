"""Write tests/golden/manifest.json: the byte fingerprint of a fixed CLI grid.

    PYTHONPATH=src python tests/golden/make_manifest.py COMMIT
    PYTHONPATH=src python tests/golden/make_manifest.py --check

Each invocation runs in process through `gftables.cli.main`; its record holds
the argv, the sha256 of stdout and of stderr, and the exit code. The grid:
- `compute --method all --budget 20000` for every family at the largest n
  (and, for mat, the largest m for each n) under the budget, and at one past
  it, over q in {3, 5, 7, 11} with twists 1 and 2 and over q in {4, 9, 25, 27, 8}
  with twists 1, 2 and p;
- `export` of every family in `--format json` (`--method all`; `closed` for
  sym at q = 9) and in `csv` (not sym), and `--symbolic` in both formats for
  vec, mat and alt, at q = 5 with twist 1 and at q = 9 with twist 3; these
  records also hold the sha256 of the `--out` file;
- `compute --method closed` for every family at each size past the brute
  budget up to n = 8 (mat: n <= 5 and m <= n + 2), over q in
  {3, 5, 9, 25, 27} with twists 1 and 2, and the closed sign blocks of sym
  at q = 3, n = 20;
- `compute --method brute` of spaces that orbit_counts cuts into several chunks:
  alt n=5 q=5 and vec n=9 q=5 with twists 1 and 2, alt n=4 q=9, vec n=7 q=9 and
  vec n=10 q=4 with twists 1, 2 and p, and alt n=4 q=25 (`--budget 300000000`)
  with twists 1, 2 and 5; then sym n=4 q=5, sym n=2 at q = 27 and 125, sym n=1
  q=10007, symscaled n=3 q=9, mat 2x3 q=9, mat 3x3 at q = 5 and 8
  (`--budget 200000000`) and vec n=1 at q = 65537 and 524309, with twists 1,
  the first nonsquare and p (at e > 1); then `--method all` at twist 1 on
  every one of these spaces;
- `verify all`, each `verify` suite alone, and `verify --jobs 2 all`;
- the bad-input grid (family x q in {2, 3, 4, 9} x n in {-1, 0, 2} x m in
  {none, -1, 3} x method x json/csv x twist in {1, 0} x symbolic, at
  `--budget 5000`): the invocations that exit 2, plus fixed bad inputs of
  `export` and `verify`.

`tests/test_golden.py` replays the manifest. Regenerate it only for a
deliberate change of output bytes, and name the invocations that changed.
`--check` replays instead of writing and prints each mismatch.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

from gftables.cli import main
from gftables.gfq import field_for
from gftables.verify import SUITES

MANIFEST = Path(__file__).with_name("manifest.json")
FAMILIES = ("vec", "mat", "alt", "sym", "symscaled")
METHODS = ("brute", "recursion", "closed", "all")
BUDGET = 20000


def capture(argv: list[str]) -> dict:
    """The record of one in-process invocation, run in a fresh directory that holds its --out file."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines at this width
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects with exit code 2
            code = exc.code
        finally:
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
        target = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        written = target.read_bytes() if target and target.is_file() else None
    sha = lambda b: hashlib.sha256(b).hexdigest()
    rec = {"argv": argv, "stdout_sha256": sha(out.getvalue().encode()), "stderr_sha256": sha(err.getvalue().encode()), "exit": code}
    return rec if written is None else rec | {"out_sha256": sha(written)}


def _dim(family: str, n: int, m: int | None = None) -> int:
    """The dimension of the space the family acts on."""
    return {"vec": n, "mat": n * (m or 0), "alt": n * (n - 1) // 2}.get(family, n * (n + 1) // 2)


def _shapes(family: str, q: int) -> list[tuple[int, int | None]]:
    """(n, m) at the largest size under BUDGET and one past it."""
    if family == "mat":
        out = []
        for n in itertools.count(1):
            if q ** (n * n) > BUDGET:
                return out + [(n, n)]
            m = n
            while q ** (n * (m + 1)) <= BUDGET:
                m += 1
            out += [(n, m), (n, m + 1)]
    n = 0
    while q ** _dim(family, n + 1) <= BUDGET:
        n += 1
    return [(n, None), (n + 1, None)]


def compute_grid() -> list[list[str]]:
    grid = []
    for q, twists in [(q, (1, 2)) for q in (3, 5, 7, 11)] + [(q, (1, 2, p)) for q, p in ((4, 2), (9, 3), (25, 5), (27, 3), (8, 2))]:
        for family in FAMILIES:
            for (n, m), twist in itertools.product(_shapes(family, q), dict.fromkeys(twists)):
                argv = ["compute", "--family", family, "--q", str(q), "--n", str(n), "--method", "all"]
                argv += ["--twist", str(twist), "--budget", str(BUDGET)]
                grid.append(argv + (["--m", str(m)] if m is not None else []))
    return grid


def closed_grid() -> list[list[str]]:
    """The closed route at the sizes brute force cannot reach under BUDGET."""
    grid = []
    for q, family in itertools.product((3, 5, 9, 25, 27), FAMILIES):
        shapes = [(n, m) for n in range(1, 6) for m in range(n, n + 3)] if family == "mat" else [(n, None) for n in range(1, 9)]
        for (n, m), twist in itertools.product(shapes, (1, 2)):
            if q ** _dim(family, n, m) > BUDGET:
                argv = ["compute", "--family", family, "--q", str(q), "--n", str(n), "--method", "closed", "--twist", str(twist)]
                grid.append(argv + (["--m", str(m)] if m is not None else []))
    return grid + [["compute", "--family", "sym", "--q", "3", "--n", "20", "--method", "closed"]]


def export_grid() -> list[list[str]]:
    grid = []
    for q, twist in ((5, 1), (9, 3)):
        for family, n, m in (("vec", 3, None), ("mat", 2, 3), ("alt", 4, None), ("sym", 2, None), ("symscaled", 3, None)):
            base = ["export", "--family", family, "--q", str(q), "--n", str(n), "--twist", str(twist)]
            base += ["--m", str(m)] if m is not None else []
            method = "closed" if family == "sym" and q == 9 else "all"  # brute sign blocks need an odd degree
            grid.append(base + ["--method", method, "--format", "json", "--out", "table.json"])
            if family != "sym":  # sign blocks hold Gauss-sum entries: JSON only
                grid.append(base + ["--format", "csv", "--out", "table.csv"])
            if family in ("vec", "mat", "alt"):
                grid += [base + ["--symbolic", "--format", fmt, "--out", f"table.{fmt}"] for fmt in ("json", "csv")]
    return grid


# (family, n, m, q, budget): the twists are 1, 2 and, where the third is given, that one
BRUTE_SPACES = (
    ("alt", 5, None, 5, None, None), ("alt", 4, None, 9, 3, None), ("alt", 4, None, 25, 5, 300000000),
    ("vec", 9, None, 5, None, None), ("vec", 7, None, 9, 3, None), ("vec", 10, None, 4, 2, None),
)
# (family, n, m, q, budget): the twists are 1, the first nonsquare (2 where q is even) and p where e > 1
BRUTE_CLASSES = (
    ("sym", 4, None, 5, None), ("sym", 2, None, 27, None), ("sym", 2, None, 125, None), ("sym", 1, None, 10007, None),
    ("symscaled", 3, None, 9, None), ("mat", 2, 3, 9, None), ("mat", 3, 3, 5, None), ("mat", 3, 3, 8, 200000000),
    ("vec", 1, None, 65537, None), ("vec", 1, None, 524309, None),
)


def _brute_argv(family: str, n: int, m: int | None, q: int, budget: int | None, method: str, twist: int) -> list[str]:
    argv = ["compute", "--family", family, "--q", str(q), "--n", str(n)] + (["--m", str(m)] if m is not None else [])
    return argv + ["--method", method, "--twist", str(twist)] + (["--budget", str(budget)] if budget else [])


def brute_grid() -> list[list[str]]:
    """Brute force on spaces of several chunks or of large p, then `--method all` on each at twist 1.

    A nonsquare twist moves the scalar fold of sym between the two classes of nonzero t.
    """
    grid = []
    for family, n, m, q, third, budget in BRUTE_SPACES:
        grid += [_brute_argv(family, n, m, q, budget, "brute", t) for t in dict.fromkeys((1, 2, third or 1))]
    for family, n, m, q, budget in BRUTE_CLASSES:
        f = field_for(q)
        twists = dict.fromkeys((1, f.delta() if f.p > 2 else 2, f.p if f.e > 1 else 1))
        grid += [_brute_argv(family, n, m, q, budget, "brute", t) for t in twists]
    spaces = [(f, n, m, q, b) for f, n, m, q, _, b in BRUTE_SPACES] + list(BRUTE_CLASSES)
    return grid + [_brute_argv(family, n, m, q, budget, "all", 1) for family, n, m, q, budget in spaces]


def verify_grid() -> list[list[str]]:
    """Every suite alone, then `verify all` in two worker processes (--jobs before the suite name)."""
    return [["verify", name] for name in SUITES] + [["verify", "--jobs", "2", "all"]]


def bad_input_grid() -> list[list[str]]:
    grid = []
    for family, q, n, m, method, fmt, twist, symbolic in itertools.product(
        FAMILIES, (2, 3, 4, 9), (-1, 0, 2), (None, -1, 3), METHODS, ("json", "csv"), (1, 0), (False, True)
    ):
        argv = ["compute", "--family", family, "--q", str(q), "--n", str(n), "--method", method]
        argv += ["--format", fmt, "--twist", str(twist), "--budget", "5000"]
        argv += ["--m", str(m)] if m is not None else []
        grid.append(argv + (["--symbolic"] if symbolic else []))
    return grid + [
        ["export", "--family", "vec", "--q", "3", "--n", "1"],
        ["compute", "--family", "vec", "--q", "3", "--n", "1", "--format", "csv", "--format", "json"],
        ["verify", "gauss", "--q", "6"],
        ["verify", "gauss", "--budget", "0"],
        ["verify", "nosuchsuite"],
    ]


def build() -> list[dict]:
    records = [capture(argv) for argv in compute_grid()]
    records += [capture(argv) for argv in closed_grid()]
    records.append(capture(["verify", "all"]))
    records += [capture(argv) for argv in verify_grid()]
    records += [rec for rec in map(capture, bad_input_grid()) if rec["exit"] == 2]
    records += [capture(argv) for argv in export_grid()]
    records += [capture(argv) for argv in brute_grid()]
    return records


def main_script() -> int:
    os.environ.pop("GFTABLES_BUDGET", None)
    if "--check" in sys.argv[1:]:
        want = json.loads(MANIFEST.read_text())["invocations"]
        bad = [rec["argv"] for rec in want if capture(rec["argv"]) != rec]
        for argv in bad:
            print("MISMATCH", " ".join(argv))
        print(f"{len(want)} invocations, {len(bad)} mismatches")
        return 1 if bad else 0
    records = build()
    at = sys.argv[1] if len(sys.argv) > 1 else None
    lines = ",\n".join(json.dumps(rec) for rec in records)  # one invocation per line
    MANIFEST.write_text(f'{{"generated_at": {json.dumps(at)}, "invocations": [\n{lines}\n]}}\n')
    print(f"{len(records)} invocations written to {MANIFEST.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_script())
