"""The benchmark's workloads: inputs from the seed, timed calls, exact checks.

Each workload builds a list of items. An item's ``run`` is what the timed
region calls: one public library entry point that ``gftables compute``,
``export`` or ``verify`` uses, plus the serialization the CLI applies to its
result. An item's ``check`` runs after the timed region and compares the
output with an independent route, exactly.

Library functions are always reached through their module (``transform.
brute_force_phi``, not a from-import), so that a traced pass sees the
wrappers the tracer installs on those module attributes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from gftables import gfq, pascal, serialize, spaces, symmetric, transform, verify

BUDGET = 10**7

# verify-all: the check and SKIP counts of `gftables verify all` at the seed commit
VERIFY_CHECKS = 529
VERIFY_SKIPS = 2

# sha256 of the psi_closed JSON document, recorded at the seed commit; the
# closed sign blocks at this size have no cheaper independent route.
PSI_CLOSED_N = 20
PSI_CLOSED_SHA256 = "24b9775a245019ab7bb6ef0d78bc146ea153ed2b9df6b49c3c0a82635c2185de"


@dataclass(frozen=True)
class Verdict:
    attempted: int
    failed: int
    extra: dict | None = None


@dataclass
class Item:
    name: str
    elements: int  # |A| the item enumerates; 0 for symbolic steps
    run: Callable[[], tuple[object, str]]  # timed: (result, serialized text)
    check: Callable[[object, str], Verdict]  # untimed: exact comparison
    outputs: int = 1  # outputs attempted if run raises
    serialized: bool = True  # text comes from the serialize module


def field_of(q: int) -> gfq.FieldSpec:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    if q != 1:
        raise ValueError("not a prime power")
    return gfq.make_field(p, e)


def _verdict(ok: bool) -> Verdict:
    return Verdict(1, 0 if ok else 1)


# ---------------------------------------------------------------------------
# brute-force tables


def expected_entries(family: str, n: int, m: int | None, char: gfq.CharSpec) -> list[list]:
    """The table by a route independent of enumeration, as JSON entries."""
    if family in ("vec", "mat", "alt"):
        grid = pascal.closed_form_table(family, n, m, char.field.q)
        if any(v.denominator != 1 for row in grid for v in row):
            raise AssertionError("closed form produced non-integers")
        return [[int(v) for v in row] for row in grid]
    if family == "sym":
        phi = symmetric.phi_from_psi(symmetric.psi_closed(n, char))
    elif family == "symscaled":
        phi = symmetric.scaled_canonical_from_blocks(symmetric.psi_closed(n, char))
    else:
        raise ValueError(f"unknown family {family!r}")
    return [[e.to_obj() for e in row] for row in phi.entries]


def brute_item(family: str, n: int, m: int | None, q: int, twist: int) -> Item:
    field = field_of(q)
    space = spaces.make_space(family, field, n, m)
    char = gfq.CharSpec(field, field.element_at(twist))

    def run():
        phi = transform.brute_force_phi(space, char, BUDGET)
        return phi, serialize.to_json(serialize.canonical_matrix_obj(phi, "brute"))

    def check(phi, text):
        want = expected_entries(family, n, m, char)
        got = [[e.to_obj() for e in row] for row in phi.entries]
        return _verdict(got == want and json.loads(text)["entries"] == want)

    shape = f"{n}x{m}" if m is not None else f"{n}"
    return Item(f"{family} n={shape} q={q} twist={twist}", space.size, run, check)


def psi_brute_item(n: int, q: int, twist: int) -> Item:
    field = field_of(q)
    char = gfq.CharSpec(field, field.element_at(twist))
    size = spaces.make_space("sym", field, n).size

    def run():
        blocks, _phi = symmetric.psi_brute(n, char, BUDGET)
        return blocks, serialize.to_json(serialize.psi_blocks_obj(blocks, "brute"))

    def check(blocks, text):
        closed = symmetric.psi_closed(n, char)
        want = json.loads(serialize.to_json(serialize.psi_blocks_obj(closed, "brute")))
        return _verdict(blocks.same_blocks(closed) and json.loads(text) == want)

    return Item(f"psi_brute n={n} q={q} twist={twist}", size, run, check)


def _brute_items(specs, seed: int) -> list[Item]:
    """One item per spec; the seed picks each character twist (a nonzero element)."""
    rng = random.Random(seed)
    items = []
    for family, n, m, q in specs:
        twist = rng.randrange(1, q)
        if family == "psi_brute":
            items.append(psi_brute_item(n, q, twist))
        else:
            items.append(brute_item(family, n, m, q, twist))
    return items


# Prime-field spaces of at least 4096 elements (the numpy path). Each bulk
# classifier leads one table: the histogram fold (vec), batch_rank (mat),
# the Pfaffian (alt) and batch_sym_rank_sign (symscaled).
BRUTE_BULK = [
    ("vec", 9, None, 5),
    ("mat", 3, 3, 5),
    ("alt", 5, None, 5),
    ("symscaled", 3, None, 11),
]

# The element-by-element path: extension fields, and prime spaces below 4096.
# Not in BENCHMARK.json (see README, Noise); run by hand for paired comparisons.
BRUTE_PURE = [
    ("vec", 3, None, 9),
    ("mat", 2, 2, 7),
    ("vec", 5, None, 4),
    ("mat", 1, 3, 8),
    ("mat", 1, 2, 25),
    ("alt", 3, None, 9),
    ("sym", 2, None, 9),
    ("symscaled", 2, None, 9),
    ("vec", 2, None, 27),
    ("vec", 6, None, 3),
    ("alt", 4, None, 3),
    ("psi_brute", 3, None, 3),
    ("mat", 2, 2, 5),
]


# ---------------------------------------------------------------------------
# symbolic recursion and closed forms

# Not in BENCHMARK.json (see README, Noise); run by hand for paired comparisons.
FAMILY_TABLES = [("mat", 16, 16), ("alt", 32, None), ("vec", 32, None)]
SYMBOLIC_QS = (5, 3, 7)
DOC_CHECK_Q = 2  # the family-table documents are evaluated here, away from SYMBOLIC_QS


def _csv_grid(text: str) -> list[list[int]]:
    return [[int(c) for c in line.split(",")[1:]] for line in text.splitlines()[1:]]


def _symbolic_items() -> list[Item]:
    tables: dict[str, pascal.FamilyTable] = {}
    grids: dict[tuple[str, int, str], list[list[int]]] = {}
    items = []
    for family, n, m in FAMILY_TABLES:
        labels = [str(v) for v in (range(0, n + 1, 2) if family == "alt" else range(n + 1))]

        def run_table(family=family, n=n, m=m):
            tab = pascal.family_table(family, n, m)
            tables[family] = tab
            return tab, serialize.to_json(serialize.family_table_obj(tab, None))

        def check_table(tab, text, family=family, n=n, m=m):
            doc = json.loads(text)
            at = [[_horner(e["coeffs"], DOC_CHECK_Q) for e in row] for row in doc["entries"]]
            want = pascal.closed_form_table(family, n, m, DOC_CHECK_Q)
            return _verdict(at == want)

        items.append(Item(f"family_table {family} n={n}", 0, run_table, check_table))
        for q in SYMBOLIC_QS:

            def run_rec(family=family, q=q, labels=labels):
                grid = tables[family].at_q_int(q)
                grids[(family, q, "recursion")] = grid
                return grid, serialize.matrix_csv(labels, grid)

            def run_closed(family=family, n=n, m=m, q=q, labels=labels):
                clo = pascal.closed_form_table(family, n, m, q)
                if any(v.denominator != 1 for row in clo for v in row):
                    raise AssertionError("closed form produced non-integers")
                grid = [[int(v) for v in row] for row in clo]
                grids[(family, q, "closed")] = grid
                return grid, serialize.matrix_csv(labels, grid)

            def check_against(other):
                def check(grid, text, other=other):
                    return _verdict(grid == grids.get(other) and _csv_grid(text) == grid)

                return check

            items.append(Item(f"at_q_int {family} n={n} q={q}", 0, run_rec, check_against((family, q, "closed"))))
            items.append(
                Item(f"closed_form_table {family} n={n} q={q}", 0, run_closed, check_against((family, q, "recursion")))
            )

    char = gfq.default_char(gfq.make_field(3, 1))

    def run_psi():
        blocks = symmetric.psi_closed(PSI_CLOSED_N, char)
        return blocks, serialize.to_json(serialize.psi_blocks_obj(blocks, "closed"))

    def check_psi(blocks, text):
        return _verdict(hashlib.sha256(text.encode()).hexdigest() == PSI_CLOSED_SHA256)

    items.append(Item(f"psi_closed n={PSI_CLOSED_N} q=3", 0, run_psi, check_psi))
    return items


def _horner(coeffs: list[int], q: int) -> Fraction:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * q + c
    return Fraction(acc)


# ---------------------------------------------------------------------------
# verify all


def _verify_item() -> Item:
    def run():
        rep = verify.run_suite("all", BUDGET)
        lines = rep.lines() + [f"{len(rep.checks)} checks, {len(rep.failures)} failures"]
        return rep, "\n".join(lines) + "\n"

    def check(rep, text):
        lines = text.splitlines()[:-1]
        fails = sum(line.startswith("[FAIL]") for line in lines)
        skips = sum(line.startswith("[SKIP]") for line in lines)
        # a silently skipped or dropped check is not a pass
        drift = (len(lines), skips) != (VERIFY_CHECKS, VERIFY_SKIPS)
        return Verdict(len(lines), fails + drift, {"checks": len(lines), "skips": skips})

    return Item("verify all", 0, run, check, outputs=VERIFY_CHECKS, serialized=False)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool  # whether the seed changes the inputs
    build: Callable[[int], list[Item]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("brute-bulk", True, lambda seed: _brute_items(BRUTE_BULK, seed)),
        Workload("brute-pure", True, lambda seed: _brute_items(BRUTE_PURE, seed)),
        Workload("exact-symbolic", False, lambda seed: _symbolic_items()),
        Workload("verify-all", False, lambda seed: [_verify_item()]),
    )
}
