"""Command line front end.

    gftables compute --family vec --q 3 --n 2 --method all
    gftables verify gauss --q 3,5,7,9,11,13
    gftables export --family mat --q 3 --n 2 --m 3 --format csv --out m.csv

Exit codes: 0 success, 1 a cross-check or verification failed, 2 invalid
input. Identical invocations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

from .gfq import CharSpec, field_for
from .pascal import check_n, closed_form_table, family_table
from .reporting import Report
from .serialize import (
    canonical_matrix_obj,
    family_table_obj,
    matrix_csv,
    psi_blocks_obj,
    symbolic_csv,
    to_json,
)
from .spaces import make_space
from .symmetric import psi_brute, psi_closed, scaled_canonical_from_blocks
from .transform import DEFAULT_BUDGET, CanonicalMatrix, brute_force_phi
from .verify import SUITES, GridFilter, run_suite

FAMILIES = ("vec", "mat", "alt", "sym", "symscaled")
INTEGER_FAMILIES = ("vec", "mat", "alt")


class _Once(argparse.Action):
    """Reject a flag that is passed more than once."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, f"_seen_{self.dest}", False):
            parser.error(f"{option_string} given more than once")
        setattr(namespace, f"_seen_{self.dest}", True)
        setattr(namespace, self.dest, values)


def _budget(flag: int | None) -> int:
    """--budget, else GFTABLES_BUDGET, else the default; at least 1."""
    env = os.environ.get("GFTABLES_BUDGET")
    budget = flag if flag is not None else int(env) if env else DEFAULT_BUDGET
    if budget < 1:
        raise ValueError("budget must be at least 1")
    return budget


@dataclass(frozen=True)
class ComputeRequest:
    """A compute/export invocation, validated before any computation.

    Checks that library constructors already make (a nonzero twist, n <= m
    for mat, odd q for alt and sym, odd degree for brute sign blocks) stay
    with them.
    """

    family: str
    char: CharSpec
    n: int
    m: int | None
    method: str
    symbolic: bool
    fmt: str
    budget: int
    out: str | None

    @classmethod
    def from_args(cls, args) -> ComputeRequest:
        if args.command == "export" and not args.out:
            raise ValueError("export needs --out")
        char = CharSpec(field_for(args.q), args.twist)
        check_n(args.n)
        fmt = args.format or "json"
        if args.symbolic and args.family not in INTEGER_FAMILIES:
            raise ValueError("symbolic tables exist for vec, mat, and alt only")
        if args.family not in INTEGER_FAMILIES and args.method == "recursion":
            raise ValueError("symmetric families have no integer recursion; use brute, closed, or all")
        if args.family == "sym" and fmt == "csv":
            raise ValueError("sign blocks contain Gauss-sum entries; use JSON")
        return cls(args.family, char, args.n, args.m, args.method, args.symbolic, fmt, _budget(args.budget), args.out)

    @property
    def routes(self) -> tuple[str, ...]:
        if self.method != "all":
            return (self.method,)
        return ("brute", "recursion", "closed") if self.family in INTEGER_FAMILIES else ("brute", "closed")


def _table(req: ComputeRequest, route: str):
    """One route's table: a CanonicalMatrix, or the PsiBlocks of sym."""
    if req.family == "sym":
        return psi_brute(req.n, req.char, req.budget)[0] if route == "brute" else psi_closed(req.n, req.char)
    space = make_space(req.family, req.char.field, req.n, req.m)
    if route == "brute":
        return brute_force_phi(space, req.char, req.budget)
    q = req.char.field.q
    if route == "recursion":
        return CanonicalMatrix.from_integers(space, req.char, family_table(req.family, req.n, req.m).at_q_int(q))
    if req.family == "symscaled":
        return scaled_canonical_from_blocks(psi_closed(req.n, req.char))
    return CanonicalMatrix.from_integers(space, req.char, closed_form_table(req.family, req.n, req.m, q))


def _build_compute_output(req: ComputeRequest) -> tuple[str, bool]:
    """Returns (payload text, cross_checks_ok); --method all checks every
    route against the first."""
    q = req.char.field.q
    if req.symbolic:
        tab = family_table(req.family, req.n, req.m)
        return (symbolic_csv(tab, q) if req.fmt == "csv" else to_json(family_table_obj(tab, q))), True
    first, *others = [_table(req, route) for route in req.routes]
    ok = all(t == first for t in others)
    if req.fmt == "csv":
        return matrix_csv([str(l) for l in first.labels], first.entries), ok
    obj = psi_blocks_obj(first, req.method) if req.family == "sym" else canonical_matrix_obj(first, req.method)
    if req.method == "all":
        obj["cross_checked"] = ok
    return to_json(obj), ok


def cmd_compute(req: ComputeRequest) -> int:
    payload, ok = _build_compute_output(req)
    if req.out:
        try:
            with open(req.out, "w", newline="\n") as fh:
                fh.write(payload)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise ValueError(f"cannot write {req.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(payload)
    if not ok:
        print("cross-check FAILED", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError("jobs must be at least 1")
    flt = GridFilter(
        qs=frozenset(field_for(int(t)).q for t in args.q.split(",")) if args.q else None,
        family=args.family,
        n=args.n,
        m=args.m,
    )
    budget = _budget(args.budget)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    rep = Report()
    if args.jobs > 1 and len(names) > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for part in pool.map(run_suite, names, [budget] * len(names), [flt] * len(names)):
                rep.extend(part)
    else:
        for name in names:
            rep.extend(run_suite(name, budget, flt))
    if not rep.checks:
        raise ValueError("the filter selects no check")
    for line in rep.lines():
        print(line)
    failures = rep.failures
    print(f"{len(rep.checks)} checks, {len(failures)} failures")
    return 1 if failures else 0


def _add_compute_args(sub) -> None:
    sub.add_argument("--family", required=True, choices=FAMILIES)
    sub.add_argument("--q", type=int, required=True, help="field order, a prime power")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--m", type=int, default=None, help="column count for mat")
    sub.add_argument("--method", choices=["brute", "recursion", "closed", "all"], default="brute")
    sub.add_argument("--twist", type=int, default=1, help="index of the character twist element")
    sub.add_argument("--symbolic", action="store_true", help="emit entries as polynomials in q")
    sub.add_argument("--format", action=_Once, choices=["json", "csv"], default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--budget", type=int, default=None)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """Built once per process: each parse_args call gets a fresh namespace."""
    parser = argparse.ArgumentParser(prog="gftables", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    pc = subs.add_parser("compute", help="compute a table by any method")
    _add_compute_args(pc)

    pe = subs.add_parser("export", help="compute and write a table (bit-stable)")
    _add_compute_args(pe)

    pv = subs.add_parser("verify", help="run an identity suite")
    pv.add_argument("suite", choices=["gauss", "orthogonality", "multi", "genfun", "diagrams", "sym-relations", "limits", "oracle", "all"])
    pv.add_argument("--q", default=None, help="comma-separated field orders")
    pv.add_argument("--family", default=None, choices=FAMILIES, metavar="FAMILY", help=", ".join(FAMILIES))
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--m", type=int, default=None)
    pv.add_argument("--budget", type=int, default=None)
    pv.add_argument("--jobs", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_compute(ComputeRequest.from_args(args))
    except ValueError as exc:  # BudgetError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
