"""Bit-stable JSON and CSV renderings of computed tables.

JSON is emitted with sorted keys and fixed separators; CSV uses LF endings
and decimal integers, with the label list as the header row. Values that are
not rational integers (Gauss-sum entries of the symmetric family) only fit
the JSON form.
"""

from __future__ import annotations

import json

from .pascal import FamilyTable
from .symmetric import PsiBlocks
from .transform import CanonicalMatrix


def to_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def canonical_matrix_obj(phi: CanonicalMatrix, method: str) -> dict:
    space = phi.space
    return {
        "kind": "canonical-matrix",
        "method": method,
        "space": space.to_obj(),
        "q": space.field.q,
        "field": space.field.to_obj(),
        "twist": space.field.digits(phi.char.twist),
        "labels": [str(l) for l in phi.labels],
        "orbit_sizes": list(phi.orbit_sizes),
        "entries": [[e.to_obj() for e in row] for row in phi.entries],
    }


def family_table_obj(tab: FamilyTable, q: int | None) -> dict:
    obj = {
        "kind": "symbolic-table",
        "family": tab.family,
        "n": tab.n,
        "labels": [str(v) for v in tab.row_values],
        "entries": [[e.to_obj() for e in row] for row in tab.entries],
    }
    if tab.m is not None:
        obj["m"] = tab.m
    if q is not None:
        obj["q"] = q
    return obj


def psi_blocks_obj(blocks: PsiBlocks, method: str) -> dict:
    field = blocks.char.field
    return {
        "kind": "sign-blocks",
        "method": method,
        "n": blocks.n,
        "q": blocks.q,
        "epsilon": blocks.eps,
        "field": field.to_obj(),
        "twist": field.digits(blocks.char.twist),
        "delta": field.digits(field.delta()),
        "psi1": [[e.to_obj() for e in row] for row in blocks.psi1],
        "psi2": [[e.to_obj() for e in row] for row in blocks.psi2],
        "psi3": [[e.to_obj() for e in row] for row in blocks.psi3],
        "psi4": [[e.to_obj() for e in row] for row in blocks.psi4],
    }


def matrix_csv(labels: list[str], rows) -> str:
    """Integer grid with a label header row; raises on non-integer entries."""
    out = ["label," + ",".join(labels)]
    for lbl, row in zip(labels, rows):
        cells = []
        for e in row:
            v = e.as_int() if hasattr(e, "as_int") else int(e)
            cells.append(str(v))
        out.append(f"{lbl}," + ",".join(cells))
    return "\n".join(out) + "\n"


def symbolic_csv(tab: FamilyTable, q: int) -> str:
    labels = [str(v) for v in tab.row_values]
    grid = tab.at_q_int(q)
    return matrix_csv(labels, grid)
