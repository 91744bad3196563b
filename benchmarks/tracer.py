"""In-memory spans around the library's layer functions.

A traced pass wraps each layer function by module attribute at run time, so
nothing under ``src/`` changes. Spans (name, start, end, parent) are kept in
memory and written out when the pass ends. A hook whose target is missing,
because a later change renamed or inlined a private helper, is reported as
absent; its metrics are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Records spans and counters while ``active``; a pass-through otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}  # one entry per installed counter
        self.active = True
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn, counter=None):
        """fn inside a span; counter = (key, measure) adds measure(args) to counts[key] per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter is not None:
                key, measure = counter
                self.counts[key] += measure(args)
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children[s.id]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: inclusive time (outermost call of a name only) and self time."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    inclusive: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    for s in spans:
        self_total[s.name] += selfs[s.id]
        p = s.parent
        while p is not None and by_id[p].name != s.name:
            p = by_id[p].parent
        if p is None:
            inclusive[s.name] += s.end - s.start
    return dict(inclusive), dict(self_total)


# ---------------------------------------------------------------------------
# hooks on the library


def _size(args) -> int:
    return args[0].size


def _one(args) -> int:
    return 1


VERIFY_SUITES = ("gauss", "orthogonality", "multi", "genfun", "diagrams", "sym-relations", "limits", "oracle")

# (span name, module, attribute path, counter: (key, measure of the call's args) or None)
HOOKS = [
    ("gfq.make_field", "gftables.gfq", "make_field", None),
    ("bulk.orbit_counts", "gftables.bulk", "orbit_counts", ("bulk.elements", _size)),
    ("bulk.digits", "gftables.bulk", "_digits", ("bulk.chunks", _one)),
    ("bulk.label_indices", "gftables.bulk", "_label_indices", None),
    ("bulk.build_matrices", "gftables.bulk", "_build_matrices", None),
    ("bulk.batch_rank", "gftables.bulk", "batch_rank", None),
    ("bulk.alt_pfaffian", "gftables.bulk", "_alt_labels_pfaffian", None),
    ("bulk.batch_sym_rank_sign", "gftables.bulk", "batch_sym_rank_sign", None),
    ("transform.counts_pure", "gftables.transform", "_counts_pure", ("transform.pure_elements", _size)),
    ("transform.cyc_assembly", "gftables.transform", "_cyc_from_hist", None),
    ("symmetric.psi_brute", "gftables.symmetric", "psi_brute", None),
    ("symmetric.decompose_gamma", "gftables.symmetric", "decompose_gamma", None),
    ("symmetric.psi_closed", "gftables.symmetric", "psi_closed", None),
    ("pascal.family_table", "gftables.pascal", "family_table", None),
    ("pascal.at_q_int", "gftables.pascal", "FamilyTable.at_q_int", None),
    ("pascal.closed_form_table", "gftables.pascal", "closed_form_table", None),
    ("serialize.obj", "gftables.serialize", "canonical_matrix_obj", None),
    ("serialize.obj", "gftables.serialize", "family_table_obj", None),
    ("serialize.obj", "gftables.serialize", "psi_blocks_obj", None),
    ("serialize.obj", "gftables.serialize", "matrix_csv", None),
    ("serialize.to_json", "gftables.serialize", "to_json", None),
] + [
    (f"verify.{s}", "gftables.verify", f"suite_{s.replace('-', '_')}", None) for s in VERIFY_SUITES
]


class Hooks:
    """Installs HOOKS on a tracer; uninstall() puts every original back."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.absent: list[tuple[str, str]] = []  # (span name, missing target)
        self._undo: list[tuple[object, object, object]] = []  # (container, key, original)
        self.installed: set[str] = set()  # span names with at least one target wrapped
        for name, modname, path, counter in hooks:
            try:
                owner = importlib.import_module(modname)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append((name, f"{modname}.{path}"))
                continue
            self.installed.add(name)
            if counter is not None:
                tracer.counts.setdefault(counter[0], 0)
            wrapper = tracer.wrap(name, original, counter)
            if parents:  # a method: only the class holds it
                self._set(owner, attr, wrapper, original)
            else:
                self._replace_everywhere(original, wrapper)

    def _set(self, container, key, value, original) -> None:
        self._undo.append((container, key, original))
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every global (and global dict entry) of the gftables modules that is `original`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "gftables" or modname.startswith("gftables.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper, original)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._set(value, k, wrapper, original)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo.clear()
