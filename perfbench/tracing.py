"""Spans around orbitrig's layers, recorded from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
``orbitrig`` module namespace that holds it, so calls made through a
``from .x import f`` binding are caught as well as calls inside the
defining module.  ``uninstall`` puts the originals back.  Spans (op id,
span id, parent id, name, start, end) are kept in memory and written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover; the time spent computing counters is taken out of the
enclosing span and booked as ``trace.bookkeeping``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

ROOT = "cli"


def _cells(rows) -> int:
    rows = list(rows)
    return len(rows) * (len(rows[0]) if rows else 0)


def _entry_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            if isinstance(x, Fraction):
                best = max(best, abs(x.numerator).bit_length(), x.denominator.bit_length())
            elif isinstance(x, int):
                best = max(best, abs(x).bit_length())
    return best


def _count_rank_exact(args, kwargs, result, c):
    rows = args[0]
    c["linalg.rank_exact_cells"] += _cells(rows)
    c["linalg.entry_bits_max"] = max(c["linalg.entry_bits_max"], _entry_bits(rows))


def _count_orbit_matrix(args, kwargs, result, c):
    c["rigidity.orbit_cells"] += len(result.rows) * result.ncols


def _count_rigidity_matrix(args, kwargs, result, c):
    c["rigidity.lifted_cells"] += _cells(result)


def _count_analyze(args, kwargs, result, c):
    c["linalg.blocks_ranked"] += len(result.irreps)
    c["linalg.blocks_full_rank"] += sum(1 for r in result.irreps if r.flex == 0)


def _count_union(args, kwargs, result, c):
    labeled = args[0]
    elements = args[1] if len(args) > 1 else kwargs.get("elements")
    n = len(labeled[0][1].edges) if elements is None else len(elements)
    c["matroid.union_elements"] += n
    c["matroid.union_rank"] += result.rank


# (span name, module, attribute, counter function).  The span name is the
# layer; the module is where the function is defined.
TRACED = (
    ("cli.parse_framework", "cli", "parse_framework", None),
    ("cli.emit", "cli", "_emit", None),
    ("gaingraph.lift_cover", "gaingraph", "lift_cover", None),
    ("gaingraph.remove_zero_loops", "gaingraph", "remove_zero_loops", None),
    ("gaingraph.multiply_edges", "gaingraph", "multiply_edges", None),
    ("genframe.random_generic_bars", "genframe", "random_generic_bars", None),
    ("genframe.lift_bars", "genframe", "lift_bars", None),
    ("symmetry.tau_hat2_j", "symmetry", "tau_hat2_j", None),
    ("symmetry.trivial_motion_dim", "symmetry", "trivial_motion_dim", None),
    ("rigidity.orbit_matrix", "rigidity", "orbit_matrix", _count_orbit_matrix),
    ("rigidity.rigidity_matrix", "rigidity", "rigidity_matrix", _count_rigidity_matrix),
    ("rigidity.analyze", "rigidity", "analyze", _count_analyze),
    ("rigidity.analyze_generic", "rigidity", "analyze_generic", None),
    ("rigidity.crosscheck_block_ranks", "rigidity", "crosscheck_block_ranks", None),
    ("linalg.rank_exact", "linalg", "rank_exact", _count_rank_exact),
    ("linalg.rank_complex", "linalg", "rank_complex", None),
    ("matroid.union", "matroid", "matroid_union_rank", _count_union),
    ("matroid.labeled_signed_graphs", "matroid", "labeled_signed_graphs", None),
    ("matroid.verdict", "matroid", "combinatorial_verdict", None),
    ("hinge.random_generic_hinges", "hinge", "random_generic_hinges", None),
    ("hinge.hinge_to_bars", "hinge", "hinge_to_bars", None),
    ("hinge.analyze_hinge", "hinge", "analyze_hinge", None),
)
# methods, wrapped on their class: (span name, module, class, method)
TRACED_METHODS = (("matroid.validate", "matroid", "UnionDecomposition", "validate"),)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op = -1
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        t = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self.op, sid, parent[0] if parent else -1, name, start, t))
        dur = t - start
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if parent is not None:
            parent[3] += dur

    def book(self, fn, args, kwargs, result) -> None:
        t = time.perf_counter()
        fn(args, kwargs, result, self.counters)
        dt = time.perf_counter() - t
        self.self_time["trace.bookkeeping"] += dt
        if self._stack:
            self._stack[-1][3] += dt

    def run_op(self, op_id: int, call):
        """Run ``call`` as one op under a root span named ``cli``."""
        self.op = op_id
        self.begin(ROOT)
        try:
            return call()
        finally:
            self.end()

    def take(self) -> tuple[dict, dict, dict]:
        """Self time, calls and counters since the last ``take``."""
        out = (dict(self.self_time), dict(self.calls), dict(self.counters))
        self.self_time.clear()
        self.calls.clear()
        self.counters.clear()
        return out

    # -- installation ---------------------------------------------------

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if counter is not None:
                tracer.book(counter, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "orbitrig" or k.startswith("orbitrig.")]
        for name, mod, attr, counter in TRACED:
            original = getattr(sys.modules[f"orbitrig.{mod}"], attr)
            wrapper = self._wrap(name, original, counter)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapper)
        for name, mod, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[f"orbitrig.{mod}"], cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, None))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([op, sid, parent, name, round(start, 9), round(end, 9)]) + "\n")
