"""Spans around calls into the package's public functions, recorded from the
benchmark process only (no file of the package is edited).

`Tracer.install` replaces each listed function by a recording wrapper at
every module namespace of the package that binds it (so `octahedron.lobachevsky`
and `scissors.classify` are caught as well as the defining module), plus the
suite's criterion table.  Spans stay in memory until `save`.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = {
    "lobachevsky": ("lobachevsky", "lobachevsky_quadrature"),
    "tetra": ("classify", "relabel", "edge_lengths"),
    "octahedron": ("solve_holonomy", "bar_solution", "tet_volume", "volume_remainder"),
    "scissors": ("regge_orbit", "verify_scissors", "decompose", "regge"),
    "klein": ("volume_numeric", "klein_vertices", "schlafli_residual"),
    "sampling": ("sample_finite",),
    "suite": tuple(f"criterion_{k}" for k in range(1, 10)),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Span recorder: one row (name, start_ns, end_ns, parent, op, error) per call."""

    def __init__(self):
        self.rows: list[tuple[int, int, int, int, int, int] | None] = []
        self.stack: list[int] = []
        self.op = -1
        self.lob_elems = 0
        self.verify_failed = 0
        self.sample_requested = 0
        self.sample_drawn = 0
        self._bindings_cache: list[tuple[object, str, object, object]] = []

    def _wrap(self, name_id: int, fn, count=None):
        rows, stack = self.rows, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                error = 0
            finally:
                end = perf_counter_ns()
                stack.pop()
                rows[idx] = (name_id, start, end, parent, self.op, error)
            if count is not None:
                count(args, result)
            return result

        return traced

    def _count_lob(self, args, result):
        self.lob_elems += int(np.size(args[0]))

    def _count_verify(self, args, report):
        self.verify_failed += not report.passed

    def _count_sample(self, args, result):
        stats = result[1]
        self.sample_requested += stats.requested
        self.sample_drawn += stats.drawn

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every place the
        package binds a function of LAYERS, and for the criterion table."""
        import importlib

        counters = {
            "lobachevsky.lobachevsky": self._count_lob,
            "scissors.verify_scissors": self._count_verify,
            "sampling.sample_finite": self._count_sample,
        }
        pkg = [m for n, m in list(sys.modules.items()) if n == "reggescissors" or n.startswith("reggescissors.")]
        bindings, wrapped = [], {}
        for name_id, name in enumerate(SPAN_NAMES):
            mod_name, fn_name = name.split(".")
            orig = getattr(importlib.import_module(f"reggescissors.{mod_name}"), fn_name)
            wrapped[id(orig)] = wrapper = self._wrap(name_id, orig, counters.get(name))
            bindings += [(mod, attr, orig, wrapper) for mod in pkg
                         for attr, value in vars(mod).items() if value is orig]
        suite = sys.modules["reggescissors.suite"]
        table = suite._CRITERIA
        bindings.append((suite, "_CRITERIA", table, tuple(wrapped.get(id(fn), fn) for fn in table)))
        return bindings

    def install(self) -> None:
        """Put the wrappers in place; the bindings are found on first use."""
        if not self._bindings_cache:
            self._bindings_cache = self._bindings()
        for mod, attr, _, wrapper in self._bindings_cache:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._bindings_cache:
            setattr(mod, attr, orig)

    def spans(self) -> np.ndarray:
        """All spans as an int64 array with columns name, start, end, parent, op, error."""
        return np.array([r for r in self.rows if r is not None], dtype=np.int64).reshape(-1, 6)

    def save(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        np.savez(path, names=np.array(SPAN_NAMES), spans=self.spans())


def layer_stats(spans: np.ndarray, n_ops: int) -> dict[str, dict[str, float]]:
    """Per span name over ops 0..n_ops-1: calls per op, median self ms per
    op, and errors per run.  Self time is a span's duration minus the
    durations of its direct children."""
    dur = spans[:, 2] - spans[:, 1]
    child = np.zeros(len(spans), dtype=np.int64)
    nested = spans[:, 3] >= 0
    np.add.at(child, spans[nested, 3], dur[nested])
    keep = (spans[:, 4] >= 0) & (spans[:, 4] < n_ops)
    names, ops = spans[keep, 0], spans[keep, 4]
    per_op = np.zeros((n_ops, len(SPAN_NAMES)))
    np.add.at(per_op, (ops, names), (dur - child)[keep])
    calls = np.bincount(names, minlength=len(SPAN_NAMES))
    errors = np.bincount(names, weights=spans[keep, 5], minlength=len(SPAN_NAMES))
    return {
        name: {
            "calls": calls[i] / n_ops,
            "self_ms": float(np.median(per_op[:, i])) / 1e6,
            "errors": float(errors[i]),
        }
        for i, name in enumerate(SPAN_NAMES)
    }


def op_calls(spans: np.ndarray, op: int) -> list[int]:
    """Call count of every span name within one op."""
    return np.bincount(spans[spans[:, 4] == op, 0], minlength=len(SPAN_NAMES)).tolist()
