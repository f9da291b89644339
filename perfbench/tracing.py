"""Spans around the package's public functions, installed from outside.

The tracer rebinds each traced function, in every loaded `dersens` module
that holds it, to a wrapper that records a span (name, start, end, parent)
in memory; `remove` puts the originals back, so untraced operations run the
unmodified code.  A layer's self time is its span minus the time its child
spans cover.  Collector pauses become `runtime.gc` spans via `gc.callbacks`.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from collections import defaultdict

# (module, function, span name, counter fed from the result or None)
TRACED = [
    ("dersens.cli", "main", "cli.main", None),
    ("dersens.sqlfront", "load_database", "sqlfront.load_database", "rows_loaded"),
    ("dersens.sqlfront", "parse_schema", "sqlfront.parse_validate", None),
    ("dersens.sqlfront", "parse_query", "sqlfront.parse_validate", None),
    ("dersens.sqlfront", "validate", "sqlfront.parse_validate", None),
    ("dersens.analyzer", "build_plan", "analyzer.build_plan", None),
    ("dersens.analyzer", "emit_sql", "analyzer.emit_sql", None),
    ("dersens.exprs", "analyze", "exprs.analyze", None),
    ("dersens.norms", "scale_elaborate", "norms.scale_elaborate", None),
    ("dersens.engine", "run_initial", "engine.run_initial", None),
    ("dersens.engine", "run_modified", "engine.run_modified", None),
    ("dersens.engine", "run_sensitivity", "engine.run_sensitivity", None),
    ("dersens.engine", "public_rows", "engine.public_rows", "public_rows.rows"),
    ("dersens.mechanism", "privatize", "mechanism.privatize", None),
]
# Counted without a span, only at the name the engine calls.
COUNTED = [("dersens.engine", "eval_scalar", "engine.eval_scalar.calls")]


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _rows_loaded(db) -> int:
    return sum(len(t.ids) for t in db.tables.values())


_RESULT_COUNTERS = {"rows_loaded": ("sqlfront.rows_loaded", _rows_loaded),
                    "public_rows.rows": ("engine.public_rows.rows", len)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []  # span and counter names that cannot be measured
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, object]] = []  # (original, wrapper)
        self._counted: list[tuple[object, str, object]] = []  # (module, name, wrapper)
        self._resolve()

    # -- set-up -------------------------------------------------------------

    def _resolve(self) -> None:
        for mod_name, fn_name, span, counter in TRACED:
            fn = getattr(_module(mod_name), fn_name, None)
            if fn is None:
                self.missing.append(span)
                if counter:
                    self.missing.append(_RESULT_COUNTERS[counter][0])
                continue
            self._wrappers.append((fn, self._span_wrapper(fn, span, counter)))
        for mod_name, fn_name, counter in COUNTED:
            mod = _module(mod_name)
            fn = getattr(mod, fn_name, None)
            if fn is None:
                self.missing.append(counter)
                continue
            self._counted.append((mod, fn_name, self._count_wrapper(fn, counter)))

    def _span_wrapper(self, fn, name: str, counter: str | None):
        spans, stack, counts, missing = self.spans, self._stack, self.counts, self.missing
        result_counter = _RESULT_COUNTERS.get(counter) if counter else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # recursion stays in one span
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if result_counter is not None:
                try:
                    counts[result_counter[0]] += result_counter[1](out)
                except (AttributeError, TypeError):
                    if result_counter[0] not in missing:
                        missing.append(result_counter[0])
            return out

        return wrapper

    def _count_wrapper(self, fn, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "dersens" or n.startswith("dersens."))]
        for fn, wrapper in self._wrappers:
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patches.append((mod, attr, val))
                        setattr(mod, attr, wrapper)
        for mod, attr, wrapper in self._counted:
            self._patches.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            idx = len(self.spans)
            self.spans.append(["runtime.gc", time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
        elif self._stack and self.spans[self._stack[-1]][0] == "runtime.gc":
            self.spans[self._stack.pop()][2] = time.perf_counter()

    # -- spans opened by the benchmark itself --------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- per-operation figures -----------------------------------------------

    def mark(self) -> tuple[int, dict[str, int]]:
        """Position to take an operation's figures from."""
        return len(self.spans), dict(self.counts)

    def figures_since(self, mark: tuple[int, dict[str, int]]) -> dict[str, float]:
        """Self seconds (`<name>.s`), calls (`<name>.calls`) and counters of
        the spans recorded after `mark`."""
        first, counts_before = mark
        spans = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans, start=first):
            out[f"{name}.s"] += (end - start) - child_time[i]
            out[f"{name}.calls"] += 1
        for key, val in self.counts.items():
            out[key] += val - counts_before.get(key, 0)
        return dict(out)
