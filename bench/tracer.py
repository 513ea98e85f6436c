"""Span tracer that times the tsrg layers from outside.

Each hook replaces a public function under the name its caller looks it
up by (``tsrg.experiment.fit``, ``tsrg.experiment.clf.train``, ...) with a
wrapper that records one span per call.  Nothing in the package changes.
Spans are kept in memory as ``(name, start, end, parent, cell)`` tuples;
``cell`` is the index of the enclosing ``run_experiment`` span, or -1.

A hook whose target no longer exists is skipped with a warning and its
layer reports zero calls; the time it used to take then shows up in the
self time of the span that encloses it.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable

CELL = "experiment.run_experiment"

# span name -> attribute paths to wrap, each the name a caller looks it up by
HOOKS: dict[str, tuple[str, ...]] = {
    "cli.main": ("tsrg.cli.main",),
    "data.ingest_csv": ("tsrg.cli.ingest_csv",),
    "cli.emit_records": ("tsrg.cli.emit_records",),
    CELL: ("tsrg.experiment.run_experiment",),
    "kernels.resolved": ("tsrg.kernels.KernelSpec.resolved",),
    "classifier.train": ("tsrg.experiment.clf.train",),
    "classifier.binary": ("tsrg.classifier._dual_cd_hinge",),
    "classifier.predict": ("tsrg.experiment.clf.predict",),
    "metrics.evaluate": ("tsrg.experiment.evaluate",),
    "solver.fit": ("tsrg.experiment.fit",),
    "kernels.build_augmented": ("tsrg.solver.build_augmented",),
    "kernels.gram": ("tsrg.kernels.gram_matrix", "tsrg.solver.gram_matrix"),
    "solver.linear_solve": ("tsrg.solver._solve_spd",),
    "solver.prox": ("tsrg.solver.update_p", "tsrg.solver.shrink"),
    "solver.multiplier": ("tsrg.solver.update_multiplier",),
    "solver.objective": ("tsrg.solver.objective_terms",),
    "solver.regenerate": ("tsrg.experiment.regenerate",),
    "kernels.mmd": ("tsrg.experiment.mmd",),
    "lbptop.extract": ("tsrg.lbptop.extract",),
}


def _iters_run(result) -> int:
    """IALM iterations from fit's (model, trace) return value."""
    try:
        return int(result[1].iters_run)
    except (TypeError, IndexError, AttributeError, ValueError):
        return 0


# span name -> (counter name, function of the wrapped call's return value)
COUNTERS: dict[str, tuple[str, Callable]] = {
    "solver.fit": ("solver.iters", _iters_run),
}


def _resolve(path: str):
    """(owner, attribute) for a dotted path such as tsrg.kernels.KernelSpec.resolved."""
    parts = path.split(".")
    owner = importlib.import_module(".".join(parts[:2]))
    for part in parts[2:-1]:
        owner = getattr(owner, part)
    if not hasattr(owner, parts[-1]):
        raise AttributeError(f"{path} does not exist")
    return owner, parts[-1]


class Tracer:
    """Wraps the hooked functions while installed; see the module docstring."""

    def __init__(self, names: tuple[str, ...] = tuple(HOOKS)):
        self.names = names
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._cells: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, cells, counters = self.spans, self._stack, self._cells, self.counters
        is_cell = name == CELL
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            cells.append(idx if is_cell else (cells[parent] if parent >= 0 else -1))
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, cells[idx])
            if counter is not None:
                counters[counter[0]] = counters.get(counter[0], 0) + counter[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self) -> "Tracer":
        for name in self.names:
            for path in HOOKS[name]:
                try:
                    owner, attr = _resolve(path)
                except (ImportError, AttributeError):
                    print(f"warning: hook {path} not found; {name} reports zero calls "
                          "from it", file=sys.stderr)
                    continue
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a hooked
        function calling another hook of the same name is not counted twice.
        Self time is a span's duration minus the time its child spans cover.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in HOOKS}
        for i, s in enumerate(spans):
            name, start, end, parent = s[0], s[1], s[2], s[3]
            row = out[name]
            row["calls"] += 1
            row["self"] += (end - start) - covered[i]
            nested = False
            while parent >= 0:
                if spans[parent][0] == name:
                    nested = True
                    break
                parent = spans[parent][3]
            if not nested:
                row["total"] += end - start
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, cell) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent,
                                     "cell": cell}) + "\n")
