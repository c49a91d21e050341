"""In-memory spans around crossdock's public functions, installed from outside.

The library is not edited.  ``instrument`` replaces every public function of
the layer modules with a timing wrapper in each namespace that holds it: its
own module, every layer module that imported it by name (``degree_profile``
as seen from ``crossdock.greedy``, ``complete_m2_erd`` as seen from
``crossdock.exact``), and the package itself.  Calls made inside a module
look the name up in that module's globals, so nested calls become child
spans.  The originals are put back when the context exits.

The ``cli`` layer gets no automatic wrappers: its entry point ``main`` is
timed by the caller with ``Tracer.span("cli.<subcommand>")``, so the self
time of that span is the time spent in the CLI outside library calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time
from typing import Callable, Iterator

LAYERS = ("generators", "instance", "schedule", "greedy", "pd2", "exact", "cli")


def no_span(name: str):
    """Stands in for ``Tracer.span`` in an untraced run."""
    return contextlib.nullcontext()


class Tracer:
    """Collects spans and per-instance counts in memory.

    A span is ``[name, start_ns, end_ns, parent_index, instance_id, error]``;
    ``parent_index`` is the list index of the enclosing span or ``None``.
    ``instance_id`` is whatever ``self.instance`` held when the span opened:
    an integer for a benchmark instance, ``None`` during set-up.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.instance: int | None = None
        self.known: set[str] = set()  # names of every wrapped function
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, 0, 0, parent, self.instance, True]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter_ns()
        try:
            yield
            record[5] = False
        finally:
            record[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.known.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def count(self, name: str, value: float) -> None:
        """Record a count for the current instance (last value wins)."""
        self.counts[(self.instance, name)] = value

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route every public library call through ``tracer`` while active."""
    import crossdock

    modules = {layer: importlib.import_module(f"crossdock.{layer}") for layer in LAYERS}
    wrappers: dict[Callable, Callable] = {}
    for layer, mod in modules.items():
        if layer == "cli":
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    saved = []
    for mod in (crossdock, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
    try:
        yield tracer
    finally:
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)


def function_table(
    tracer: Tracer, instances: list[int], span_names=(), count_names=()
) -> dict[str, float]:
    """Per-instance medians of ``<name>.{ms,self_ms,calls,errors}`` and counts.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly on one thread, so children never overlap.
    A span or count an instance did not record contributes 0 to its median,
    and every known name appears, so a layer a workload bypasses reads 0.
    Spans from set-up (instance ``None``), such as the generators, are
    summarised per call instead: ``<name>.ms`` is the median call.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for _name, start, end, parent, _inst, _err in spans:
        if parent is not None:
            child_ns[parent] += end - start

    per_instance: dict[int, dict[str, list[float]]] = {i: {} for i in instances}
    setup_calls: dict[str, list[float]] = {}
    for k, (name, start, end, _parent, inst, err) in enumerate(spans):
        dur_ms = (end - start) / 1e6
        if inst is None:
            setup_calls.setdefault(name, []).append(dur_ms)
            continue
        row = per_instance[inst].setdefault(name, [0.0, 0.0, 0, 0])
        row[0] += dur_ms
        row[1] += dur_ms - child_ns[k] / 1e6
        row[2] += 1
        row[3] += int(err)

    table: dict[str, float] = {}
    timed = {name for rows in per_instance.values() for name in rows}
    for name in sorted(tracer.known | set(span_names) | timed | set(setup_calls)):
        if name in setup_calls and name not in timed:
            table[f"{name}.ms"] = statistics.median(setup_calls[name])
            table[f"{name}.calls"] = len(setup_calls[name])
            continue
        rows = [per_instance[i].get(name, (0.0, 0.0, 0, 0)) for i in instances]
        for col, suffix in enumerate(("ms", "self_ms", "calls", "errors")):
            table[f"{name}.{suffix}"] = statistics.median(r[col] for r in rows) if rows else 0
    for name in sorted(set(count_names) | {name for _inst, name in tracer.counts}):
        table[name] = statistics.median(tracer.counts.get((i, name), 0) for i in instances)
    table["spans.errors"] = sum(1 for s in spans if s[5])
    return table
