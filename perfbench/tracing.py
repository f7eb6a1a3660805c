"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls *into* the program's layers, from the
benchmark's side: a span wraps a function call (:meth:`Tracer.wrap`)
or every ``next()`` of an iterator (:meth:`Tracer.iter`).  Spans nest
on one stack (the engine thread's), so a span's *self* time is its
duration minus the time its child spans cover.

Per-event spans number in the hundreds of thousands, so the recorder
aggregates as it goes: one ``[count, total_s, child_s]`` cell per span
name, plus every individual duration for the few names listed in
``keep_samples`` (coarse spans such as checkpoint writes, whose
percentiles are reported).  :meth:`Tracer.table` is what gets written
out when the run ends.
"""

from __future__ import annotations

import time

__all__ = ["Tracer"]


class Tracer:
    """Aggregating span recorder; single-threaded by construction."""

    def __init__(self, keep_samples: tuple[str, ...] = ()) -> None:
        self._stack: list[list] = []
        self._cells: dict[str, list] = {}
        self.samples: dict[str, list[float]] = {n: [] for n in keep_samples}

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> float:
        name, t0, child = self._stack.pop()
        elapsed = time.perf_counter() - t0
        cell = self._cells.get(name)
        if cell is None:
            cell = self._cells[name] = [0, 0.0, 0.0]
        cell[0] += 1
        cell[1] += elapsed
        cell[2] += child
        if self._stack:
            self._stack[-1][2] += elapsed
        samples = self.samples.get(name)
        if samples is not None:
            samples.append(elapsed)
        return elapsed

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as one ``name`` span."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    def iter(self, name: str, iterable):
        """Yield from ``iterable``, recording every ``next()`` as a span."""
        begin, end = self.begin, self.end
        it = iter(iterable)
        while True:
            begin(name)
            try:
                item = next(it)
            except StopIteration:
                end()
                return
            end()
            yield item

    def self_sum(self) -> float:
        """Sum of every span's self time: the wall the spans account for."""
        return sum(c[1] - c[2] for c in self._cells.values())

    def table(self) -> dict:
        return {name: {"count": c[0], "total_s": c[1], "self_s": c[1] - c[2]}
                for name, c in sorted(self._cells.items())}
