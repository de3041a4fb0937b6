"""Outside-in span tracer.

Spans are recorded by wrapping callables and rebinding module-level names, so
the traced program's source stays untouched.  A call that resolves a name
through its module's globals at call time goes through the wrapper; a name a
caller bound before :meth:`Tracer.patch` does not.

Spans live in flat in-memory arrays (name id, parent index, start, end) until
the end of the run.  A span's self time is its duration minus the durations of
its direct children.  Children nest inside their parent on one thread, so this
is the part of the parent's interval that no child covers.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable

import numpy as np

__all__ = ["Tracer", "SpanTable"]


class SpanTable:
    """A contiguous slice of recorded spans with per-name aggregates."""

    def __init__(self, names: list[str], name_id: np.ndarray, parent: np.ndarray,
                 start: np.ndarray, end: np.ndarray, offset: int):
        self.names = names
        self.name_id = name_id
        self.duration = end - start
        local_parent = parent - offset
        inside = local_parent >= 0
        child = np.bincount(local_parent[inside], weights=self.duration[inside],
                            minlength=len(self.duration))
        self.self_time = self.duration - child

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(name)

    def calls(self, *names: str) -> int:
        return int(sum(self._mask(n).sum() for n in names))

    def total(self, *names: str) -> float:
        return float(sum(self.duration[self._mask(n)].sum() for n in names))

    def self_total(self, *names: str) -> float:
        return float(sum(self.self_time[self._mask(n)].sum() for n in names))


class Tracer:
    """Records nested spans and named counters for the calls it wraps."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_id = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._start)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def count_error_once(self, key: str, exc: BaseException) -> None:
        """Count ``exc`` under ``key`` once, however many spans it leaves."""
        seen = exc.__dict__.setdefault("_perfbench_counted", set())
        if key not in seen:
            seen.add(key)
            self.count(key)

    def wrap(self, name: str, fn: Callable,
             on_result: Callable | None = None,
             on_error: Callable | None = None) -> Callable:
        """``fn`` inside a span called ``name``.

        ``on_result(result, args)`` sees each return value and
        ``on_error(exc)`` each exception, which is re-raised.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, starts, ends = self._name_id, self._parent, self._start, self._end
        stack = self._stack
        clock = self._clock

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, module: object, attr: str, name: str, **hooks) -> None:
        """Rebind ``module.attr`` to a traced wrapper until :meth:`unpatch`."""
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **hooks))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def table(self, lo: int = 0, hi: int | None = None) -> SpanTable:
        """Spans ``lo`` to ``hi``; their parents must lie in the same range,
        except for the range's root spans."""
        hi = len(self) if hi is None else hi
        return SpanTable(self.names, *(np.array(a[lo:hi]) for a in self._arrays()), lo)

    def _arrays(self) -> tuple[array, ...]:
        return self._name_id, self._parent, self._start, self._end

    def save(self, path) -> None:
        """Write every span as arrays: names, name_id, parent, start, end."""
        name_id, parent, start, end = (np.array(a) for a in self._arrays())
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start, end=end)
