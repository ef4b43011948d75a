"""In-memory span recorder that times the program's layers from outside.

The recorder replaces public functions and methods with thin wrappers at
the place where their caller resolves the name (a module global, a class
attribute or a dispatch-table entry), records one span per call — name,
start, end and the span that was open when it began — and puts every
original back when the instrumentation is removed.  Nothing in the program
is edited; with no recorder installed the program runs unwrapped.

Spans are kept in memory while the workload runs and written out once, at
the end.  Self time is a span's duration minus the time covered by its
child spans; a span nested inside another span of the same name is left
out of that name's total, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A post-call hook: (args, kwargs, result) -> counter increments.
Hook = Callable[[tuple, dict, object], Dict[str, int]]


@dataclass(frozen=True)
class Target:
    """One place where a layer function is resolved by its caller.

    ``owner`` is ``"module"`` or ``"module:Attr.path"`` (a class or a
    dict).  ``attr`` is the attribute name, or the key when the owner is a
    dict.
    """

    owner: str
    attr: str


@dataclass(frozen=True)
class SpanSpec:
    """A span name, the targets that feed it, and an optional counting hook."""

    name: str
    targets: Tuple[Target, ...]
    hook: Optional[Hook] = None


def _resolve_owner(owner: str) -> object:
    module_name, _, path = owner.partition(":")
    obj: object = importlib.import_module(module_name)
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


class SpanRecorder:
    """Records spans and counter increments in memory (thread-aware)."""

    def __init__(self) -> None:
        #: (id, parent id or -1, name, start, end, child time, nested)
        self.spans: List[Tuple[int, int, str, float, float, float, bool]] = []
        #: (counter name, time, increment)
        self.counts: List[Tuple[str, float, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------ wrapping

    def _state(self) -> Tuple[list, Dict[str, int]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.active = {}
        return local.stack, local.active

    def _wrap(self, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, active = recorder._state()
            span_id = next(recorder._ids)
            frame = [span_id, 0.0]
            depth = active.get(name, 0)
            active[name] = depth + 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] = depth
                duration = end - start
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                recorder.spans.append(
                    (span_id, parent, name, start, end, frame[1], depth > 0)
                )
            if hook is not None:
                for counter, increment in hook(args, kwargs, result).items():
                    recorder.counts.append((counter, end, increment))
            return result

        return wrapper

    def install(self, specs: Iterable[SpanSpec]) -> None:
        """Wrap every target of *specs*; :meth:`uninstall` restores them."""
        for spec in specs:
            for target in spec.targets:
                owner = _resolve_owner(target.owner)
                if isinstance(owner, dict):
                    original = owner[target.attr]
                    owner[target.attr] = self._wrap(spec.name, original, spec.hook)
                    self._restore.append(
                        functools.partial(owner.__setitem__, target.attr, original)
                    )
                    continue
                # Read the raw class attribute so classmethods stay classmethods.
                raw = (
                    owner.__dict__[target.attr]
                    if isinstance(owner, type)
                    else getattr(owner, target.attr)
                )
                if isinstance(raw, classmethod):
                    wrapped: object = classmethod(
                        self._wrap(spec.name, raw.__func__, spec.hook)
                    )
                else:
                    wrapped = self._wrap(spec.name, raw, spec.hook)
                setattr(owner, target.attr, wrapped)
                self._restore.append(functools.partial(setattr, owner, target.attr, raw))

    def uninstall(self) -> None:
        """Put every original back, newest first."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------- reading

    def layer_stats(
        self, window: Tuple[float, float]
    ) -> Dict[str, Dict[str, float]]:
        """Per-name ``self_s``/``total_s``/``calls`` of spans begun in *window*."""
        low, high = window
        stats: Dict[str, Dict[str, float]] = {}
        for _, _, name, start, end, child, nested in self.spans:
            if not low <= start < high:
                continue
            entry = stats.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
            duration = end - start
            entry["self_s"] += duration - child
            entry["calls"] += 1
            if not nested:
                entry["total_s"] += duration
        return stats

    def counter_totals(self, window: Tuple[float, float]) -> Dict[str, int]:
        """Counter increments recorded inside *window*, summed by name."""
        low, high = window
        totals: Dict[str, int] = {}
        for name, at, increment in self.counts:
            if low <= at < high:
                totals[name] = totals.get(name, 0) + increment
        return totals

    def time_inside(
        self, names: Sequence[str], window: Tuple[float, float]
    ) -> float:
        """Seconds spent in top-level spans of *names* begun inside *window*."""
        low, high = window
        wanted = set(names)
        return sum(
            end - start
            for _, _, name, start, end, _, nested in self.spans
            if name in wanted and not nested and low <= start < high
        )

    def write(self, path: str) -> None:
        """Write every span as one JSON array per line: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, _, _ in sorted(self.spans):
                handle.write(json.dumps([span_id, parent, name, start, end]))
                handle.write("\n")
