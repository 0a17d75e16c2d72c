"""Outside-in span tracer for the benchmark.

The tracer never edits the program: it replaces, for the duration of a
traced pass, the public callables each layer exposes with thin wrappers
that open a span around the original.  A wrapped callable is replaced at
every binding its callers use (the class attribute for a method; every
``repro.*`` module global that holds the function object, since modules
bind each other's functions by name at import), and :meth:`Patcher.restore`
puts every original back.

Spans live on an in-memory stack.  A span's self time is its duration
minus the durations of its direct children.  A span whose name is
already open on the stack is not opened again: several public entry
points of one layer call each other (``measure_averaging_time`` calls
``estimate_averaging_time``; a lossy clock's ``next_batch`` calls the
Poisson clock's), and counting the inner call would count that time
twice.  Spans sit at replicate or batch granularity, never per event.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

#: Marker attribute set on every wrapper, so a scan can prove none is left.
WRAPPER_MARK = "_perfbench_wrapper"

#: Chrome trace events kept in memory; later spans still count in the totals.
MAX_TRACE_EVENTS = 200_000

#: Hook signature: ``hook(tracer, args, kwargs, result, duration)``.
Hook = Callable[..., None]


class Patcher:
    """Installs wrappers and restores the originals, last in, first out."""

    def __init__(self) -> None:
        self._undo: "list[tuple[Any, str, Any]]" = []

    def method(self, cls: type, attr: str, make: "Callable[[Any], Any]") -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself)."""
        original = cls.__dict__[attr]
        setattr(cls, attr, _marked(make(original)))
        self._undo.append((cls, attr, original))

    def function(self, func: Any, make: "Callable[[Any], Any]") -> None:
        """Wrap ``func`` at every ``repro.*`` module global bound to it."""
        wrapper = _marked(make(func))
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is func:
                    setattr(module, name, wrapper)
                    self._undo.append((module, name, func))

    def restore(self) -> None:
        """Put every original back (in reverse order of installation)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _marked(wrapper: Any) -> Any:
    setattr(wrapper, WRAPPER_MARK, True)
    return wrapper


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def leftover_wrappers() -> "list[str]":
    """Every benchmark wrapper still installed in a ``repro`` module or class."""
    found = []
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{module.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, WRAPPER_MARK, False):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return sorted(set(found))


class _Frame:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    """Span stack plus per-phase aggregates and counters.

    Aggregates are kept per phase (``"setup"`` or ``"timed"``), so set-up
    work such as seeding a store never mixes with the timed passes.
    """

    def __init__(self) -> None:
        self.patcher = Patcher()
        self.phase = "timed"
        self._stack: "list[_Frame]" = []
        self._open: "set[str]" = set()
        self._origin = time.perf_counter()
        #: phase -> span name -> [inclusive seconds, self seconds, count]
        self.spans: "dict[str, dict[str, list[float]]]" = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0, 0])
        )
        #: phase -> counter name -> value
        self.counters: "dict[str, dict[str, float]]" = defaultdict(
            lambda: defaultdict(float)
        )
        #: phase -> span name -> every duration (only for names in keep_durations)
        self.durations: "dict[str, dict[str, list[float]]]" = defaultdict(
            lambda: defaultdict(list)
        )
        self.keep_durations: "set[str]" = set()
        self.trace_events: "list[dict]" = []

    # -- spans -----------------------------------------------------------

    def is_open(self, name: str) -> bool:
        return name in self._open

    def open(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        self._stack.append(frame)
        self._open.add(name)
        return frame

    def close(self, frame: _Frame) -> float:
        end = time.perf_counter()
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        self._open.discard(frame.name)
        duration = end - frame.start
        totals = self.spans[self.phase][frame.name]
        totals[0] += duration
        totals[1] += duration - frame.child
        totals[2] += 1
        if self._stack:
            self._stack[-1].child += duration
        if frame.name in self.keep_durations:
            self.durations[self.phase][frame.name].append(duration)
        if len(self.trace_events) < MAX_TRACE_EVENTS:
            self.trace_events.append({
                "name": frame.name,
                "cat": self.phase,
                "ph": "X",
                "ts": (frame.start - self._origin) * 1e6,
                "dur": duration * 1e6,
                "pid": 1,
                "tid": 1,
            })
        return duration

    @contextlib.contextmanager
    def span(self, name: str) -> "Iterator[None]":
        """A benchmark-side span (``with tracer.span("experiment.E1"):``)."""
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[self.phase][name] += value

    # -- wrapping --------------------------------------------------------

    def wrapper_factory(
        self, name: str, after: "Hook | None" = None
    ) -> "Callable[[Any], Any]":
        """A ``make(original)`` for :class:`Patcher` opening span ``name``."""

        def make(original: Any) -> Any:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if name in self._open:
                    return original(*args, **kwargs)
                frame = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    duration = self.close(frame)
                if after is not None:
                    after(self, args, kwargs, result, duration)
                return result

            return wrapper

        return make

    def wrap_method(
        self, cls: type, attr: str, name: str, after: "Hook | None" = None
    ) -> None:
        self.patcher.method(cls, attr, self.wrapper_factory(name, after))

    def wrap_function(self, func: Any, name: str, after: "Hook | None" = None) -> None:
        self.patcher.function(func, self.wrapper_factory(name, after))

    # -- export ----------------------------------------------------------

    def write_chrome_trace(self, path: Path, metadata: "dict[str, Any]") -> Path:
        """Write the recorded spans as Chrome trace-event JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"traceEvents": self.trace_events, "otherData": metadata},
                handle,
            )
        return path
