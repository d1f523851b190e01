"""Outside-in tracer for dcqaoa.

The tracer never edits the package. It replaces attributes in the module
namespace where the caller looks a function up (``dcqaoa.solver.nlgp`` is
the name ``_solve`` calls), so each layer boundary gets a span without a
line of the program changing.

Three kinds of wrapper:

* ``span``: records name, start, end, parent span, run id and thread id.
  Self time is the span's duration minus the time of the spans and
  kernels nested in it on the same thread.
* ``kernel``: for hot leaf functions (the statevector kernels). Calls and
  busy time are summed per name instead of kept as spans, and the busy
  time counts as child time of the enclosing span.
* ``counter``: counts calls only.

Wrappers may take an ``after`` hook that adds computed counts from call
arguments and results, never from timers. Spans stay in memory until
``write_jsonl`` at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("id", "name", "parent", "start", "child_s", "kernel_calls")

    def __init__(self, span_id, name, parent, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.child_s = 0.0
        self.kernel_calls = defaultdict(int)


class _ThreadState:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.root_parent: int | None = None
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}


class Tracer:
    """Span and count recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- per-thread state -------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def current_span_id(self) -> int | None:
        state = self._state()
        return state.stack[-1].id if state.stack else state.root_parent

    def adopt(self, parent_id: int | None) -> None:
        """Make `parent_id` the parent of root spans opened on this thread."""
        self._state().root_parent = parent_id

    def count(self, name: str, value: float = 1) -> None:
        self._state().counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        maxima = self._state().maxima
        maxima[name] = max(maxima.get(name, value), value)

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> _Frame:
        state = self._state()
        parent = state.stack[-1].id if state.stack else state.root_parent
        frame = _Frame(next(self._ids), name, parent, time.perf_counter())
        state.stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        state = self._state()
        popped = state.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        if state.stack:
            state.stack[-1].child_s += duration
        state.spans.append(
            {
                "id": frame.id,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "parent": frame.parent,
                "run": self.run_id,
                "thread": threading.get_ident(),
                "self_s": duration - frame.child_s,
            }
        )

    # -- wrappers ---------------------------------------------------------
    def span(self, module, attr: str, name: str, after=None) -> None:
        """Record a span per call; ``after(tracer, frame, arguments, result)``
        gets the call's arguments by parameter name."""
        fn = getattr(module, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if after is not None:
                after(self, frame, signature.bind(*args, **kwargs).arguments, result)
            return result

        self.patch(module, attr, wrapper)

    def kernel(self, module, attr: str, name: str, work=None) -> None:
        """Sum calls and busy time; ``work(counts, state)`` adds computed
        counts from the statevector passed as the first argument."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            busy = time.perf_counter() - start
            state = self._state()
            if state.stack:
                top = state.stack[-1]
                top.child_s += busy
                top.kernel_calls[name] += 1
            counts = state.counts
            counts[name + ".calls"] += 1
            counts[name + ".busy_s"] += busy
            if work is not None:
                work(counts, args[0] if args else kwargs["state"])
            return result

        self.patch(module, attr, wrapper)

    def counter(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._state().counts[name] += 1
            return fn(*args, **kwargs)

        self.patch(module, attr, wrapper)

    def patch(self, module, attr: str, replacement) -> None:
        """Set module.attr to replacement until uninstall."""
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- results ----------------------------------------------------------
    def spans(self) -> list[dict]:
        with self._states_lock:
            states = list(self._states)
        return sorted((s for st in states for s in st.spans), key=lambda s: s["id"])

    def counts(self) -> dict[str, float]:
        """Summed counts and busy times, plus the maxima, over all threads."""
        total: dict[str, float] = defaultdict(float)
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for key, value in st.counts.items():
                total[key] += value
            for key, value in st.maxima.items():
                total[key] = max(total.get(key, value), value)
        return dict(total)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[str, tuple[int, float]]:
    """(calls, summed self seconds) per span name."""
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        entry = out[span["name"]]
        entry[0] += 1
        entry[1] += span["self_s"]
    return {name: (calls, self_s) for name, (calls, self_s) in out.items()}
