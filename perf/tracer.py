"""Span recording from outside the program.

The traced run installs timing wrappers, at run time and from this
directory, around a listed set of public entry points (adapter.py names
them). A span records its name, start, end, parent (the span open on the
same thread when it started) and the id of the benchmark op in flight.
Per-name totals — calls, total time and *self* time (duration minus the
time covered by child spans) — are accumulated as spans close; the first
``keep`` raw spans are retained and written out when the run ends.

Wrappers run inside the program's IFC jail when a jailed unit calls a
wrapped function, so they import nothing and touch no file or socket.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


class _ThreadState:
    __slots__ = ("index", "stack", "totals", "spans", "next_id")

    def __init__(self, index: int):
        self.index = index
        self.stack: List[list] = []  # open spans: [span id, child seconds]
        self.totals: Dict[str, list] = {}  # name -> [calls, total s, self s, hook sum]
        self.spans: List[tuple] = []
        self.next_id = 0


class Tracer:
    """Wrap functions, collect spans, report per-name self time."""

    def __init__(self, keep: int = 20_000):
        self.enabled = False
        #: Id of the benchmark op in flight (set by the single driver thread).
        self.op = 0
        self._keep = keep
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []
        #: Scratch space for ``measure`` hooks that defer work past the window.
        self.stash: Dict[str, list] = {}

    def __deepcopy__(self, memo) -> "Tracer":
        # The jail deep-copies the closure cells of a callback it
        # isolates; the recorder must stay the one shared instance.
        return self

    # -- installation ------------------------------------------------------

    def wrap(self, name: str, func: Callable, measure: Optional[Callable] = None) -> Callable:
        """A timing wrapper around *func* recording spans under *name*.

        ``measure(result, args)`` may return a number to accumulate with
        the span (rows returned, bytes appended); it runs after the span
        closed, so its cost lands in the caller's self time.
        """
        tracer = self
        keep = self._keep

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            span_id = state.next_id
            state.next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                if measure is not None:
                    total[3] += measure(result, args) or 0
                if len(state.spans) < keep:
                    state.spans.append((name, start, end, span_id, parent, tracer.op))

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def patch_attribute(self, name: str, owner: object, attribute: str, measure=None) -> None:
        """Replace ``owner.attribute`` (a method or instance attribute)."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, original, measure))
        self._patched.append((owner, attribute, original))

    def patch_function(self, name: str, func: Callable, module_prefix: str, measure=None) -> None:
        """Replace a module-level function everywhere it is bound.

        ``from m import f`` copies the binding, so the wrapper has to
        replace *func* in every loaded module under *module_prefix* that
        holds it, not only in the module that defines it.
        """
        wrapper = self.wrap(name, func, measure)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(module_prefix):
                continue
            for attribute, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attribute, wrapper)
                    self._patched.append((module, attribute, func))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    def reset(self) -> None:
        """Forget everything recorded so far (between warm-up and window)."""
        with self._lock:
            for state in self._states:
                state.totals = {}
                state.spans = []
        for items in self.stash.values():
            del items[:]

    # -- reporting ---------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {calls, total_s, self_s, measured}}`` over all threads."""
        merged: Dict[str, list] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own, measured) in state.totals.items():
                entry = merged.setdefault(name, [0, 0.0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
                entry[3] += measured
        return {
            name: {"calls": c, "total_s": t, "self_s": s, "measured": m}
            for name, (c, t, s, m) in merged.items()
        }

    def spans(self) -> List[dict]:
        """The retained raw spans, oldest first, ids unique per thread."""
        rows: List[dict] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, start, end, span_id, parent, op in state.spans:
                rows.append(
                    {
                        "name": name,
                        "start": start,
                        "end": end,
                        "thread": state.index,
                        "id": span_id,
                        "parent": parent,
                        "op": op,
                    }
                )
        rows.sort(key=lambda row: row["start"])
        return rows
