"""The IFC jail: isolation of unit callbacks (paper §4.3, Figure 2).

Ruby's ``$SAFE=4`` gives SafeWeb three guarantees inside a callback
thread: no I/O, no writes to shared objects, and (with Rubinius
meta-programming) no access to variables of enclosing scopes. CPython has
no safe levels, so the jail rebuilds the same observable contract from
two mechanisms:

1. **I/O denial** — a process-wide :func:`sys.addaudithook` hook examines
   every auditable operation (``open``, ``socket.connect``,
   ``subprocess.Popen``, ``import``, …) and raises
   :class:`~repro.exceptions.IsolationError` when the *current thread* is
   inside a contained region. Restricted builtins additionally replace
   ``open``/``exec``/``eval``/``print``/``__import__`` with stubs that
   raise immediately, giving clear errors for the common cases.

2. **Scope isolation** — :func:`isolate_callback` clones the callback
   with a *copied* globals dictionary and *deep-copied* closure cells
   (and, for bound methods, a deep-copied receiver), the analogue of the
   paper's "duplicate these variables when the callback is registered".
   Writes made by the callback land in the copies and can never be
   observed by other units or later invocations.

Residual gap (documented in DESIGN.md): Python cannot stop a callback
from mutating attributes of objects *reachable* through shared modules
the way Ruby's taint-write rule does. Under the paper's threat model —
buggy, not malicious, code — the paths that matter (I/O, globals,
closures, shared unit state) are all closed.

Containment is per-thread state, so the engine carries the jail **per
delivery**: whichever thread delivers puts the jail's denied prefixes in
force around each non-privileged principal's callback (nested by
:func:`nested_denied`, as :func:`enter_jail` does) and restores the
outer set afterwards, so one thread can run a jailed callback, then a
privileged one, with no state carried over (see docs/ENGINE.md).
"""

from __future__ import annotations

import builtins
import copy
import sys
import threading
import types
from typing import Any, Callable, Iterable, Optional, Tuple

from repro.exceptions import IsolationError

#: Audit-event prefixes denied inside a contained region. Matching is by
#: ``str.startswith`` against the fully qualified audit event name.
DEFAULT_DENIED_PREFIXES: Tuple[str, ...] = (
    "open",
    "import",
    "exec",
    "compile",
    "os.",
    "socket.",
    "subprocess.",
    "shutil.",
    "tempfile.",
    "glob.",
    "pty.",
    "fcntl.",
    "ftplib.",
    "smtplib.",
    "poplib.",
    "imaplib.",
    "urllib.",
    "http.",
    "webbrowser.",
    "sqlite3.",
    "ctypes.",
    "resource.",
    "syslog.",
    "winreg.",
    "msvcrt.",
)

#: Builtins replaced with raising stubs inside isolated callbacks.
DENIED_BUILTINS: Tuple[str, ...] = (
    "open",
    "exec",
    "eval",
    "compile",
    "input",
    "print",
    "breakpoint",
    "__import__",
    "exit",
    "quit",
)

#: Per-thread: ``denied_prefixes`` is the prefix tuple in force on the
#: thread, ``None`` (or unset) outside any jail.
_state = threading.local()
_hook_lock = threading.Lock()
_hook_installed = False


def _thread_contained() -> bool:
    return getattr(_state, "denied_prefixes", None) is not None


def _audit_hook(event: str, args) -> None:
    denied = getattr(_state, "denied_prefixes", None)
    # One C call over the whole tuple: allowed events (``builtins.id`` from
    # every ``deepcopy`` step) are the common case and must stay O(1).
    if denied is not None and event.startswith(denied):
        raise IsolationError(f"operation {event!r} denied inside the IFC jail")


def _ensure_hook() -> None:
    global _hook_installed
    with _hook_lock:
        if not _hook_installed:
            sys.addaudithook(_audit_hook)
            _hook_installed = True


def _denied_stub(name: str) -> Callable:
    def stub(*_args: Any, **_kwargs: Any):
        raise IsolationError(f"builtin {name}() is unavailable inside the IFC jail")

    stub.__name__ = name
    return stub


def restricted_builtins() -> dict:
    """A builtins namespace with I/O and dynamic-execution entries stubbed."""
    namespace = dict(vars(builtins))
    for name in DENIED_BUILTINS:
        if name in namespace:
            namespace[name] = _denied_stub(name)
    return namespace


def nested_denied(
    outer: Optional[Tuple[str, ...]], denied: Optional[Tuple[str, ...]]
) -> Optional[Tuple[str, ...]]:
    """The set in force when *denied* is entered inside *outer*.

    Nested inside another jail the effective denied set is the union of
    the enclosing sets — an inner jail can only tighten the outer one;
    ``None`` lifts the jail whatever encloses it.
    """
    if denied is None or outer is None or outer is denied:
        return denied
    return outer + tuple(prefix for prefix in denied if prefix not in outer)


def enter_jail(denied: Optional[Tuple[str, ...]]) -> Optional[Tuple[str, ...]]:
    """Put *denied* in force on the calling thread (``None`` lifts the jail),
    nested by :func:`nested_denied`.

    Returns the set in force before, for :func:`leave_jail` (in a
    ``finally``). The engine enters its deliveries inline instead
    (docs/ENGINE.md "Security context per delivery").
    """
    outer = getattr(_state, "denied_prefixes", None)
    _state.denied_prefixes = nested_denied(outer, denied)
    return outer


def leave_jail(outer: Optional[Tuple[str, ...]]) -> None:
    """Restore the denied set :func:`enter_jail` returned."""
    _state.denied_prefixes = outer


class _Containment:
    """``with`` form of :func:`enter_jail` / :func:`leave_jail`."""

    __slots__ = ("_denied", "_outer")

    def __init__(self, denied: Optional[Tuple[str, ...]]):
        self._denied = denied
        self._outer: Optional[Tuple[str, ...]] = None

    def __enter__(self) -> None:
        self._outer = enter_jail(self._denied)

    def __exit__(self, *_exc_info: Any) -> None:
        leave_jail(self._outer)


class Jail:
    """Execution containment for unit callbacks.

    One jail instance is shared by an engine; the containment flag is
    per-thread, so concurrent callbacks are contained independently, and
    re-entrant containment (a contained callback synchronously triggering
    another delivery) nests correctly.
    """

    def __init__(self, denied_prefixes: Iterable[str] = DEFAULT_DENIED_PREFIXES):
        self._denied_prefixes = tuple(denied_prefixes)
        _ensure_hook()

    @property
    def denied_prefixes(self) -> Tuple[str, ...]:
        """The audit-event prefixes this jail denies (for :func:`enter_jail`)."""
        return self._denied_prefixes

    def contained(self) -> _Containment:
        """Enter the jail for the calling thread (``with jail.contained():``)."""
        return _Containment(self._denied_prefixes)

    @staticmethod
    def lifted() -> _Containment:
        """Suspend containment on the calling thread, restoring it on exit."""
        return _Containment(None)

    @property
    def active(self) -> bool:
        """True when the calling thread is currently contained."""
        return _thread_contained()

    def isolate(self, callback: Callable) -> Callable:
        """Scope-isolate *callback* (see :func:`isolate_callback`)."""
        return isolate_callback(callback)


def isolate_callback(callback: Callable) -> Callable:
    """A clone of *callback* that cannot write through enclosing scopes.

    * Bound methods get a deep-copied receiver (objects may opt out of the
      copy — engine service handles define ``__deepcopy__`` returning
      themselves, mirroring how the paper's store stays shared while
      everything else is duplicated).
    * Free variables (closure cells) are deep-copied at isolation time.
    * The globals dictionary is replaced by a snapshot copy whose
      ``__builtins__`` is :func:`restricted_builtins`.
    """
    if isinstance(callback, types.MethodType):
        receiver = copy.deepcopy(callback.__self__)
        inner = _isolate_function(callback.__func__)
        return types.MethodType(inner, receiver)
    if isinstance(callback, types.FunctionType):
        return _isolate_function(callback)
    if callable(callback):
        call = getattr(type(callback), "__call__", None)
        if isinstance(call, types.FunctionType):
            receiver = copy.deepcopy(callback)
            return types.MethodType(_isolate_function(call), receiver)
        return callback
    raise TypeError(f"cannot isolate non-callable {callback!r}")


def _isolate_function(func: types.FunctionType) -> types.FunctionType:
    isolated_globals = dict(func.__globals__)
    isolated_globals["__builtins__"] = restricted_builtins()
    closure: Optional[Tuple[types.CellType, ...]] = None
    if func.__closure__:
        closure = tuple(
            types.CellType(_copy_cell_value(cell.cell_contents))
            for cell in func.__closure__
        )
    clone = types.FunctionType(
        func.__code__,
        isolated_globals,
        func.__name__,
        func.__defaults__,
        closure,
    )
    clone.__kwdefaults__ = copy.deepcopy(func.__kwdefaults__)
    clone.__doc__ = func.__doc__
    return clone


def _copy_cell_value(value: Any) -> Any:
    # Modules, functions and classes are shared: they cannot carry event
    # data out of the jail without I/O, and copying them is meaningless.
    if isinstance(value, (types.ModuleType, types.FunctionType, type)):
        return value
    return copy.deepcopy(value)
