"""Counters that several threads write, exact without a lock per write.

The rule: a counter that more than one thread writes is a name on a
:class:`Counters` subclass. A counter that one thread writes stays a
plain int (``producer.events_published``,
``storage_unit.documents_written``, federation's ``export_rounds`` and
``import_failures``), as does one written under its owner's lock
(``UnitSupervisor.restart_count``).

A ``+=`` on a shared attribute is load/add/store, and a thread switched
out between the two loses the increments other threads made meanwhile
(``o.n += f()`` does under CPython; a free-threaded build would for
``o.n += 1`` too). A lock per increment would be a lock per publish. So
each writing thread counts into its own cell, which no other thread
writes: the lock is taken once per thread, to register the cell, and by
reads, which sum the cells. A finished thread's cell is folded into a
retired total by the next registration or read, so the cells never
outnumber the threads that were alive at the last of them.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Tuple


class _Cell:
    """One thread's counts; only *owner* writes them."""

    __slots__ = ("owner",)

    def __init__(self, owner: threading.Thread, names: Tuple[str, ...]) -> None:
        self.owner = owner
        for name in names:
            setattr(self, name, 0)


class _ThreadCells(threading.local):
    """Per thread: ``cell``, registered with *counters* on the thread's first access."""

    def __init__(self, counters: "Counters") -> None:
        self.cell = counters._register()


def _total(name: str) -> property:
    return property(lambda counters: counters.snapshot()[name], doc=f"Exact ``{name}`` total.")


class Counters:
    """Exact counters, cheap to write from any thread.

    A subclass declares its counters in ``NAMES``, and each name becomes
    a read-only property holding its total. Writers add to the calling
    thread's cell (``self.cell().hits += 1``); :meth:`snapshot` sums the
    cells.
    """

    NAMES: Tuple[str, ...] = ()

    __slots__ = ("_counter_lock", "_counter_cells", "_counter_retired", "_counter_local")

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "NAMES" in cls.__dict__:
            cls._cell_type = type(f"{cls.__name__}Cell", (_Cell,), {"__slots__": cls.NAMES})
            for name in cls.NAMES:
                setattr(cls, name, _total(name))

    def __init__(self) -> None:
        self._counter_lock = threading.Lock()
        self._counter_cells: List[_Cell] = []
        self._counter_retired = dict.fromkeys(self.NAMES, 0)
        self._counter_local = _ThreadCells(self)

    def cell(self) -> Any:
        """The calling thread's counters, for the calling thread to add to."""
        return self._counter_local.cell

    def _register(self) -> _Cell:
        cell = self._cell_type(threading.current_thread(), self.NAMES)
        with self._counter_lock:
            self._retire_finished()
            self._counter_cells.append(cell)
        return cell

    def _retire_finished(self) -> None:
        """Fold the cells of finished threads into the retired total (lock held)."""
        live = []
        for cell in self._counter_cells:
            if cell.owner.is_alive():
                live.append(cell)
            else:
                for name in self.NAMES:
                    self._counter_retired[name] += getattr(cell, name)
        self._counter_cells = live

    def snapshot(self) -> Dict[str, int]:
        """Every counter's exact total, in ``NAMES`` order."""
        with self._counter_lock:
            self._retire_finished()
            totals = dict(self._counter_retired)
            for cell in self._counter_cells:
                for name in self.NAMES:
                    totals[name] += getattr(cell, name)
        return totals
