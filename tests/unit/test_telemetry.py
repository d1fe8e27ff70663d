"""The multi-writer counter type: exact totals, bounded cells, declared order."""

import sys
import threading

import pytest

from repro.telemetry import Counters


class Tally(Counters):
    NAMES = ("events", "bytes", "errors")
    __slots__ = ()


def one():
    return 1


class TestExactUnderPreemption:
    def test_totals_exact_and_cells_bounded_under_thread_churn(self):
        """32 short-lived threads, four alive at a time, each adding a
        call's result (``o.n += f()`` on a shared int loses increments
        here): every increment counted, no finished thread's cell kept."""
        tally = Tally()

        def count():
            for _ in range(2000):
                tally.cell().events += one()
                tally.cell().bytes += len("abc")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # preempt often: a lost update would show
        try:
            for _wave in range(8):
                threads = [threading.Thread(target=count) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert tally.snapshot() == {"events": 32 * 2000, "bytes": 32 * 2000 * 3, "errors": 0}
        assert len(tally._counter_cells) <= threading.active_count()

    def test_a_thread_registers_once(self):
        tally = Tally()
        assert tally.cell() is tally.cell()
        cells = []
        thread = threading.Thread(target=lambda: cells.append(tally.cell()))
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
        assert cells[0] is not tally.cell()


class TestReads:
    def test_snapshot_is_in_names_order(self):
        tally = Tally()
        tally.cell().errors += 2
        tally.cell().events += 1
        assert list(tally.snapshot()) == list(Tally.NAMES)

    def test_properties_equal_the_snapshot(self):
        tally = Tally()
        tally.cell().events += 5
        tally.cell().bytes += 7
        worker = threading.Thread(target=lambda: setattr(tally.cell(), "errors", 3))
        worker.start()
        worker.join(5)
        assert not worker.is_alive()
        snapshot = tally.snapshot()
        assert snapshot == {"events": 5, "bytes": 7, "errors": 3}
        assert {name: getattr(tally, name) for name in Tally.NAMES} == snapshot

    def test_totals_are_read_only(self):
        with pytest.raises(AttributeError):
            Tally().events = 1

    def test_each_subclass_has_its_own_cell_type(self):
        class Other(Counters):
            NAMES = ("hits",)

        assert Other().snapshot() == {"hits": 0}
        assert not hasattr(Other().cell(), "events")
