"""Fixtures shared by every suite."""

import contextlib
import multiprocessing
import os
import threading
import time
from multiprocessing import forkserver

import pytest

from repro.events.cluster import cluster_context

#: Seconds the ``safeweb-*`` threads a test leaves behind get to finish.
LEDGER_JOIN_SECONDS = 6.0
_FD_DIR = "/proc/self/fd"


def _safeweb_threads():
    return {t for t in threading.enumerate() if t.name.startswith("safeweb-")}


def _descriptors():
    """``{fd: target}`` for this process's open descriptors (empty where
    ``/proc/self/fd`` does not exist)."""
    if not os.path.isdir(_FD_DIR):
        return {}
    found = {}
    for name in os.listdir(_FD_DIR):
        try:
            found[int(name)] = os.readlink(f"{_FD_DIR}/{name}")
        except OSError:  # the descriptor listdir itself used, now closed
            pass
    return found


@contextlib.contextmanager
def _ledger():
    """Fail if the body leaves more ``safeweb-*`` threads (after a bounded
    join), child processes (likewise) or open descriptors than it found."""
    threads_before = _safeweb_threads()
    children_before = set(multiprocessing.active_children())
    descriptors_before = _descriptors()
    yield
    deadline = time.monotonic() + LEDGER_JOIN_SECONDS
    for thread in _safeweb_threads() - threads_before:
        thread.join(max(0.0, deadline - time.monotonic()))
    for child in set(multiprocessing.active_children()) - children_before:
        child.join(max(0.0, deadline - time.monotonic()))
    leaked_threads = sorted(t.name for t in _safeweb_threads() - threads_before)
    leaked_children = sorted(
        child.name for child in set(multiprocessing.active_children()) - children_before
    )
    # A server closes its end of a connection once it reads the client's
    # EOF, on a worker thread that may still be running.
    descriptors_after = _descriptors()
    while len(descriptors_after) > len(descriptors_before) and time.monotonic() < deadline:
        time.sleep(0.01)
        descriptors_after = _descriptors()
    leaked_descriptors = {
        fd: target
        for fd, target in descriptors_after.items()
        if descriptors_before.get(fd) != target
    }
    assert not leaked_threads, f"threads left running: {leaked_threads}"
    assert not leaked_children, f"child processes left running: {leaked_children}"
    assert len(descriptors_after) <= len(descriptors_before), (
        f"descriptors left open: {leaked_descriptors}"
    )


@pytest.fixture()
def resource_ledger():
    """The ledger around one test."""
    with _ledger():
        yield


@pytest.fixture(scope="module")
def module_resource_ledger():
    """The ledger around a whole module, for suites whose module-scoped
    fixture (a ``ClusterEngine``) opens resources lazily inside a test and
    gives them back only at the module's end.

    The forkserver and its resource tracker live as long as the process,
    so they are started first and their descriptors count as found.
    """
    if cluster_context().get_start_method() == "forkserver":
        forkserver.ensure_running()
    with _ledger():
        yield
