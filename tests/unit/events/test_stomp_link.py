"""Unit tests for the STOMP I/O core (``repro.events.stomp.link``)."""

import socket
import threading
import time

from repro.events.stomp.frames import Frame, FrameParser, encode_frame
from repro.events.stomp.link import FrameLink


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def run_in_thread(link):
    thread = threading.Thread(target=link.run, daemon=True)
    thread.start()
    return thread


class _RecordSocket:
    """A TLS-like socket: one readiness event, several records to read.

    ``select`` sees the real descriptor become readable once; ``recv``
    then hands out the queued chunks one per call — the way an SSL
    object returns records it has already decrypted — and raises the
    would-block error only when they are gone.
    """

    def __init__(self, real, chunks):
        self._real = real
        self._chunks = list(chunks)
        self.sent = b""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._real.close()

    def fileno(self):
        return self._real.fileno()

    def settimeout(self, timeout):
        pass

    def recv(self, size):
        if self._chunks:
            self._real.setblocking(False)
            try:
                self._real.recv(size)  # the one byte that woke select
            except BlockingIOError:
                pass
            return self._chunks.pop(0)
        raise BlockingIOError

    def sendall(self, data):
        self.sent += data


class TestFrameLink:
    def test_reads_on_until_would_block_before_sleeping_again(self):
        """The ``pending()`` trap: bytes the TLS layer already holds
        raise no readiness event, so the loop must drain them itself."""
        ours, theirs = socket.socketpair()
        chunks = [encode_frame(Frame("SEND", {"destination": "/t", "n": str(i)})) for i in range(3)]
        got = []
        link = FrameLink(_RecordSocket(ours, chunks), got.extend, write_timeout=1.0)
        thread = run_in_thread(link)
        try:
            theirs.send(b"\n")  # a single readiness event, nothing after it
            assert wait_for(lambda: len(got) == 3)
            assert [frame.header("n") for frame in got] == ["0", "1", "2"]
        finally:
            link.stop()
            thread.join(5)
            theirs.close()
        assert not thread.is_alive()

    def test_frames_cross_both_ways_and_stop_flushes_first(self):
        left_sock, right_sock = socket.socketpair()
        left_got, right_got = [], []
        left = FrameLink(left_sock, left_got.extend, write_timeout=1.0)
        right = FrameLink(right_sock, right_got.extend, write_timeout=1.0)
        threads = [run_in_thread(left), run_in_thread(right)]
        left.send(Frame("SEND", {"destination": "/a"}))
        right.send(Frame("MESSAGE", {"destination": "/b"}))
        assert wait_for(lambda: left_got and right_got)
        assert (left_got[0].command, right_got[0].command) == ("MESSAGE", "SEND")
        # stop() still writes what was queued before it; the peer then
        # sees the close and ends too.
        left.send(Frame("SEND", {"destination": "/last"}))
        left.stop()
        for thread in threads:
            thread.join(5)
            assert not thread.is_alive()
        assert [frame.header("destination") for frame in right_got] == ["/a", "/last"]
        assert left_sock.fileno() == -1 and right_sock.fileno() == -1

    def test_send_after_the_link_ended_is_dropped_quietly(self):
        ours, theirs = socket.socketpair()
        link = FrameLink(ours, lambda frames: None, write_timeout=1.0)
        thread = run_in_thread(link)
        theirs.close()
        thread.join(5)
        assert not thread.is_alive()
        link.send(Frame("SEND", {"destination": "/t"}))  # must not raise

    def test_unparseable_input_is_answered_with_error_then_hung_up(self):
        ours, theirs = socket.socketpair()
        link = FrameLink(ours, lambda frames: None, write_timeout=1.0)
        thread = run_in_thread(link)
        theirs.sendall(b"BOGUS\n\n\x00")
        theirs.settimeout(5)
        parser, frames = FrameParser(), []
        while True:
            data = theirs.recv(4096)
            if not data:
                break
            frames.extend(parser.feed(data))
        thread.join(5)
        assert not thread.is_alive()
        assert [frame.command for frame in frames] == ["ERROR"]
        assert "BOGUS" in frames[0].header("message")
        theirs.close()
