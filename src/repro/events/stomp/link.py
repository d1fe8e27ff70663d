"""The I/O core both ends of a STOMP connection share.

One thread — whichever calls :meth:`FrameLink.run` — owns the data
socket: it alone reads, parses and writes. Concurrent ``SSL_read`` /
``SSL_write`` on one TLS connection from different threads is undefined
behaviour in OpenSSL, so single-thread multiplexing is what makes the
TLS transport sound, and TLS and plaintext run the same loop.

Any other thread hands a frame over with :meth:`FrameLink.send`: append
it to the outgoing queue, write one byte to a ``socketpair`` the I/O
thread selects on beside the data socket. That thread blocks without a
timeout, so a queued frame leaves as soon as it is scheduled and an idle
link makes no wake-ups at all.
"""

from __future__ import annotations

import collections
import selectors
import socket
import ssl
import threading
from typing import Callable, Deque, List, Optional

from repro.events.stomp.frames import Frame, FrameParser, encode_frame
from repro.exceptions import StompProtocolError


class FrameLink:
    """Socket, frame parser, outgoing queue and wake channel of one link."""

    def __init__(
        self,
        sock: socket.socket,
        on_frames: Callable[[List[Frame]], None],
        write_timeout: float,
        before_write: Optional[Callable[[], None]] = None,
    ):
        self.sock = sock
        self._on_frames = on_frames
        self._write_timeout = write_timeout
        self._before_write = before_write
        self._parser = FrameParser()
        self._outgoing: Deque[Frame] = collections.deque()
        # Created by the trusted code that sets the connection up, never
        # on first use: the IFC jail denies the ``socket.*`` audit events
        # creation raises, while ``send`` on an existing socket raises
        # none — so even a jailed callback can queue a frame.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._io_thread: Optional[int] = None
        self._stopping = False
        #: Returns of the I/O thread from ``select``: an idle link adds none.
        self.wakeups = 0

    def send(self, frame: Frame) -> None:
        """Queue *frame* for the I/O thread; callable from any thread."""
        self._outgoing.append(frame)
        self._wake()

    def stop(self) -> None:
        """End :meth:`run` once the frames queued so far are written."""
        self._stopping = True
        self._wake()

    def _wake(self) -> None:
        # What the I/O thread queues itself (a RECEIPT, an ACK from a
        # delivery callback) it flushes before it sleeps again.
        if threading.get_ident() != self._io_thread:
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass  # wake-ups already pending, or the link has ended

    def run(self) -> None:
        """Serve the link on the calling thread until it ends.

        Returns when the peer closes, the socket fails, the input stops
        parsing (the peer is sent an ``ERROR`` frame first) or
        :meth:`stop` is called; all three sockets are closed on the way out.
        """
        self._io_thread = threading.get_ident()
        selector = selectors.DefaultSelector()
        try:
            with self.sock as sock, self._wake_r as wake, self._wake_w, selector:
                sock.settimeout(0)
                selector.register(sock, selectors.EVENT_READ)
                selector.register(wake, selectors.EVENT_READ)
                # After a successful read, read again before sleeping:
                # bytes TLS has already decrypted are invisible to select.
                unread = False
                while True:
                    self._flush()
                    if self._stopping:
                        return
                    if not unread:
                        ready = [key.fileobj for key, _ in selector.select()]
                        self.wakeups += 1
                        if wake in ready:
                            wake.recv(4096)
                        if sock not in ready:
                            continue
                    try:
                        data = sock.recv(65536)
                    except (BlockingIOError, ssl.SSLWantReadError):
                        unread = False
                        continue
                    if not data:
                        return
                    unread = True
                    try:
                        frames = self._parser.feed(data)
                    except StompProtocolError as error:
                        self._outgoing.append(Frame("ERROR", {"message": str(error)}))
                        self._stopping = True
                        continue
                    if frames:
                        self._on_frames(frames)
        except OSError:
            pass  # the connection died; the caller's clean-up reports it

    def _flush(self) -> None:
        if not self._outgoing:
            return
        self.sock.settimeout(self._write_timeout)
        try:
            while self._outgoing:
                frame = self._outgoing.popleft()
                if self._before_write is not None:
                    self._before_write()
                self.sock.sendall(encode_frame(frame))
        finally:
            self.sock.settimeout(0)
