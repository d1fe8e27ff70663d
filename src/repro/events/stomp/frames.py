"""STOMP 1.1 frame encoding and incremental decoding.

A STOMP frame is::

    COMMAND
    header1:value1
    header2:value2

    body^@

(the NUL byte ``^@`` terminates the frame). Header names and values are
escaped per STOMP 1.1 (``\\n`` → ``\\\\n``, ``:`` → ``\\\\c``, ``\\\\`` →
``\\\\\\\\``, ``\\r`` → ``\\\\r``). When a ``content-length`` header is
present the body is read as exactly that many bytes, allowing NUL bytes
in payloads; frames we encode always include it.

Binary safety: bodies are stored as ``str`` but encoded and decoded with
``utf-8``/``surrogateescape``, so *any* byte sequence — including bytes
that are not valid UTF-8 — transits the fabric byte-exact. A ``bytes``
body passed to :class:`Frame` is normalised to its surrogate-escaped
string form; :attr:`Frame.body_bytes` recovers the exact original bytes.
This is what lets the labeled-document codec ride the frame body as the
cluster IPC format without an extra base64 layer.

Cost: the codec runs four times per cluster event (parent → shard →
worker → shard → parent), so it stays in C-level string operations.
Only a header line that holds a backslash is unescaped, by one compiled
substitution; only a name or value that holds one of the four escaped
characters is escaped. ``tests/reference/frames.py`` is the
per-character codec these are held to, on valid and invalid input.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.exceptions import StompProtocolError

#: Commands a client may send.
CLIENT_COMMANDS = frozenset(
    {"CONNECT", "STOMP", "SEND", "SUBSCRIBE", "UNSUBSCRIBE", "ACK", "NACK",
     "BEGIN", "COMMIT", "ABORT", "DISCONNECT"}
)
#: Commands a server may send.
SERVER_COMMANDS = frozenset({"CONNECTED", "MESSAGE", "RECEIPT", "ERROR"})

_COMMANDS = CLIENT_COMMANDS | SERVER_COMMANDS
_EOLS = (ord("\n"), ord("\r"))

_ESCAPES = [("\\", "\\\\"), ("\r", "\\r"), ("\n", "\\n"), (":", "\\c")]
_UNESCAPES = {"\\\\": "\\", "\\r": "\r", "\\n": "\n", "\\c": ":"}
_NEEDS_ESCAPE = re.compile(r"[\\\r\n:]")
_ESCAPE_TOKEN = re.compile(r"\\.?", re.DOTALL)


def _escape(text: str) -> str:
    if _NEEDS_ESCAPE.search(text) is None:
        return text
    for raw, escaped in _ESCAPES:
        text = text.replace(raw, escaped)
    return text


def _unescape_token(match: "re.Match[str]") -> str:
    token = match.group()
    try:
        return _UNESCAPES[token]
    except KeyError:
        raise StompProtocolError(f"invalid escape sequence {token!r}") from None


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return _ESCAPE_TOKEN.sub(_unescape_token, text)


class Frame:
    """A decoded STOMP frame.

    ``body`` may be given as ``str`` or ``bytes``; bytes are stored in
    their surrogate-escaped string form so the frame type stays
    uniformly ``str`` while :attr:`body_bytes` round-trips byte-exact.
    """

    __slots__ = ("command", "headers", "body")

    def __init__(
        self,
        command: str,
        headers: Optional[Dict[str, str]] = None,
        body: "str | bytes" = "",
    ):
        self.command = command
        self.headers = dict(headers or {})
        if isinstance(body, (bytes, bytearray, memoryview)):
            body = bytes(body).decode("utf-8", "surrogateescape")
        self.body = body

    @property
    def body_bytes(self) -> bytes:
        """The body as the exact bytes it was (or will be) framed as."""
        return self.body.encode("utf-8", "surrogateescape")

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.headers.get(name, default)

    def require(self, name: str) -> str:
        value = self.headers.get(name)
        if value is None:
            raise StompProtocolError(f"{self.command} frame missing {name!r} header")
        return value

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            self.command == other.command
            and self.headers == other.headers
            and self.body == other.body
        )

    def __repr__(self) -> str:
        return f"Frame({self.command!r}, headers={self.headers!r}, body={self.body!r})"


def encode_frame(frame: Frame) -> bytes:
    """Serialise a frame; the only ``content-length`` it writes is the body's."""
    if frame.command not in _COMMANDS:
        raise StompProtocolError(f"unknown STOMP command {frame.command!r}")
    body = frame.body_bytes
    lines = [frame.command]
    for name, value in frame.headers.items():
        name = str(name)
        if name != "content-length":  # the parser keeps the first one
            lines.append(f"{_escape(name)}:{_escape(str(value))}")
    lines.append(f"content-length:{len(body)}")
    head = "\n".join(lines).encode("utf-8", "surrogateescape")
    return head + b"\n\n" + body + b"\x00"


class FrameParser:
    """Incremental parser: feed bytes, collect complete frames.

    Handles partial frames across TCP reads, ``content-length`` bodies
    with embedded NULs, and the heart-beating EOLs STOMP allows between
    frames. One ``feed`` parses every complete frame at an advancing
    offset and drops the consumed bytes once, at the end.
    """

    def __init__(self, max_frame_size: int = 1 << 22):
        self._buffer = bytearray()
        self._max = max_frame_size

    def feed(self, data: bytes) -> List[Frame]:
        buffer = self._buffer
        buffer.extend(data)
        if len(buffer) > self._max:
            raise StompProtocolError("frame exceeds maximum size")
        frames: List[Frame] = []
        offset = 0
        try:
            while True:
                frame, end = self._try_parse(offset)
                if frame is None:
                    return frames
                frames.append(frame)
                offset = end
        finally:
            if offset:
                del buffer[:offset]

    def _try_parse(self, offset: int) -> Tuple[Optional[Frame], int]:
        """The frame starting at *offset* and the offset just past it."""
        buffer = self._buffer
        start = offset
        # Skip inter-frame EOLs (heart-beats).
        while start < len(buffer) and buffer[start] in _EOLS:
            start += 1
        head_end = buffer.find(b"\n\n", start)
        if head_end == -1:
            return None, offset
        header_block = buffer[start:head_end].decode("utf-8", "surrogateescape")
        lines = header_block.split("\n")
        command = lines[0].strip("\r")
        if command not in _COMMANDS:
            raise StompProtocolError(f"unknown STOMP command {command!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            line = line.rstrip("\r")
            if not line:
                continue
            name, colon, value = line.partition(":")
            if not colon:
                raise StompProtocolError(f"malformed header line {line!r}")
            # STOMP: the FIRST occurrence of a repeated header wins, and
            # only its value is unescaped.
            if "\\" in line:
                name = _unescape(name)
                if name not in headers:
                    headers[name] = _unescape(value)
            elif name not in headers:
                headers[name] = value

        body_start = head_end + 2
        length_header = headers.pop("content-length", None)
        if length_header is None:
            end = buffer.find(b"\x00", body_start)
            if end == -1:
                return None, offset
            body = buffer[body_start:end]
        else:
            try:
                length = int(length_header)
            except ValueError:
                raise StompProtocolError(f"bad content-length {length_header!r}") from None
            if length < 0:
                return self._negative_length(command, headers, offset, body_start - offset, length)
            end = body_start + length
            if len(buffer) <= end:
                return None, offset
            if buffer[end] != 0:
                raise StompProtocolError("frame body not NUL-terminated")
            body = buffer[body_start:end]
        return Frame(command, headers, body.decode("utf-8", "surrogateescape")), end + 1

    def _negative_length(
        self, command: str, headers: Dict[str, str], offset: int, body_start: int, length: int
    ) -> Tuple[Optional[Frame], int]:
        """A negative ``content-length``, read as ``tests/reference/frames.py`` reads it.

        The spec slices a buffer that begins at the frame, so a length
        reaching back past the frame's start counts from the buffer's
        end. Re-slicing a copy of the unparsed bytes keeps that reading;
        no well-formed peer sends one.
        """
        unparsed = bytes(self._buffer[offset:])
        end = body_start + length
        if unparsed[end : end + 1] != b"\x00":
            raise StompProtocolError("frame body not NUL-terminated")
        body = unparsed[body_start:end].decode("utf-8", "surrogateescape")
        return Frame(command, headers, body), offset + len(unparsed[: end + 1])
