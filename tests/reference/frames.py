"""The seed STOMP frame codec: per-character unescaping, one parse per call.

:mod:`repro.events.stomp.frames` is held to this codec by
``tests/property/test_frame_codec.py``: the same frames out of the same
bytes, however they are split across ``feed`` calls, and the same error
type and message on every malformed input. It shares ``Frame``, the
command sets and ``StompProtocolError`` with the package, which are data,
not behaviour.

One known seed defect is kept here on purpose: :func:`encode_frame`
writes a caller's ``content-length`` header ahead of its own, and the
parser keeps the first. The package writes only the computed length;
``tests/unit/events/test_stomp_frames.py`` pins that.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.events.stomp.frames import CLIENT_COMMANDS, SERVER_COMMANDS, Frame
from repro.exceptions import StompProtocolError

_ESCAPES = [("\\", "\\\\"), ("\r", "\\r"), ("\n", "\\n"), (":", "\\c")]
_UNESCAPES = {"\\\\": "\\", "\\r": "\r", "\\n": "\n", "\\c": ":"}


def _escape(text: str) -> str:
    for raw, escaped in _ESCAPES:
        text = text.replace(raw, escaped)
    return text


def _unescape(text: str) -> str:
    result: List[str] = []
    index = 0
    while index < len(text):
        if text[index] == "\\":
            token = text[index : index + 2]
            if token not in _UNESCAPES:
                raise StompProtocolError(f"invalid escape sequence {token!r}")
            result.append(_UNESCAPES[token])
            index += 2
        else:
            result.append(text[index])
            index += 1
    return "".join(result)


def encode_frame(frame: Frame) -> bytes:
    """Serialise a frame; always emits ``content-length``."""
    if frame.command not in CLIENT_COMMANDS | SERVER_COMMANDS:
        raise StompProtocolError(f"unknown STOMP command {frame.command!r}")
    body = frame.body_bytes
    lines = [frame.command]
    for name, value in frame.headers.items():
        lines.append(f"{_escape(str(name))}:{_escape(str(value))}")
    lines.append(f"content-length:{len(body)}")
    head = "\n".join(lines).encode("utf-8", "surrogateescape")
    return head + b"\n\n" + body + b"\x00"


class FrameParser:
    """Incremental parser: feed bytes, collect complete frames."""

    def __init__(self, max_frame_size: int = 1 << 22):
        self._buffer = bytearray()
        self._max = max_frame_size

    def feed(self, data: bytes) -> List[Frame]:
        self._buffer.extend(data)
        if len(self._buffer) > self._max:
            raise StompProtocolError("frame exceeds maximum size")
        frames: List[Frame] = []
        while True:
            frame, consumed = self._try_parse()
            if frame is None:
                return frames
            frames.append(frame)
            del self._buffer[:consumed]

    def _try_parse(self) -> Tuple[Optional[Frame], int]:
        # Skip inter-frame EOLs (heart-beats).
        start = 0
        while start < len(self._buffer) and self._buffer[start : start + 1] in (b"\n", b"\r"):
            start += 1
        head_end = self._buffer.find(b"\n\n", start)
        if head_end == -1:
            return None, 0
        header_block = self._buffer[start:head_end].decode("utf-8", "surrogateescape")
        lines = header_block.split("\n")
        command = lines[0].strip("\r")
        if command not in CLIENT_COMMANDS | SERVER_COMMANDS:
            raise StompProtocolError(f"unknown STOMP command {command!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            line = line.rstrip("\r")
            if not line:
                continue
            if ":" not in line:
                raise StompProtocolError(f"malformed header line {line!r}")
            name, _colon, value = line.partition(":")
            name = _unescape(name)
            # STOMP: the FIRST occurrence of a repeated header wins.
            if name not in headers:
                headers[name] = _unescape(value)

        body_start = head_end + 2
        length_header = headers.get("content-length")
        if length_header is not None:
            try:
                length = int(length_header)
            except ValueError:
                raise StompProtocolError(f"bad content-length {length_header!r}") from None
            if len(self._buffer) < body_start + length + 1:
                return None, 0
            body = bytes(self._buffer[body_start : body_start + length])
            if self._buffer[body_start + length : body_start + length + 1] != b"\x00":
                raise StompProtocolError("frame body not NUL-terminated")
            consumed = body_start + length + 1
        else:
            nul = self._buffer.find(b"\x00", body_start)
            if nul == -1:
                return None, 0
            body = bytes(self._buffer[body_start:nul])
            consumed = nul + 1
        headers.pop("content-length", None)
        return Frame(command, headers, body.decode("utf-8", "surrogateescape")), consumed
