"""Unit tests for the STOMP frame codec."""

import pytest

from repro.events.stomp import frames
from repro.events.stomp.frames import Frame, FrameParser, encode_frame
from repro.exceptions import StompProtocolError


def round_trip(frame: Frame) -> Frame:
    frames = FrameParser().feed(encode_frame(frame))
    assert len(frames) == 1
    return frames[0]


class TestEncoding:
    def test_basic_shape(self):
        wire = encode_frame(Frame("SEND", {"destination": "/t"}, "body"))
        assert wire.startswith(b"SEND\n")
        assert wire.endswith(b"\x00")
        assert b"destination:/t" in wire
        assert b"content-length:4" in wire

    def test_unknown_command_rejected(self):
        with pytest.raises(StompProtocolError):
            encode_frame(Frame("BOGUS"))

    def test_header_escaping(self):
        frame = Frame("SEND", {"destination": "/t", "weird": "a:b\nc\\d\re"})
        assert round_trip(frame).headers["weird"] == "a:b\nc\\d\re"

    def test_caller_content_length_is_replaced_by_the_bodys(self):
        # The parser keeps the first content-length; a caller's stale one
        # written ahead of the computed one cut the body short.
        frame = Frame("SEND", {"destination": "/t", "content-length": "3"}, "hello")
        assert encode_frame(frame).count(b"content-length:") == 1
        assert round_trip(frame) == Frame("SEND", {"destination": "/t"}, "hello")


class TestParsing:
    def test_round_trip(self):
        frame = Frame("SEND", {"destination": "/t", "type": "cancer"}, "payload")
        assert round_trip(frame) == frame

    def test_empty_body(self):
        frame = Frame("SUBSCRIBE", {"destination": "/t", "id": "s1"})
        assert round_trip(frame) == frame

    def test_body_with_nul_bytes_via_content_length(self):
        frame = Frame("SEND", {"destination": "/t"}, "a\x00b")
        assert round_trip(frame).body == "a\x00b"

    def test_unicode_body(self):
        frame = Frame("SEND", {"destination": "/t"}, "héllo ✓")
        assert round_trip(frame).body == "héllo ✓"

    def test_multiple_frames_in_one_feed(self):
        wire = encode_frame(Frame("SEND", {"destination": "/a"})) + encode_frame(
            Frame("SEND", {"destination": "/b"})
        )
        frames = FrameParser().feed(wire)
        assert [f.headers["destination"] for f in frames] == ["/a", "/b"]

    def test_partial_feeds(self):
        wire = encode_frame(Frame("SEND", {"destination": "/t"}, "body"))
        parser = FrameParser()
        for index in range(len(wire) - 1):
            assert parser.feed(wire[index : index + 1]) == []
        frames = parser.feed(wire[-1:])
        assert len(frames) == 1
        assert frames[0].body == "body"

    def test_heartbeat_newlines_between_frames(self):
        wire = b"\n\n" + encode_frame(Frame("SEND", {"destination": "/t"})) + b"\n"
        frames = FrameParser().feed(wire)
        assert len(frames) == 1

    def test_frame_without_content_length(self):
        wire = b"SEND\ndestination:/t\n\nhello\x00"
        frames = FrameParser().feed(wire)
        assert frames[0].body == "hello"

    def test_carriage_returns_tolerated(self):
        wire = b"SEND\r\ndestination:/t\r\n\nhi\x00"
        # \r\n line endings: our parser splits on \n\n; craft accordingly
        frames = FrameParser().feed(b"SEND\ndestination:/t\r\n\nhi\x00")
        assert frames[0].headers["destination"] == "/t"

    def test_first_repeated_header_wins(self):
        wire = b"SEND\nfoo:first\nfoo:second\ndestination:/t\n\n\x00"
        frames = FrameParser().feed(wire)
        assert frames[0].headers["foo"] == "first"

    def test_unknown_command_rejected(self):
        with pytest.raises(StompProtocolError):
            FrameParser().feed(b"NONSENSE\n\n\x00")

    def test_malformed_header_rejected(self):
        with pytest.raises(StompProtocolError):
            FrameParser().feed(b"SEND\nnocolon\n\n\x00")

    def test_bad_content_length_rejected(self):
        with pytest.raises(StompProtocolError):
            FrameParser().feed(b"SEND\ncontent-length:abc\n\n\x00")

    def test_missing_nul_after_sized_body(self):
        with pytest.raises(StompProtocolError):
            FrameParser().feed(b"SEND\ncontent-length:2\n\nab!")

    def test_bad_escape_rejected(self):
        with pytest.raises(StompProtocolError):
            FrameParser().feed(b"SEND\nfoo:bad\\x\n\n\x00")

    def test_oversized_frame_rejected(self):
        parser = FrameParser(max_frame_size=64)
        with pytest.raises(StompProtocolError):
            parser.feed(b"SEND\n" + b"x" * 100)

    def test_require_header(self):
        frame = Frame("SEND", {"destination": "/t"})
        assert frame.require("destination") == "/t"
        with pytest.raises(StompProtocolError):
            frame.require("id")


class TestBinarySafety:
    """Seed-failing regressions: the frame path must be binary-safe.

    The seed encoder did ``frame.body.encode("utf-8")``, so a ``bytes``
    body crashed with AttributeError and surrogate-escaped strings (the
    str view of non-UTF-8 bytes) crashed with UnicodeEncodeError; the
    parser symmetrically could not decode non-UTF-8 bodies. The cluster
    engine ships codec documents through frame bodies, so arbitrary
    bytes must round-trip byte-exact under content-length framing.
    """

    def test_bytes_body_round_trips_byte_exact(self):
        blob = b"\x00\xff\xfe\x00binary\x80\x9c tail\x00"
        frame = Frame("SEND", {"destination": "/t"}, blob)
        parsed = round_trip(frame)
        assert parsed.body_bytes == blob

    def test_non_utf8_bytes_every_value(self):
        blob = bytes(range(256))
        parsed = round_trip(Frame("SEND", {"destination": "/t"}, blob))
        assert parsed.body_bytes == blob

    def test_surrogate_escaped_str_body(self):
        # The str one gets from bytes.decode("utf-8", "surrogateescape").
        body = "prefix-\udcff\udc80-suffix"
        frame = Frame("SEND", {"destination": "/t"}, body)
        parsed = round_trip(frame)
        assert parsed.body == body
        assert parsed.body_bytes == body.encode("utf-8", "surrogateescape")

    def test_wire_reencode_is_stable(self):
        blob = b"\x00\x01\x02\xf5\xf6"
        wire = encode_frame(Frame("SEND", {"destination": "/t"}, blob))
        reparsed = FrameParser().feed(wire)[0]
        assert encode_frame(Frame("SEND", {"destination": "/t"}, reparsed.body)) == wire

    def test_utf8_text_still_plain_str(self):
        parsed = round_trip(Frame("SEND", {"destination": "/t"}, "héllo ✓"))
        assert parsed.body == "héllo ✓"


class _CountingPattern:
    def __init__(self, pattern):
        self.pattern = pattern
        self.subs = 0

    def sub(self, *args, **kwargs):
        self.subs += 1
        return self.pattern.sub(*args, **kwargs)


class _CountingBuffer(bytearray):
    def __init__(self):
        super().__init__()
        self.compactions = 0

    def __delitem__(self, key):
        self.compactions += 1
        super().__delitem__(key)


class TestWorkCount:
    """Counts, not timings: a per-character or per-frame pass re-added to
    the codec fails here whatever the host is doing."""

    @pytest.fixture()
    def unescape(self, monkeypatch):
        counter = _CountingPattern(frames._ESCAPE_TOKEN)
        monkeypatch.setattr(frames, "_ESCAPE_TOKEN", counter)
        return counter

    def test_header_block_without_backslash_makes_no_substitution(self, unescape):
        headers = {"destination": "/patient_report", **{f"attr-{i}": f"value {i}" for i in range(19)}}
        assert round_trip(Frame("SEND", headers, "body")).headers == headers
        assert unescape.subs == 0

    def test_only_escaped_fields_are_substituted(self, unescape):
        labels = "label:conf:ecric.org.uk/mdt/7"  # colons travel as \c
        frame = Frame("MESSAGE", {"destination": "/t", "x-safeweb-labels": labels, "site": "breast"})
        assert round_trip(frame).headers["x-safeweb-labels"] == labels
        assert unescape.subs == 1

    def test_one_feed_of_many_frames_compacts_once(self):
        parser = FrameParser()
        parser._buffer = _CountingBuffer()
        wire = b"".join(encode_frame(Frame("SEND", {"destination": f"/t/{i}"}, "x" * i)) for i in range(50))
        assert len(parser.feed(wire + wire[:10])) == 50
        assert parser._buffer.compactions == 1
        assert parser.feed(wire[10:20]) == []  # no complete frame: nothing to drop
        assert parser._buffer.compactions == 1
        assert bytes(parser._buffer) == wire[:20]
