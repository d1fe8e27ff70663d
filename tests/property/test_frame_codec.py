"""The STOMP frame codec against its executable spec.

:mod:`repro.events.stomp.frames` escapes, unescapes and parses in single
C-level passes; ``tests/reference/frames.py`` is the seed codec that
walked every header character in Python. On any byte stream — valid
frames, invalid or trailing escapes, repeated headers, NUL and non-UTF-8
bodies, bad, short and negative ``content-length`` values, heart-beat
EOLs, split at arbitrary offsets across ``feed`` calls — both parsers
must return the same frames from every ``feed`` and raise the same error
type and message, and keep doing so on the bytes fed after an error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.events.stomp import frames
from repro.events.stomp.frames import CLIENT_COMMANDS, SERVER_COMMANDS, Frame
from repro.exceptions import StompProtocolError

from tests.reference import frames as reference

COMMANDS = sorted(CLIENT_COMMANDS | SERVER_COMMANDS)

#: Header text dense in what escaping is about: the four escaped
#: characters, escape letters (valid and not), separators, non-ASCII.
_TRICKY = "\\:\r\ncnrtx-_ aé✓\x00"
tricky_text = st.text(alphabet=st.sampled_from(_TRICKY), max_size=12)
header_text = st.one_of(tricky_text, st.text(max_size=12))


def outcome(call, *args):
    """``("ok", result)`` or ``("error", type, message)`` of one call."""
    try:
        return ("ok", call(*args))
    except StompProtocolError as error:
        return ("error", type(error), str(error))


def frame_tuples(parsed):
    return [(frame.command, list(frame.headers.items()), frame.body) for frame in parsed]


@st.composite
def raw_frames(draw) -> bytes:
    """One frame as a peer might send it, often not well formed."""
    command = draw(st.sampled_from(COMMANDS + ["BOGUS", ""]))
    if draw(st.booleans()):
        command += "\r"
    lines = [command]
    for _ in range(draw(st.integers(0, 5))):
        shape = draw(st.sampled_from(["escaped"] * 4 + ["raw", "raw", "repeat", "repeat", "no-colon", "blank"]))
        if shape == "escaped":  # what an encoder emits: always valid escapes
            lines.append(f"{reference._escape(draw(header_text))}:{reference._escape(draw(header_text))}")
        elif shape == "raw":  # any escapes at all, including invalid and trailing ones
            lines.append(f"{draw(tricky_text).replace(chr(10), '')}:{draw(tricky_text).replace(chr(10), '')}")
        elif shape == "no-colon":
            lines.append(draw(st.text(alphabet="ab\\\r", min_size=1, max_size=4)))
        elif shape == "blank":
            lines.append("\r")
        elif len(lines) > 1:  # repeat an earlier header, maybe with a new value
            name = lines[draw(st.integers(1, len(lines) - 1))].partition(":")[0]
            lines.append(f"{name}:{draw(tricky_text).replace(chr(10), '')}")
    body = draw(st.binary(max_size=24) | st.sampled_from([b"", b"a\x00b", b"\xff\xfe\x80", b"\x00"]))
    length = draw(st.sampled_from(["exact"] * 5 + ["absent", "any", "odd"]))
    if length != "absent":
        value = {
            "exact": str(len(body)),
            "any": str(draw(st.integers(-40, 40))),
            "odd": draw(st.sampled_from(["abc", " 3", "+2", "", "0x1"])),
        }[length]
        lines.insert(draw(st.integers(1, len(lines))), f"content-length:{value}")
    head = "\n".join(lines).encode("utf-8", "surrogateescape")
    terminator = draw(st.sampled_from([b"\x00", b"\x00", b"\x00", b"", b"!"]))
    return head + b"\n\n" + body + terminator


@st.composite
def wires(draw) -> bytes:
    """Frames with heart-beat EOLs before, between and after them."""
    eols = st.sampled_from([b"", b"", b"\n", b"\r\n", b"\n\n\r"])
    parts = [draw(eols)]
    for frame in draw(st.lists(raw_frames(), min_size=1, max_size=4)):
        parts += [frame, draw(eols)]
    return b"".join(parts)


@st.composite
def split(draw, wire: bytes):
    """*wire* cut at random byte offsets into consecutive ``feed`` calls."""
    cuts = sorted(draw(st.sets(st.integers(0, len(wire)), max_size=6)))
    bounds = [0, *cuts, len(wire)]
    return [wire[start:end] for start, end in zip(bounds, bounds[1:])]


def reaching_back(reach: int) -> bytes:
    """A header block whose ``content-length`` ends the body *reach* bytes before the frame."""
    for digits in range(1, 4):
        body_start = len("SEND\ncontent-length:-\n\n") + digits
        if len(str(body_start + reach)) == digits:
            return f"SEND\ncontent-length:-{body_start + reach}\n\n".encode()
    raise ValueError(reach)


def feed_both(chunks, max_frame_size: int):
    ours, spec = frames.FrameParser(max_frame_size), reference.FrameParser(max_frame_size)
    for chunk in chunks:
        got = outcome(lambda data: frame_tuples(ours.feed(data)), chunk)
        expected = outcome(lambda data: frame_tuples(spec.feed(data)), chunk)
        assert got == expected, chunk
    assert ours._buffer == spec._buffer


class TestParserMatchesSpec:
    @settings(max_examples=400, deadline=None)
    @given(st.data(), wires(), st.sampled_from([1 << 22, 1 << 22, 96]))
    def test_every_feed_returns_and_raises_alike(self, data, wire, max_frame_size):
        feed_both(data.draw(split(wire)), max_frame_size)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.lists(st.tuples(st.dictionaries(header_text, header_text, max_size=5), st.binary(max_size=40)), min_size=1, max_size=4))
    def test_encoded_streams_parse_alike(self, data, specs):
        wire = b"\n".join(reference.encode_frame(Frame("SEND", headers, body)) for headers, body in specs)
        feed_both(data.draw(split(wire)), 1 << 22)

    @pytest.mark.parametrize("reach, tail", [(1, b"\x00"), (2, b"\x00x"), (3, b"\x00ab"), (30, b"")])
    @pytest.mark.parametrize("before", [b"", b"SEND\ndestination:/a\n\nhi\x00"])
    def test_negative_length_reaching_before_the_frame(self, reach, tail, before):
        # The spec's slices start at the frame, so these count from the
        # buffer's end: (2, b"\x00x") parses, leaving b"x" buffered.
        wire = before + reaching_back(reach) + tail
        feed_both([wire], 1 << 22)
        feed_both([wire[index : index + 1] for index in range(len(wire))], 1 << 22)

    def test_one_byte_at_a_time(self):
        wire = reference.encode_frame(Frame("MESSAGE", {"a:b": "c\\d\r\n", "é": "✓"}, b"x\x00\xff")) * 2
        feed_both([wire[index : index + 1] for index in range(len(wire))], 1 << 22)


class TestEscapingMatchesSpec:
    @settings(max_examples=300, deadline=None)
    @given(header_text)
    def test_escape(self, text):
        assert frames._escape(text) == reference._escape(text)

    @settings(max_examples=300, deadline=None)
    @given(header_text)
    def test_unescape_result_or_error(self, text):
        assert outcome(frames._unescape, text) == outcome(reference._unescape, text)

    def test_trailing_and_unknown_escapes(self):
        for text in ("abc\\", "\\", "a\\tb", "\\\\\\", "\\\n", "\\é"):
            assert outcome(frames._unescape, text) == outcome(reference._unescape, text)
            assert outcome(frames._unescape, text)[0] == "error"


class TestEncoderMatchesSpec:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(COMMANDS),
        st.dictionaries(header_text.filter(lambda name: name != "content-length"), header_text, max_size=6),
        st.one_of(st.text(max_size=30), st.binary(max_size=30)),
    )
    def test_same_bytes_and_round_trip(self, command, headers, body):
        frame = Frame(command, headers, body)
        wire = frames.encode_frame(frame)
        assert wire == reference.encode_frame(frame)
        assert frames.FrameParser().feed(wire) == [frame]

    def test_unknown_command_raises_alike(self):
        frame = Frame("BOGUS", {"destination": "/t"})
        assert outcome(frames.encode_frame, frame) == outcome(reference.encode_frame, frame)
