"""The column-buffer stream reader against the line-by-line grouping reader.

`read_detection_stream` packs the lines of a stream into one whole-stream
buffer and gives every frame slices of its columns; `loop_read_detection_stream`
keeps one tuple per line, groups them by frame in a dict and stacks each
frame's rows. Both must give the same frames bit for bit: the same frame
indices and times, and the same bytes, shapes and dtypes in every column.
On a bad stream both must raise the same text, naming the first bad line.

`parse_detection_line` returns the quaternion as written, bit for bit, and
leaves its normalization to the frame chain; it must refuse exactly the
quaternions `UnitQuaternion` refuses, with the same error.
"""

import math
import struct

import numpy as np
import pytest

from taglok.camsim import parse_detection_line, read_detection_stream
from taglok.geometry import UnitQuaternion

from oracles import loop_read_detection_stream

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# frame indices that collide often, and the ends of the int64 range
FRAMES = st.one_of(st.integers(-3, 8), st.sampled_from([-2**63, 2**63 - 1]))
# ids that repeat within a frame, and any int64
IDS = st.one_of(st.integers(0, 3), st.integers(-2**63, 2**63 - 1))
# unit, slightly off-unit and far off-unit quaternions
SCALES = st.sampled_from([1.0, 1.0 + 1e-13, 1.0 - 3e-13, 1.0 + 5e-12, 0.5, 3.0, 1e-6, 1e100])
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t"])
BLANK = st.sampled_from(["", " ", "\t", "  \t "])
BAD_LINES = ["0 0.0 5 1.0 2.0",
             "0 0.0 5 0.0 0.0 -1.0 1.0 0.0 0.0 0.0 50.0",
             "0 0.0 5 0.0 0.0 nan 1.0 0.0 0.0 0.0 50.0",
             "0 0.0 5 0.0 0.0 1.0 0.0 0.0 0.0 0.0 50.0",
             "0 0.0 5 0.0 0.0 1.0 1e200 0.0 0.0 0.0 50.0",
             f"0 0.0 {2**63} 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0",
             f"{-2**63 - 1} 0.0 5 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0",
             "1.5 0.0 5 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0",
             "x"]


def bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


@st.composite
def quaternions(draw) -> tuple:
    q = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4))
    hypothesis.assume(math.hypot(*q) > 1e-3)
    scale = draw(SCALES)
    return tuple(c * scale for c in q)


@st.composite
def stream_lines(draw) -> list[str]:
    """A stream of valid lines in any frame order, with blank lines between."""
    lines = []
    for _ in range(draw(st.integers(0, 24))):
        if draw(st.integers(0, 3)) == 0:  # a blank line before one line in four
            lines.append(draw(BLANK))
        frame = draw(FRAMES)
        # "+7" and "07" are frame 7 too
        frame_token = (draw(st.sampled_from(["", "+", "0"])) if frame >= 0 else "") + str(frame)
        values = [draw(FINITE), draw(IDS), draw(FINITE), draw(FINITE),
                  draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
                  *draw(quaternions()), draw(FINITE)]
        separator = draw(SEPARATORS)
        line = separator.join([frame_token, *map(repr, values)])
        lines.append(draw(st.sampled_from(["", " "])) + line + draw(st.sampled_from(["", "\t"])))
    return lines


def write(tmp_path_factory, lines: list[str]):
    path = tmp_path_factory.mktemp("stream") / "stream.txt"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def assert_same_frames(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.index) is type(w.index) is int and g.index == w.index
        assert bits([g.t]) == bits([w.t])
        assert g.truth is w.truth is None
        for name in ("ids", "positions", "quats", "apparent"):
            a, b = getattr(g.detections, name), getattr(w.detections, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(lines=stream_lines())
def test_reader_equals_grouping_reader(tmp_path_factory, lines):
    path = write(tmp_path_factory, lines)
    assert_same_frames(read_detection_stream(path), loop_read_detection_stream(path))


@pytest.mark.parametrize("lines", [
    [],
    ["", "  ", "\t"],
    ["7 0.35 4 0.1 -0.2 1.5 0.5 0.5 0.5 0.5 80.0"],
    ["3 0.15 7 0.1 -0.2 1.5 1.0 0.0 0.0 0.0 60.0",
     "1 0.05 2 0.1 -0.2 1.5 2.0 0.0 0.0 0.0 61.0",
     "3 0.2 7 0.1 -0.2 1.5 1.0 0.0 0.0 0.0 62.0",
     "+1 0.1 7 0.1 -0.2 1.5 0.0 0.0 0.0 1.0 63.0"],
], ids=["empty", "blank-only", "one-line", "interleaved-repeated"])
def test_reader_equals_grouping_reader_on_edge_streams(tmp_path_factory, lines):
    path = write(tmp_path_factory, lines)
    frames = read_detection_stream(path)
    assert_same_frames(frames, loop_read_detection_stream(path))
    assert len(frames) == len({line.split()[0].lstrip("+") for line in lines if line.strip()})


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(lines=stream_lines(), bad=st.lists(st.sampled_from(BAD_LINES), min_size=2,
                                                    max_size=2),
                  where=st.lists(st.integers(0, 20), min_size=2, max_size=2))
def test_first_bad_line_wins_in_both_readers(tmp_path_factory, lines, bad, where):
    lines = list(lines)
    for line, at in zip(bad, sorted(where)):
        lines.insert(min(at, len(lines)), line)
    path = write(tmp_path_factory, lines)
    with pytest.raises(ValueError) as got:
        read_detection_stream(path)
    with pytest.raises(ValueError) as want:
        loop_read_detection_stream(path)
    assert str(got.value) == str(want.value)
    first = next(n for n, line in enumerate(lines, 1) if line in BAD_LINES)
    assert str(got.value).startswith(f"{path}: line {first}: ")


def outcome(make):
    try:
        return "ok", bits(make())
    except ValueError as exc:
        return "error", str(exc)


def assert_parsed_like_unit_quaternion(q):
    line = "0 0.0 5 0.0 0.0 1.0 " + " ".join(map(repr, q)) + " 50.0"
    parsed = outcome(lambda: parse_detection_line(line)[4])
    # q as written, unless UnitQuaternion refuses it
    unit = outcome(lambda: (UnitQuaternion(*q), q)[1])
    assert parsed == unit


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(q=st.tuples(*[st.floats(-1.0, 1.0)] * 4), k=st.integers(-20, 20))
def test_near_unit_quaternion_parsed_like_unit_quaternion(q, k):
    hypothesis.assume(math.hypot(*q) > 1e-3)
    unit = UnitQuaternion(*q)
    scale = 1.0 + k * 1e-13
    assert_parsed_like_unit_quaternion(tuple(c * scale for c in (unit.w, unit.x, unit.y, unit.z)))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(q=st.one_of(
    st.tuples(*[FINITE] * 4),
    st.tuples(*[st.floats(-1e3, 1e3)] * 4),
    st.tuples(st.one_of(st.floats(1e154, 1.7e308), st.floats(-1.7e308, -1e154)),
              *[st.floats(-1.0, 1.0)] * 3),
    st.tuples(*[st.floats(-1e-6, 1e-6)] * 4),
    st.tuples(*[st.floats(-1e-12, 1e-12)] * 4)))
def test_off_unit_quaternion_parsed_like_unit_quaternion(q):
    assert_parsed_like_unit_quaternion(q)

