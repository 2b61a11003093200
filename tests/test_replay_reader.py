"""`taglok replay`'s `--detections` reader, and the memory it and
`dump-detections` hold.

`cli` reads a stream file's bytes once, checks that they decode as UTF-8 a
piece at a time, then feeds `parse_detection_stream` the lines of one decoded
piece at a time. The lines must be exactly `read_text(encoding="utf-8")
.splitlines()` of the file, whatever line breaks it mixes and wherever a piece
or a read cuts them; a file that is not UTF-8 must fail as `data.decode("utf-8")`
fails, at the same absolute position, before any line is parsed. Under
perfbench's tracer, a replay makes one `camsim.parse_detection_line` call per
non-blank line, and blank lines change no output byte. Only the
packed rows of the stream stay resident while it is parsed, and
`dump-detections` writes each frame's lines as it goes, so the peak memory of
either command grows by less per stream line than when the text, its lines or
the dump's lines were held whole.
"""

import contextlib
import importlib.util
import io
import os
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from taglok import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# every line break `str.splitlines` knows, and text that is none
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
          "\u2029"]
TEXT = ["0 0.5 7", "a", " ", "\t", "\xe9", "\u20ac", "\U0001d11e", "\x00"]
# TextIOWrapper reads its buffer 8192 bytes at a time, and cli decodes
# cli._PIECE characters at a time: a "\r\n" across either cut is one break
CUTS = [8192, cli._PIECE]
REPLAY_CONFIG = "[trajectory]\nkind = hover\nz = 1.4\nduration = 0.3\n\n[run]\nseed = 2\n"


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@st.composite
def stream_files(draw) -> bytes:
    """Text mixing every line break with ASCII and non-ASCII characters,
    with or without a final break, or empty; some start with a line that
    puts the "\r\n" after it across a cut of the decoding."""
    parts = draw(st.lists(st.sampled_from(BREAKS + TEXT), max_size=40))
    if draw(st.booleans()):
        pad = draw(st.sampled_from(CUTS)) + draw(st.integers(-3, 1))
        parts = ["x" * pad, draw(st.sampled_from(["\r\n", "\r", "\n\r", "\xe9\r\n"])), *parts]
    return "".join(parts).encode("utf-8")


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=stream_files(), piece=st.sampled_from([4, 5, 7, cli._PIECE]))
def test_the_reader_gives_the_lines_of_splitlines(scratch, data, piece):
    path = scratch / "lines.txt"
    path.write_bytes(data)
    with mock.patch.object(cli, "_PIECE", piece):
        lines = cli._read_lines("--detections", str(path), list)
    assert lines == path.read_text(encoding="utf-8").splitlines()


def decoding(make):
    try:
        return "ok", make()
    except UnicodeDecodeError as exc:
        return "error", str(exc), exc.start, exc.end


# valid sequences of one to four bytes, and bytes that begin, continue or cut one
UTF8_PARTS = ["a", "\xe9", "\u20ac", "\U0001d11e"]
BAD_BYTES = [b"\x80", b"\xbf", b"\xc0", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf0\x9d",
             b"\xf4\x90\x80\x80", b"\xf8", b"\xff"]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(parts=st.lists(st.one_of(st.sampled_from(UTF8_PARTS).map(str.encode),
                                           st.sampled_from(BAD_BYTES)), max_size=30),
                  piece=st.integers(4, 9))
def test_the_utf8_check_fails_as_decode_does(parts, piece):
    data = b"".join(parts)
    with mock.patch.object(cli, "_PIECE", piece):
        got = decoding(lambda: cli._utf8_checked(data).decode("utf-8"))
    assert got == decoding(lambda: data.decode("utf-8"))


def replay(config, stream, out, log=None) -> tuple[int, str]:
    err = io.StringIO()
    argv = ["replay", "--config", str(config), "--detections", str(stream), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv + (["--log", str(log)] if log else []))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def dumped(scratch):
    config, stream = scratch / "run.cfg", scratch / "stream.txt"
    config.write_text(REPLAY_CONFIG, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["dump-detections", "--config", str(config), "--out", str(stream)]) == 0
    return config, stream


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_stream_replays_the_same_whatever_its_line_breaks(dumped, tmp_path, newline):
    config, stream = dumped
    other = tmp_path / "stream.txt"
    other.write_bytes(stream.read_bytes().replace(b"\n", newline.encode()))
    outputs = []
    for path, name in ((stream, "lf"), (other, "other")):
        out, log = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
        assert replay(config, path, out, log) == (0, "")
        outputs.append((out.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") > 5


def test_a_decode_error_wins_over_a_malformed_first_line(dumped, tmp_path):
    config, stream = dumped
    data = b"not a detection line\n" + stream.read_bytes() * 2 + b"\xff"
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as decoding_error:
        data.decode("utf-8")
    assert replay(config, bad, tmp_path / "out.csv") == (
        2, f"taglok: --detections: {decoding_error.value}\n")
    assert not (tmp_path / "out.csv").exists()


# in pieces of 4 characters, rescanning the carried part of the line for a
# "\n" at each piece took about 6 s on a 2-vCPU host
@pytest.mark.parametrize("piece", [cli._PIECE, 4])
def test_a_one_megabyte_line_fails_in_linear_time(dumped, tmp_path, piece):
    config, _ = dumped
    long_line = tmp_path / "long.txt"
    long_line.write_bytes(b"0 " * (1 << 19))  # 2**20 bytes, no newline
    start = time.perf_counter()
    with mock.patch.object(cli, "_PIECE", piece):
        code, err = replay(config, long_line, tmp_path / "out.csv")
    assert time.perf_counter() - start < 5.0
    assert (code, err) == (2, f"taglok: {long_line}: line 1: expected 11 fields in detection "
                              f"line, got {1 << 19}\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_a_fifo_replays_as_its_file_does(dumped, tmp_path):
    config, stream = dumped
    fifo = tmp_path / "stream.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(stream.read_bytes(),), daemon=True)
    writer.start()
    assert replay(config, fifo, tmp_path / "fifo.csv") == (0, "")
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert replay(config, stream, tmp_path / "file.csv") == (0, "")
    assert (tmp_path / "fifo.csv").read_bytes() == (tmp_path / "file.csv").read_bytes()


@pytest.fixture(scope="module")
def spans():
    """perfbench/spans.py, loaded as tests/test_bench_contract.py loads it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_replay_parses_each_non_blank_line_once(spans, dumped, tmp_path):
    # the reader must reach the parser through `camsim` on each call, where
    # the tracer's wrapper is, and call it on no blank line
    config, stream = dumped
    lines = stream.read_text(encoding="utf-8").splitlines()
    blank = tmp_path / "blank.txt"
    blank.write_text("".join(line + "\n" + ["", " ", "\t", " \t "][k % 4] + "\n"
                             for k, line in enumerate(lines)), encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = replay(config, blank, tmp_path / "blank.csv")
    finally:
        tracer.uninstall()
    assert traced == (0, "")
    assert tracer.absent == [] and tracer.leftover_wrappers() == []
    parsed = [span for span in tracer.spans if span[0] == "camsim.parse_detection_line"]
    assert len(parsed) == len(lines) > 5
    assert replay(config, stream, tmp_path / "plain.csv") == (0, "")
    assert (tmp_path / "blank.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


# --- memory -----------------------------------------------------------------

T3_CONFIG = "[trajectory]\nkind = t3\n\n[run]\nseed = 1\n"
FRAMES = 50  # and 4x that: 1,643 and 12,857 stream lines


def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def t3_dumps(scratch):
    """(config, {frames: (stream path, stream lines)}) for t3 dumps of
    FRAMES and 4 FRAMES frames, after one untraced dump and replay have
    filled every lazy import and cache."""
    config = scratch / "t3.cfg"
    config.write_text(T3_CONFIG, encoding="utf-8")
    dumps = {}
    for frames in (FRAMES, 4 * FRAMES):
        stream = scratch / f"t3-{frames}.txt"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["dump-detections", "--config", str(config), "--out", str(stream),
                             "--frames", str(frames)]) == 0
        dumps[frames] = stream, len(stream.read_text(encoding="utf-8").splitlines())
    assert replay(config, dumps[FRAMES][0], scratch / "warm.csv")[0] == 0
    return config, dumps


def peak_per_added_line(t3_dumps, argv_of) -> float:
    config, dumps = t3_dumps
    (short, short_lines), (long, long_lines) = dumps[FRAMES], dumps[4 * FRAMES]
    peaks = [traced_peak(argv_of(config, frames, stream))
             for frames, stream in ((FRAMES, short), (4 * FRAMES, long))]
    return (peaks[1] - peaks[0]) / (long_lines - short_lines)


def test_replay_peak_memory_grows_by_the_packed_rows_per_line(t3_dumps, scratch):
    # holding the file's text and its splitlines() list as well cost ~500 B per line
    per_line = peak_per_added_line(t3_dumps, lambda config, frames, stream: [
        "replay", "--config", str(config), "--detections", str(stream),
        "--out", str(scratch / "replay.csv"), "--variant", "cl2"])
    assert per_line < 380


def test_dump_peak_memory_does_not_grow_with_the_stream(t3_dumps, scratch):
    # keeping every line of the run, then each with its "\n", cost ~460 B per line
    per_line = peak_per_added_line(t3_dumps, lambda config, frames, stream: [
        "dump-detections", "--config", str(config), "--out", str(scratch / "dump.txt"),
        "--frames", str(frames)])
    assert per_line < 50
