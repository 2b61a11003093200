"""Fuzzing the detection-stream boundary through `taglok replay`.

A valid stream written by `taglok dump-detections` is mutated: a token is
swapped for a hostile one (NaN, infinities, -1, values that overflow a
float or its square, huge integers, garbage), or a line is deleted,
duplicated or truncated. Whatever the mutations, `replay` must exit 0 or 2
without a traceback; exit 2 must name the stream file and the line; on exit
0 every number it writes must be finite. The replayed rows go through the
frame chain and `step`, so hostile rows that parse reach the estimator too.
"""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from taglok import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CONFIG = "[trajectory]\nkind = hover\nz = 1.4\nduration = 0.2\n\n[run]\nseed = 2\n"
HOSTILE = ["nan", "-nan", "inf", "-inf", "-1", "0", "1e400", "-1e400", "1e200", "-1e200",
           "1e154", "1.7e308", "5e-324", "1e-200", str(2**63), str(-2**63 - 1), str(10**30),
           "9" * 5000, "x", "0x1p3", "1.5.2", "--1", "+", "_1"]


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("fuzz")
    config, stream = root / "run.cfg", root / "stream.txt"
    config.write_text(CONFIG, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["dump-detections", "--config", str(config), "--out", str(stream)]) == 0
    lines = stream.read_text(encoding="utf-8").splitlines()
    assert len(lines) > 20
    return {"config": config, "lines": lines, "stream": root / "mutated.txt",
            "out": root / "replay.csv"}


def _mutated(lines: list[str], mutations) -> list[str]:
    lines = list(lines)
    for kind, where, token_at, value in mutations:
        if not lines:
            break
        i = where % len(lines)
        if kind == "swap":
            tokens = lines[i].split()
            if tokens:
                tokens[token_at % len(tokens)] = value
                lines[i] = " ".join(tokens)
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:  # truncate
            lines[i] = lines[i][:token_at % (len(lines[i]) + 1)]
    return lines


MUTATION = st.tuples(st.sampled_from(["swap", "swap", "delete", "duplicate", "truncate"]),
                     st.integers(0, 10**6), st.integers(0, 200), st.sampled_from(HOSTILE))


def _assert_replay_is_clean(files, lines):
    stream, out = files["stream"], files["out"]
    stream.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["replay", "--config", str(files["config"]), "--detections",
                         str(stream), "--out", str(out)])
    message = err.getvalue()
    assert code in (0, 2), message
    assert "Traceback" not in message
    if code == 2:
        assert re.match(rf"taglok: {re.escape(str(stream))}: line \d+: ", message), message
        assert not out.exists()
        return
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == len({line.split()[0] for line in lines if line.strip()})
    for row in rows:
        for field in row.split(","):
            if field:
                assert math.isfinite(float(field)), row


def test_valid_stream_replays(files):
    _assert_replay_is_clean(files, files["lines"])


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_stream_exits_cleanly(files, mutations):
    _assert_replay_is_clean(files, _mutated(files["lines"], mutations))


@pytest.mark.parametrize("value", HOSTILE,
                         ids=[repr(v) if len(v) < 30 else f"{len(v)}-digits" for v in HOSTILE])
@pytest.mark.parametrize("field", range(11))
def test_every_field_takes_every_hostile_token(files, field, value):
    _assert_replay_is_clean(files, _mutated(files["lines"], [("swap", 5, field, value)]))
