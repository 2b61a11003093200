"""Fuzzing the map-file boundary through `taglok run --map`.

A valid map written by `serialize_map` is mutated as `test_stream_fuzz.py`
mutates a detection stream: a token is swapped for a hostile one (NaN,
infinities, -1, values that overflow a float or its square, a far but
finite coordinate, coordinates one ulp beyond the reader's bound on a
tag's distance from the map's extent, ids at and above the int64 range, the
smallest subnormal, garbage), or a line is deleted, duplicated or
truncated. Whatever the mutations, `run` must exit 0, 1 or 2 without a
traceback; exit 2 must name the map file and the line; on exit 0 every
number it writes must be finite. A tag that parses reaches the simulator's
projection and the frame chain, so hostile values that pass the reader are
exercised there too.
"""

import contextlib
import io
import math
import re

import pytest

from taglok import cli
from taglok.tagmap import MAX_EXTENT, build_pattern_map, serialize_map

from test_stream_fuzz import _mutated

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CONFIG = "[trajectory]\nkind = hover\nz = 1.4\nduration = 0.2\n\n[run]\nseed = 2\n"
HOSTILE = ["nan", "-nan", "inf", "-inf", "-1", "0", "1e400", "-1e400", "1e308", "-1e308",
           "1.7976931348623157e308", "-1.7976931348623157e308", "1e200", "-1e200", "5e-324",
           str(2**63), str(2**64), str(-2**63 - 1), "9" * 5000,
           "x", "S", "XL", "0x1p3", "1.5.2", "--1", "+", "_1", "#",
           # one ulp beyond the bound on a tag's distance from the map's extent
           "-2.0000000000000004", "2.0000000000000004", "4.000000000000001"]


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("map-fuzz")
    config = root / "run.cfg"
    config.write_text(CONFIG, encoding="utf-8")
    lines = serialize_map(build_pattern_map((1.5, 2.0))).splitlines()
    assert len(lines) > 20
    return {"config": config, "lines": lines, "map": root / "mutated.txt",
            "out": root / "run.csv"}


MUTATION = st.tuples(st.sampled_from(["swap", "swap", "delete", "duplicate", "truncate"]),
                     st.integers(0, 10**6), st.integers(0, 200), st.sampled_from(HOSTILE))


def _run(files, lines) -> tuple[int, str]:
    map_path, out = files["map"], files["out"]
    map_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", str(files["config"]), "--map", str(map_path),
                         "--out", str(out)])
    return code, err.getvalue()


def _assert_run_is_clean(files, lines):
    code, message = _run(files, lines)
    assert code in (0, 1, 2), message
    assert "Traceback" not in message
    if code == 2:
        assert re.match(rf"taglok: {re.escape(str(files['map']))}: line \d+: ", message), message
    if code != 0:
        assert not files["out"].exists()
        return
    rows = files["out"].read_text(encoding="utf-8").splitlines()[1:]
    assert rows
    for row in rows:
        for field in row.split(","):
            if field:
                assert math.isfinite(float(field)), row


def test_valid_map_runs(files):
    _assert_run_is_clean(files, files["lines"])


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_map_exits_cleanly(files, mutations):
    _assert_run_is_clean(files, _mutated(files["lines"], mutations))


@pytest.mark.parametrize("value", HOSTILE,
                         ids=[repr(v) if len(v) < 30 else f"{len(v)}-digits" for v in HOSTILE])
@pytest.mark.parametrize("field", range(9))
def test_every_tag_field_takes_every_hostile_token(files, field, value):
    _assert_run_is_clean(files, _mutated(files["lines"], [("swap", 3, field, value)]))


@pytest.mark.parametrize("field", range(4))
def test_every_header_field_takes_every_hostile_token(files, field):
    for value in HOSTILE:
        _assert_run_is_clean(files, _mutated(files["lines"], [("swap", 0, field, value)]))


def test_map_id_at_2_to_the_63_names_the_line(files):
    code, message = _run(files, _mutated(files["lines"], [("swap", 3, 0, str(2**63))]))
    assert code == 2
    assert message.startswith(f"taglok: {files['map']}: line 4: bad id '{2**63}'"), message


@pytest.mark.parametrize("field", [2, 3])
def test_two_tags_of_a_class_at_opposite_float_limits_run_cleanly(files, field):
    # lines 3 and 4 hold tags of one class at opposite float limits, far
    # outside the map's extent: the reader rejects the first, naming its line
    assert [line.split()[1] for line in files["lines"][2:4]] == ["L", "L"]
    mutations = [("swap", 2, field, "1.7e308"), ("swap", 3, field, "-1.7e308")]
    code, message = _run(files, _mutated(files["lines"], mutations))
    assert code == 2
    assert message.startswith(f"taglok: {files['map']}: line 3: tag at ("), message
    assert "outside the 1.5 x 2.0 m extent" in message


# the fuzz map is 1.5 x 2.0 m, so a tag centre may lie up to 2.0 m outside it:
# x in [-2.0, 3.5], y in [-2.0, 4.0], z in [-2.0, 2.0]
@pytest.mark.parametrize("field, inside, outside", [
    (2, "-2.0", "-2.0000000000000004"), (2, "3.5", "3.5000000000000004"),
    (3, "-2.0", "-2.0000000000000004"), (3, "4.0", "4.000000000000001"),
    (4, "-2.0", "-2.0000000000000004"), (4, "2.0", "2.0000000000000004"),
], ids=["x-low", "x-high", "y-low", "y-high", "z-low", "z-high"])
def test_tag_at_the_extent_bound_runs_and_one_ulp_beyond_names_the_line(files, field, inside,
                                                                      outside):
    assert _run(files, _mutated(files["lines"], [("swap", 3, field, inside)]))[0] == 0
    code, message = _run(files, _mutated(files["lines"], [("swap", 3, field, outside)]))
    assert code == 2
    assert message.startswith(f"taglok: {files['map']}: line 4: tag at ("), message


def test_a_hover_over_a_tag_at_the_extent_bound_writes_finite_numbers(files, tmp_path):
    # the header's width at MAX_EXTENT and a tag at its far edge: a hover
    # over that tag estimates positions near 1e150 m, and every number run
    # writes is finite; one ulp wider and the header's line is named
    edge, y = repr(MAX_EXTENT), files["lines"][3].split()[3]
    config = tmp_path / "far.cfg"
    config.write_text(CONFIG.replace("kind = hover\n", f"kind = hover\nx = {edge}\ny = {y}\n"),
                      encoding="utf-8")
    far = {**files, "config": config}
    lines = _mutated(files["lines"], [("swap", 0, 2, edge), ("swap", 3, 2, edge)])
    _assert_run_is_clean(far, lines)
    rows = [row.split(",") for row in far["out"].read_text(encoding="utf-8").splitlines()[1:]]
    assert any(row[1] for row in rows)  # the tag was seen and ep_cm scored
    wider = repr(math.nextafter(MAX_EXTENT, math.inf))
    code, message = _run(far, _mutated(lines, [("swap", 0, 2, wider)]))
    assert code == 2
    assert message.startswith(f"taglok: {files['map']}: line 1: map extent must be positive "
                              f"and at most {MAX_EXTENT!r} m"), message
