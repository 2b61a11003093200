"""Fuzzing the config file, the waypoint file and the flags through `taglok`.

A valid config holding every key of every section, and a valid waypoint
file, are mutated as `test_map_fuzz.py` mutates a map: a token is swapped
for one of its hostile tokens, or a line is deleted, duplicated or
truncated. The flags `--seed`, `--frames` and `--variant` of `run`, and
`--width` / `--height` of `map-build`, take every hostile token too, and so
do `compare`'s `[compare] variants` and `scenarios` lines and each field of
a `hover:X:Y:Z:YAW` scenario. Whatever the input, `run` and
`dump-detections` (bounded by `--frames 3`), `compare` (bounded by a
duration of 3 frames) and `map-build` must exit 0, 1 or 2 without a
traceback; exit 2 must name the key, the flag, or the file and its line; on
exit 0 every number on stdout and in `--out` must be finite (a compare cell
without estimates leaves its error fields empty). No hostile token is a map
extent that is valid but enormous: such an extent is still built (1e9 m is
about 1e11 tags), like a long `--frames` run.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest

from taglok import cli
from taglok.camsim import _noise_draws
from taglok.harness import DEFAULT_T3_WAYPOINTS

from test_cli import _format_value
from test_map_fuzz import HOSTILE
from test_stream_fuzz import _mutated

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SECTIONS = "|".join(cli.default_settings().values)
# an error that names a key: a schema key first, or an unknown section or key
NAMES_KEY = rf"taglok: (({SECTIONS})\.\w+|unknown section \[|unknown key )"
NAMES_FLAG = r"taglok: --(seed|frames|variant|width|height)\b"


# every key at its default, but for a hover at 1.4 m over a small map: 34 tags, 5 in view
SETTINGS = cli.default_settings().values
SETTINGS["map"].update(width=1.5, height=2.0)
SETTINGS["trajectory"].update(x=0.75, y=1.0, z=1.4)
CONFIG_LINES = [line for section, values in SETTINGS.items()
                for line in (f"[{section}]",
                             *(f"{key} = {_format_value(value)}" for key, value in values.items()))]
WAYPOINT_LINES = [f"{x!r} {y!r} {z!r} {yaw!r}" for (x, y, z), yaw in DEFAULT_T3_WAYPOINTS]
# the same config for `compare`: two variants, two hover scenarios over the
# small map, 3 frames each; the [compare] section's two lines come last
HOVER = ["hover", "0.75", "1.0", "0.8", "0.5"]
COMPARE_LINES = [*("duration = 0.15" if line.startswith("duration =") else line
                   for line in CONFIG_LINES[:-2]),
                 "variants = jbt tbs-or", f"scenarios = hover:0.75:1.0:1.4 {':'.join(HOVER)}"]


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("config-fuzz")
    return {"config": root / "run.cfg", "waypoints": root / "waypoints.txt",
            "out": root / "out.txt"}


def _write(path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _main(files, argv) -> tuple[int, str, str]:
    files["out"].unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(files["out"])])
    return code, stdout.getvalue(), stderr.getvalue()


def _assert_finite_numbers(text: str) -> None:
    for token in re.split(r"[\s,:()]+", text):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), text


def _assert_clean(files, argv, *names) -> tuple[int, str, str]:
    """`argv` exits 0, 1 or 2 without a traceback; exit 2 matches one of
    the patterns `names`; exit 0 writes finite numbers only."""
    code, stdout, message = _main(files, argv)
    assert code in (0, 1, 2), message
    assert "Traceback" not in message
    if code == 2:
        assert any(re.match(pattern, message, re.S) for pattern in names), message
    if code != 0:
        assert not files["out"].exists()
        return code, stdout, message
    _assert_finite_numbers(stdout)
    _assert_finite_numbers(files["out"].read_text(encoding="utf-8"))
    return code, stdout, message


def _run_config(files, lines, command="run", args=()):
    _write(files["config"], lines)
    in_file = rf"taglok: {re.escape(str(files['config']))}: .*\bline\b"
    return _assert_clean(files, [command, "--config", str(files["config"]), "--frames", "3",
                                 *args], NAMES_KEY, NAMES_FLAG, in_file)


def _compare_config(files, lines):
    _write(files["config"], lines)
    in_file = rf"taglok: {re.escape(str(files['config']))}: .*\bline\b"
    return _assert_clean(files, ["compare", "--config", str(files["config"]), "--seed", "1"],
                         NAMES_KEY, in_file)


def _run_waypoints(files, lines):
    # the file and its line, or the file and the spline its waypoints make
    _write(files["waypoints"], lines)
    _write(files["config"], ["[trajectory]", "kind = t3", f"waypoints = {files['waypoints']}"])
    _assert_clean(files, ["run", "--config", str(files["config"]), "--frames", "3"],
                  rf"taglok: {re.escape(str(files['waypoints']))}: (line \d+: |spline trajectory )")


MUTATION = st.tuples(st.sampled_from(["swap", "swap", "delete", "duplicate", "truncate"]),
                     st.integers(0, 10**6), st.integers(0, 200), st.sampled_from(HOSTILE))


@pytest.mark.parametrize("command", ["run", "dump-detections"])
def test_valid_config_runs(files, command):
    assert _run_config(files, CONFIG_LINES, command)[0] == 0


def test_valid_compare_config_runs(files):
    code, _, _ = _compare_config(files, COMPARE_LINES)
    assert code == 0
    rows = files["out"].read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[6:] for row in rows] == [["3", "0"]] * 4


def test_valid_waypoint_file_runs(files):
    _run_waypoints(files, WAYPOINT_LINES)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(["run", "dump-detections"]),
                  st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_config_exits_cleanly(files, command, mutations):
    _run_config(files, _mutated(CONFIG_LINES, mutations), command)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_compare_lines_exit_cleanly(files, mutations):
    _compare_config(files, COMPARE_LINES[:-2] + _mutated(COMPARE_LINES[-2:], mutations))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_waypoint_file_exits_cleanly(files, mutations):
    _run_waypoints(files, _mutated(WAYPOINT_LINES, mutations))


# every value but [compare]'s, whose tokens only `compare` reads
VALUE_LINES = [i for i, line in enumerate(CONFIG_LINES[:CONFIG_LINES.index("[compare]")])
               if "=" in line]


@pytest.mark.parametrize("line", VALUE_LINES, ids=[CONFIG_LINES[i].split()[0] for i in VALUE_LINES])
def test_every_config_value_takes_every_hostile_token(files, line):
    for value in HOSTILE:
        _run_config(files, _mutated(CONFIG_LINES, [("swap", line, 2, value)]))


@pytest.mark.parametrize("line", [-2, -1], ids=["variants", "scenarios"])
def test_every_compare_token_takes_every_hostile_token(files, line):
    for value in HOSTILE:  # in place of the second variant or scenario
        _compare_config(files, _mutated(COMPARE_LINES, [("swap", line, 3, value)]))


@pytest.mark.parametrize("field", range(len(HOVER)), ids=["kind", "x", "y", "z", "yaw"])
def test_every_hover_field_takes_every_hostile_token(files, field):
    for value in HOSTILE:
        token = ":".join(value if k == field else part for k, part in enumerate(HOVER))
        _compare_config(files, [*COMPARE_LINES[:-1], f"scenarios = {token}"])


@pytest.mark.parametrize("field", range(4))
def test_every_waypoint_field_takes_every_hostile_token(files, field):
    for value in HOSTILE:
        _run_waypoints(files, _mutated(WAYPOINT_LINES, [("swap", 2, field, value)]))


@pytest.mark.parametrize("flag", ["--seed", "--frames", "--variant"])
def test_every_run_flag_takes_every_hostile_token(files, flag):
    for value in HOSTILE:
        _run_config(files, CONFIG_LINES, args=[f"{flag}={value}"])


@pytest.mark.parametrize("flag", ["--width", "--height"])
def test_every_map_build_extent_takes_every_hostile_token(files, flag):
    for value in HOSTILE:
        _assert_clean(files, ["map-build", f"{flag}={value}"], NAMES_FLAG)


def test_a_seed_of_2_to_the_64_runs_its_own_streams(files):
    assert _run_config(files, CONFIG_LINES, args=["--seed", str(2**64)])[0] == 0
    ids = np.array([0, 17, 254, 2**40])
    uniform, normals = _noise_draws(2**64, 2, ids)
    for row, tag in enumerate(ids.tolist()):
        stream = np.random.default_rng((2**64, 2, tag))
        assert uniform[row] == stream.random()
        assert np.array_equal(normals[row], stream.standard_normal(7))


def test_a_noise_scale_that_drops_every_frame_says_so(files):
    lines = _mutated(CONFIG_LINES, [("swap", CONFIG_LINES.index("reference_apparent = 100.0"),
                                     2, "1e308")])
    code, stdout, _ = _run_config(files, lines)
    assert code == 0
    assert stdout == "hover: no frame produced an estimate (3 dropped: no-tags 3)\n"


@pytest.mark.parametrize("config, named", [
    ("[camera]\ndetect_threshold_px = 5e-324\n[noise]\nposition_sigma = 0\nrotation_sigma = 0\n",
     "camera.detect_threshold_px, noise.reference_apparent, noise.size_exponent: "
     "the noise scale overflows at an apparent size of 4.94066e-324 px"),
    ("[noise]\nreference_apparent = 5e-324\nsize_exponent = -1\n",
     "camera.detect_threshold_px, noise.reference_apparent, noise.size_exponent: "
     "the noise scale overflows at an apparent size of 12 px"),
], ids=["threshold-5e-324", "reference-5e-324-negative-exponent"])
def test_an_infinite_noise_scale_names_its_keys(files, config, named):
    code, _, message = _run_config(files, config.splitlines())
    assert code == 2
    assert message.startswith(f"taglok: {named}"), message
