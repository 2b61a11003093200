import itertools
import json
import os
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from taglok.cli import (
    ConfigError,
    default_settings,
    load_run_config,
    load_settings,
    main,
    parse_scenario,
)
from taglok.geometry import UnitQuaternion
from taglok.pipeline import PipelineConfig, RotMeanMethod, ThsMode, WeightScheme
from taglok.tagmap import build_pattern_map, load_map, save_map, serialize_map


def write_cfg(tmp_path, text="", name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return " ".join(value)
    return str(value)


def save_settings(settings, path):
    """Write every value of `settings` as a config file load_settings reads back."""
    lines = []
    for section, values in settings.values.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_format_value(value)}" for key, value in values.items()]
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")


QUICK = """
[trajectory]
duration = 0.5

[noise]
position_sigma = 0.005
rotation_sigma = 0.01
outlier_probability = 0.0

[run]
seed = 11
"""


class TestExitCodes:
    def test_run_help_exits_zero(self, capsys):
        assert main(["run", "--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0

    def test_module_entry_point(self):
        import subprocess
        import sys
        from pathlib import Path

        import taglok

        env = dict(os.environ, PYTHONPATH=str(Path(taglok.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "taglok", "frobnicate"],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 1
        assert "taglok: error" in done.stderr

    def test_a_t3_run_imports_no_scipy(self, tmp_path):
        import subprocess
        import sys

        import taglok

        cfg = write_cfg(tmp_path, "[trajectory]\nkind = t3\n")
        out = tmp_path / "out.csv"
        script = ("import sys\n"
                  "from taglok.cli import main\n"
                  f"assert main(['run', '--config', {cfg!r}, '--frames', '2',"
                  f" '--out', {str(out)!r}]) == 0\n"
                  "assert 'scipy' not in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=str(Path(taglok.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert done.returncode == 0, done.stderr
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3  # header, 2 frames

    def test_importing_the_cli_leaves_numpy_random_unloaded(self):
        # the simulator loads numpy's sampler only for a draw off the
        # ziggurat's fast path; replay never draws
        import subprocess
        import sys

        import taglok

        script = ("import sys\n"
                  "import numpy\n"
                  "eager = 'numpy.random' in sys.modules\n"
                  "import taglok.cli\n"
                  "print(eager, 'numpy.random' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(taglok.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert done.returncode == 0, done.stderr
        eager, loaded = done.stdout.split()
        if eager == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        assert loaded == "False"

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "should_not_exist.csv"
        code = main(["run", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unreadable_config_is_runtime_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.ini")])
        assert code == 2

    def test_bad_config_value_is_runtime_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[pipeline]\niqr_gain = -1\n")
        code = main(["run", "--config", cfg])
        assert code == 2
        assert "pipeline.iqr_gain" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, named", [
        ("run", "[camera]\nmount_x = inf\n", "camera.mount_x: not a finite number: 'inf'"),
        ("run", "[trajectory]\nx = nan\n", "trajectory.x: not a finite number: 'nan'"),
        ("run", "[trajectory]\nyaw = nan\n", "trajectory.yaw"),
        ("run", "[noise]\nposition_sigma = inf\n", "noise.position_sigma"),
        ("run", "[noise]\nsize_exponent = nan\n", "noise.size_exponent"),
        ("run", "[noise]\nsize_exponent = 1000\n[trajectory]\nz = 2.0\n",
         "noise.size_exponent: the noise scale overflows at an apparent size of 12 px"),
        ("run", "[noise]\nsize_exponent = -1000\n[trajectory]\nz = 2.0\n",
         "noise.size_exponent: the noise scale overflows at an apparent size of 1468.6 px"),
        ("run", "[run]\nsample_rate = inf\n", "run.sample_rate"),
        ("run", f"[camera]\nimage_width = {'9' * 400}\n",
         "camera.image_width: must be positive and at most 2**53"),
        ("run", f"[camera]\nimage_height = {2**53 + 1}\n",
         "camera.image_height: must be positive and at most 2**53"),
        ("run", "[trajectory]\nkind = t3\nwaypoints = {waypoints}\n",
         "way.txt: line 3: not a finite number: 'nan'"),
        ("compare", "[compare]\nscenarios = hover:1.5:nan:0.8\n",
         "scenario 'hover:1.5:nan:0.8': not a finite number: 'nan'"),
        ("compare", "[compare]\nscenarios = hover:1.5:2.5:-1\n",
         "scenario 'hover:1.5:2.5:-1': z must be positive"),
        ("compare", "[compare]\nscenarios = hover:1.5:2.5:0.8 hover:1.5:2.5:0\n",
         "scenario 'hover:1.5:2.5:0': z must be positive"),
    ], ids=["mount-inf", "x-nan", "yaw-nan", "sigma-inf", "exponent-nan",
            "exponent-overflows-at-threshold", "exponent-overflows-at-diagonal", "rate-inf",
            "width-400-digits", "height-above-2**53",
            "waypoint-nan", "scenario-nan", "scenario-z-negative", "scenario-z-zero"])
    def test_non_finite_input_names_key_token_or_line(self, tmp_path, capsys,
                                                      command, config, named):
        waypoints = tmp_path / "way.txt"
        waypoints.write_text("0.5 0.5 1 0\n1 1 1 0\n1.5 nan 1 0\n2 2 1 0\n", encoding="utf-8")
        cfg = write_cfg(tmp_path, config.format(waypoints=waypoints))
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lines, named", [
        ("0 0 1 0\n1 0 1 0\n2 0 1 0\n", "spline trajectory needs at least 4 waypoints"),
        ("1 1 1 0\n" * 4, "spline trajectory needs a positive finite duration, got 0.0"),
        ("1e308 0 1 0\n-1e308 0 1 0\n" * 2,
         "spline trajectory needs a positive finite duration, got inf"),
    ], ids=["three-waypoints", "four-equal-waypoints", "chord-overflows"])
    def test_bad_waypoint_file_names_the_file(self, tmp_path, capsys, lines, named):
        waypoints = tmp_path / "way.txt"
        waypoints.write_text(lines, encoding="utf-8")
        cfg = write_cfg(tmp_path, f"[trajectory]\nkind = t3\nwaypoints = {waypoints}\n")
        assert main(["run", "--config", cfg, "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{waypoints}: {named}" in err and "Traceback" not in err

    def test_percent_in_a_value_is_literal(self, tmp_path, capsys):
        missing = tmp_path / "a%b.txt"
        cfg = write_cfg(tmp_path, f"[map]\nfile = {missing}\n")
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err

    def test_default_section_is_an_unknown_section(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[DEFAULT]\nseed = 3\n\n[run]\nsample_rate = 10\n")
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "unknown section [DEFAULT]" in err and "Traceback" not in err

    def test_frame_rate_is_an_unknown_key(self, tmp_path, capsys):
        # the sample rate ([run] sample_rate) is the one frame rate
        cfg = write_cfg(tmp_path, "[camera]\nframe_rate = 60.0\n")
        assert main(["run", "--config", cfg]) == 2
        assert "unknown key camera.frame_rate" in capsys.readouterr().err


class TestSettings:
    def test_empty_config_is_all_defaults_new(self, tmp_path):
        cfg = load_run_config(write_cfg(tmp_path, ""))
        assert cfg.pipeline.ths is ThsMode.TBS
        assert cfg.pipeline.outlier_removal is True
        assert cfg.pipeline.weights is WeightScheme.W2
        assert cfg.pipeline.rot_mean is RotMeanMethod.QL2
        assert cfg.pipeline.iqr_gain == 1.5
        assert cfg.pipeline.fir_length == 5
        assert cfg.trajectory.label == "hover"
        assert cfg.sample_rate == 20.0
        assert cfg.noise.seed == 0
        assert cfg.camera.focal_px == 600.0
        assert len(cfg.tag_map) == 255

    def test_iqr_gain_validation_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="pipeline.iqr_gain"):
            load_settings(write_cfg(tmp_path, "[pipeline]\niqr_gain = -1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key pipeline.gian"):
            load_settings(write_cfg(tmp_path, "[pipeline]\ngian = 1.5\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[pipelines\]"):
            load_settings(write_cfg(tmp_path, "[pipelines]\niqr_gain = 1.5\n"))

    def test_bad_enum_value(self, tmp_path):
        with pytest.raises(ConfigError, match="pipeline.ths"):
            load_settings(write_cfg(tmp_path, "[pipeline]\nths = biggest\n"))

    def test_bad_boolean(self, tmp_path):
        with pytest.raises(ConfigError, match="outlier_removal"):
            load_settings(write_cfg(tmp_path, "[pipeline]\noutlier_removal = maybe\n"))

    def test_round_trip_save_load(self, tmp_path):
        original = load_settings(write_cfg(tmp_path, """
[pipeline]
ths = jbt
outlier_removal = false
fir_length = 3

[noise]
position_sigma = 0.02

[compare]
variants = jbt tbs-or
scenarios = hover:1.0:1.0:0.8 t1
"""))
        saved = tmp_path / "saved.ini"
        save_settings(original, saved)
        reloaded = load_settings(saved)
        assert reloaded.values == original.values
        assert reloaded.get("pipeline", "ths") == "jbt"
        assert reloaded.get("compare", "scenarios") == ("hover:1.0:1.0:0.8", "t1")

    def test_comments_and_inline_comments(self, tmp_path):
        settings = load_settings(write_cfg(tmp_path, """
# full-line comment
[pipeline]
fir_length = 7  # inline comment
"""))
        assert settings.get("pipeline", "fir_length") == 7

    def test_every_pipeline_field_is_set_by_its_key(self, tmp_path):
        # one home per setting: no PipelineConfig field outside [pipeline]
        names = [f.name for f in fields(PipelineConfig)]
        assert sorted(names) == sorted(default_settings().values["pipeline"])
        text = "[pipeline]\n" + "".join(f"{n} = {LIVE_VALUES['pipeline.' + n]}\n" for n in names)
        path = write_cfg(tmp_path, text)
        settings, pipeline = load_settings(path), load_run_config(path).pipeline
        for name in names:
            value = getattr(pipeline, name)
            assert getattr(value, "value", value) == settings.get("pipeline", name)

    def test_run_seed_is_the_noise_seed(self, tmp_path):
        cfg = load_run_config(write_cfg(tmp_path, "[run]\nseed = 4\n"))
        assert cfg.noise.seed == 4

    def test_largest_finite_noise_scale_is_accepted(self, tmp_path):
        # (100 / 12) ** 300 is about 1e276, and (100 / 1468.6) ** 300 underflows to 0
        cfg = load_run_config(write_cfg(tmp_path, "[noise]\nsize_exponent = 300\n"))
        assert cfg.noise.size_exponent == 300.0

    def test_percent_in_map_file_name(self, tmp_path):
        map_path = tmp_path / "100%.map"
        save_map(build_pattern_map((0.94, 0.94)), map_path)
        cfg = load_run_config(write_cfg(tmp_path, f"[map]\nfile = {map_path}\n"))
        assert len(cfg.tag_map) == 17

    def test_provided_tracking(self, tmp_path):
        settings = load_settings(write_cfg(tmp_path, "[run]\nseed = 4\n"))
        assert settings.was_provided("run", "seed")
        assert not settings.was_provided("run", "sample_rate")

    def test_map_file_setting(self, tmp_path):
        map_path = tmp_path / "small.map"
        save_map(build_pattern_map((0.94, 0.94)), map_path)
        cfg = load_run_config(write_cfg(tmp_path, f"[map]\nfile = {map_path}\n"))
        assert len(cfg.tag_map) == 17

    def test_t3_waypoint_file_setting(self, tmp_path):
        wp_path = tmp_path / "wp.txt"
        wp_path.write_text("0 0 1 0\n1 0 1.2 0.1\n2 1 1.4 0.2\n3 2 1 0.3\n", encoding="utf-8")
        cfg = load_run_config(write_cfg(
            tmp_path, f"[trajectory]\nkind = t3\nwaypoints = {wp_path}\n"))
        position, yaw = cfg.trajectory.sample(0.0)
        assert np.allclose(position, [0.0, 0.0, 1.0]) and yaw == 0.0


class TestScenarioParsing:
    def test_named_trajectories(self):
        settings = default_settings()
        for token in ("t1", "t2", "t3"):
            label, trajectory = parse_scenario(token, settings)
            assert label == token and trajectory.label == token

    def test_hover_token(self):
        label, trajectory = parse_scenario("hover:1.0:2.0:1.4", default_settings())
        position, yaw = trajectory.sample(0.0)
        assert np.array_equal(position, [1.0, 2.0, 1.4]) and yaw == 0.0

    def test_hover_token_with_yaw(self):
        _, trajectory = parse_scenario("hover:1:2:1.4:0.5", default_settings())
        assert trajectory.sample(0.0)[1] == 0.5

    def test_bad_tokens(self):
        with pytest.raises(ConfigError):
            parse_scenario("hover:1:2", default_settings())
        with pytest.raises(ConfigError):
            parse_scenario("circle", default_settings())


class TestMapBuild:
    def test_builds_and_round_trips(self, tmp_path, capsys):
        out = tmp_path / "map.txt"
        assert main(["map-build", "--out", str(out)]) == 0
        tag_map = load_map(out)
        assert len(tag_map) == 255
        assert "255 tags" in capsys.readouterr().out

    def test_custom_extent(self, tmp_path):
        out = tmp_path / "one.txt"
        assert main(["map-build", "--out", str(out), "--width", "0.94", "--height", "0.94"]) == 0
        assert len(load_map(out)) == 17

    def test_too_small_extent_fails(self, tmp_path, capsys):
        assert main(["map-build", "--out", str(tmp_path / "x.txt"), "--width", "0.5"]) == 2

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_extent_names_the_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.txt"
        assert main(["map-build", "--out", str(out), f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"taglok: {flag} must be a finite number (got {float(value)!r})" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "ts.csv"
        log = tmp_path / "frames.jsonl"
        assert main(["run", "--config", cfg, "--out", str(out), "--log", str(log)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,ep_cm,eo_deg,tags_used"
        assert len(lines) == 11  # 0.5 s at 20 Hz
        records = [json.loads(l) for l in log.read_text().strip().split("\n")]
        assert len(records) == 10
        assert "hover" in capsys.readouterr().out

    def test_frames_override(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "ts.csv"
        assert main(["run", "--config", cfg, "--out", str(out), "--frames", "7"]) == 0
        assert len(out.read_text().strip().split("\n")) == 8

    @pytest.mark.parametrize("command", ["run", "dump-detections"])
    @pytest.mark.parametrize("frames, message", [
        ("0", "--frames must be at least 1"),
        ("1" + "0" * 400, "--frames must be at most 2**53"),
        (str(2**53 + 1), "--frames must be at most 2**53"),
    ], ids=["zero", "1e400", "2**53+1"])
    def test_out_of_range_frames_is_usage_error(self, tmp_path, capsys, command, frames,
                                                message):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "out.txt"
        assert main([command, "--config", cfg, "--out", str(out), "--frames", frames]) == 1
        err = capsys.readouterr().err
        assert f"taglok: error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("config, args", [
        ("[trajectory]\nduration = 1e300\n\n[run]\nsample_rate = 1e300\n", []),
        ("[run]\nsample_rate = 1e-300\n", ["--frames", str(2**53)]),
    ], ids=["config", "frames-flag"])
    def test_infinite_frame_count_names_the_sample_rate(self, tmp_path, capsys, config, args):
        cfg = write_cfg(tmp_path, config)
        out = tmp_path / "ts.csv"
        assert main(["run", "--config", cfg, "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert "taglok: run.sample_rate: " in err and "Traceback" not in err
        assert not out.exists()

    def test_variant_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        assert main(["run", "--config", cfg, "--variant", "jbt-noor"]) == 0

    def test_bad_variant_is_runtime_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        assert main(["run", "--config", cfg, "--variant", "nope"]) == 2

    def test_map_override(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        map_path = tmp_path / "m.txt"
        save_map(build_pattern_map((3.0, 5.0)), map_path)
        assert main(["run", "--config", cfg, "--map", str(map_path)]) == 0

    def test_far_map_tag_runs_like_the_map_without_it(self, tmp_path):
        # the tag projects to an infinite image coordinate and is culled, silently;
        # noise streams are keyed per tag, so dropping it shifts no other tag's draws
        cfg = write_cfg(tmp_path, QUICK)
        header, first, *rest = serialize_map(build_pattern_map((3.0, 5.0))).splitlines()
        far = first.split()
        far[2] = "1e308"
        outputs = []
        for name, lines in (("far", [header, " ".join(far), *rest]), ("without", [header, *rest])):
            map_path, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
            map_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["run", "--config", cfg, "--map", str(map_path),
                             "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_bad_map_file_names_the_file_and_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        map_path = tmp_path / "m.txt"
        map_path.write_text("tagmap v1 2.0 2.0\n-3 S 0.1 0.1 0.0 1 0 0 0\n", encoding="utf-8")
        out = tmp_path / "ts.csv"
        assert main(["run", "--config", cfg, "--map", str(map_path), "--out", str(out)]) == 2
        assert f"taglok: {map_path}: line 2: bad id '-3'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tag_line, message", [
        ("9223372036854775808 S 0.1 0.1 0.0 1 0 0 0", "bad id '9223372036854775808'"),
        ("3 S 0.1 0.1 0.0 1e200 0 0 0", "bad quaternion (quaternion norm is not finite)"),
    ], ids=["id-2**63", "overflowing-quaternion"])
    def test_out_of_range_map_value_names_the_file_and_line(self, tmp_path, capsys,
                                                            tag_line, message):
        cfg = write_cfg(tmp_path, QUICK)
        map_path = tmp_path / "m.txt"
        map_path.write_text(f"tagmap v1 2.0 2.0\n{tag_line}\n", encoding="utf-8")
        out = tmp_path / "ts.csv"
        assert main(["run", "--config", cfg, "--map", str(map_path), "--out", str(out)]) == 2
        assert f"taglok: {map_path}: line 2: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_equals_config_seed(self, tmp_path):
        flagged, configured = tmp_path / "flag.jsonl", tmp_path / "config.jsonl"
        cfg = write_cfg(tmp_path, QUICK)
        assert main(["run", "--config", cfg, "--seed", "4", "--log", str(flagged)]) == 0
        cfg = write_cfg(tmp_path, QUICK.replace("seed = 11", "seed = 4"), "seeded.ini")
        assert main(["run", "--config", cfg, "--log", str(configured)]) == 0
        assert flagged.read_bytes() == configured.read_bytes()

    @pytest.mark.parametrize("command", ["run", "compare", "dump-detections"])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "out.txt"
        assert main([command, "--config", cfg, "--seed", "-1", "--out", str(out)]) == 2
        assert "taglok: --seed must be non-negative (got -1)" in capsys.readouterr().err
        assert not out.exists()


# Every setting must reach the output: one key set off the base changes the
# bytes of a 3-frame `run --log` of a 2.0 m hover. The base fuses every tag
# in view without outlier removal, so the outlier noise keys show within 3
# frames. A key may bring the settings it depends on; those go into both runs.
LIVE_BASE = {"trajectory.z": "2.0", "trajectory.duration": "0.15",
             "pipeline.ths": "all", "pipeline.outlier_removal": "false"}
LIVE_VALUES = {
    "map.width": "2.8",
    "map.height": "3.5",
    "camera.focal_px": "500",
    "camera.image_width": "1000",
    "camera.image_height": "600",
    "camera.detect_threshold_px": "30",
    "camera.mount_x": "0.05",
    "camera.mount_y": "0.05",
    "camera.mount_z": "0.05",
    "noise.position_sigma": "0.02",
    "noise.rotation_sigma": "0.04",
    "noise.reference_apparent": "80",
    "noise.size_exponent": "2.0",
    "noise.outlier_probability": "0.5",
    "noise.outlier_position_scale": "20",
    "noise.outlier_rotation_scale": "2",
    "pipeline.ths": "jbt",
    "pipeline.outlier_removal": "true",
    "pipeline.iqr_gain": "0.5",
    "pipeline.weights": "w1",
    "pipeline.rot_mean": "cl2",
    "pipeline.fir_length": "2",
    "trajectory.kind": "t3",
    "trajectory.x": "1.4",
    "trajectory.y": "2.4",
    "trajectory.z": "1.9",
    "trajectory.yaw": "0.3",
    "trajectory.duration": "0.1",
    "run.sample_rate": "25",
    "run.seed": "1",
}
LIVE_DEPENDS = {"pipeline.iqr_gain": {"pipeline.outlier_removal": "true"}}
LIVE_ARGS = {"trajectory.kind": ["--frames", "3"]}  # t3 lasts its own 30 s
NOT_LIVE_CHECKED = ("map.file", "trajectory.waypoints")  # files; [compare] is not run


def _run_log(directory, settings, args):
    directory.mkdir()
    sections = {}
    for name, value in settings.items():
        section, key = name.split(".")
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    text = "".join(f"[{section}]\n" + "".join(lines) for section, lines in sections.items())
    log = directory / "frames.jsonl"
    assert main(["run", "--config", write_cfg(directory, text), "--log", str(log), *args]) == 0
    return log.read_bytes()


@pytest.mark.parametrize("name", [
    f"{section}.{key}" for section, keys in default_settings().values.items()
    if section != "compare" for key in keys if f"{section}.{key}" not in NOT_LIVE_CHECKED])
def test_every_setting_changes_the_run_log(tmp_path, capsys, name):
    if name not in LIVE_VALUES:
        pytest.fail(f"no value to try for {name}: a new key needs one here")
    settings = {**LIVE_BASE, **LIVE_DEPENDS.get(name, {})}
    args = LIVE_ARGS.get(name, [])
    base = _run_log(tmp_path / "base", settings, args)
    changed = _run_log(tmp_path / "changed", {**settings, name: LIVE_VALUES[name]}, args)
    assert changed != base, f"{name} = {LIVE_VALUES[name]} left the run log unchanged"


COMPARE_CFG = """
[trajectory]
duration = 0.5

[noise]
position_sigma = 0.005
rotation_sigma = 0.01
outlier_probability = 0.05

[compare]
variants = jbt tbs-or
scenarios = hover:1.5:2.5:0.8 hover:1.5:2.5:1.4
"""


class TestCompareCommand:
    def test_requires_seed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPARE_CFG)
        out = tmp_path / "results.csv"
        code = main(["compare", "--config", cfg, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "seed" in capsys.readouterr().err

    def test_table_layout(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, COMPARE_CFG)
        out = tmp_path / "results.csv"
        assert main(["compare", "--config", cfg, "--out", str(out), "--seed", "9"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("scenario,variant,")
        assert len(lines) == 1 + 2 * 2
        assert lines[1].startswith("hover:1.5:2.5:0.8,jbt,")

    def test_seed_in_config_suffices(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPARE_CFG + "\n[run]\nseed = 5\n")
        out = tmp_path / "results.csv"
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 0

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPARE_CFG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["compare", "--config", cfg, "--out", str(out1), "--seed", "42"]) == 0
        assert main(["compare", "--config", cfg, "--out", str(out2), "--seed", "42"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_scenario_is_runtime_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[compare]\nscenarios = wiggle\n[run]\nseed = 1\n")
        assert main(["compare", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2


class TestDumpAndReplay:
    def test_round_trip_matches_direct_run(self, tmp_path):
        from taglok.camsim import read_detection_stream
        from taglok.harness import frame_to_json
        from taglok.harness import run as run_experiment

        cfg_path = write_cfg(tmp_path, QUICK)
        stream = tmp_path / "stream.txt"
        est = tmp_path / "est.csv"
        assert main(["dump-detections", "--config", cfg_path, "--out", str(stream)]) == 0
        # one more frame that sees only a tag missing from the map: replay has no estimate
        with open(stream, "a", encoding="utf-8") as handle:
            handle.write("10 0.5 9999 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0\n")
        assert main(["replay", "--config", cfg_path, "--detections", str(stream),
                     "--out", str(est)]) == 0

        cfg = load_run_config(cfg_path)
        expected = {}
        for record in run_experiment(cfg).frames:
            if record.output.stage_trace.n_detections == 0:
                continue  # frames without detections leave no line in the stream
            pose = record.output.pose
            columns = [f"{record.t:.6f}"] + [""] * 7 + ["0"]
            if pose is not None:
                values = [*pose.position, *pose.orientation.as_array()]
                columns[1:] = [f"{v:.9f}" for v in values] + [str(len(record.output.tags_used))]
            expected[record.frame] = ",".join(columns)
        expected[10] = "0.500000,,,,,,,,0"
        rows = {}
        for line in est.read_text().strip().split("\n")[1:]:
            frame, rest = line.split(",", 1)
            rows[int(frame)] = rest
        assert rows == expected

        replayed = run_experiment(cfg, read_detection_stream(stream))
        no_estimate = [r.frame for r in replayed.frames if r.output.pose is None]
        assert no_estimate == [10]
        assert replayed.stats.frames == 0
        assert replayed.stats.dropped == len(no_estimate)
        assert frame_to_json(replayed.frames[0])["pose_true"] is None

    def test_replay_log_equals_run_log_without_ground_truth(self, tmp_path):
        cfg_path = write_cfg(tmp_path, "[trajectory]\nkind = t2\n\n[run]\nseed = 3\n")
        stream, est = tmp_path / "stream.txt", tmp_path / "est.csv"
        run_log, replay_log = tmp_path / "run.jsonl", tmp_path / "replay.jsonl"
        frames = ["--frames", "60"]
        assert main(["run", "--config", cfg_path, "--log", str(run_log), *frames]) == 0
        assert main(["dump-detections", "--config", cfg_path, "--out", str(stream), *frames]) == 0
        assert main(["replay", "--config", cfg_path, "--detections", str(stream),
                     "--out", str(est), "--log", str(replay_log)]) == 0
        expected = []
        for line in run_log.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record.update(pose_true=None, phase=None, ep_cm=None, eo_deg=None)
            expected.append(json.dumps(record))
        assert replay_log.read_text(encoding="utf-8").splitlines() == expected
        assert len(expected) == 60

    def test_off_unit_stream_replays_like_its_normalized_twin(self, tmp_path):
        # the twin holds each line's quaternion as UnitQuaternion normalizes it; every
        # row is fused, and --log writes the fused poses in full precision
        cfg_path = write_cfg(tmp_path, "[trajectory]\nkind = t2\n\n[run]\nseed = 5\n")
        stream = tmp_path / "stream.txt"
        assert main(["dump-detections", "--config", cfg_path, "--out", str(stream),
                     "--frames", "40"]) == 0
        scales = itertools.cycle([3.0, 0.5, 1.0 + 3e-13, 1.0 - 7e-13, 1.0 + 5e-12, 1e-6, 1e100,
                                  1.0])
        streams = {"off": [], "twin": []}
        for line, scale in zip(stream.read_text(encoding="utf-8").splitlines(), scales):
            tokens = line.split()
            q = [float(token) * scale for token in tokens[6:10]]
            unit = UnitQuaternion(*q)
            for name, quat in (("off", q), ("twin", (unit.w, unit.x, unit.y, unit.z))):
                streams[name].append(" ".join([*tokens[:6], *map(repr, quat), tokens[10]]))
        assert len(streams["off"]) > 500
        outputs = []
        for name, lines in streams.items():
            path, est, log = (tmp_path / f"{name}{suffix}" for suffix in (".txt", ".csv", ".jsonl"))
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            assert main(["replay", "--config", cfg_path, "--detections", str(path), "--out",
                         str(est), "--log", str(log), "--variant", "all-noor"]) == 0
            outputs.append((est.read_bytes(), log.read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("bad_line", [
        "0 0.0 5 1.0 2.0",
        "0 0.0 5 0.0 0.0 -1.0 1.0 0.0 0.0 0.0 50.0",
        "0 0.0 5 0.0 0.0 nan 1.0 0.0 0.0 0.0 50.0",
    ], ids=["too-few-fields", "tag-behind-camera", "non-finite-field"])
    def test_bad_stream_line_names_file_and_line(self, tmp_path, capsys, bad_line):
        cfg_path = write_cfg(tmp_path, QUICK)
        stream = tmp_path / "stream.txt"
        est = tmp_path / "est.csv"
        assert main(["dump-detections", "--config", cfg_path, "--out", str(stream),
                     "--frames", "1"]) == 0
        lines = stream.read_text(encoding="utf-8").splitlines()
        lines[3] = bad_line
        stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", "--config", cfg_path, "--detections", str(stream),
                     "--out", str(est)]) == 2
        err = capsys.readouterr().err
        assert f"{stream}: line 4: " in err
        assert not est.exists()

    def test_overflowing_quaternion_line_names_file_and_line(self, tmp_path, capsys):
        # 1e200 squared overflows a float: reported as a bad line, not a traceback
        cfg_path = write_cfg(tmp_path, QUICK)
        stream = tmp_path / "stream.txt"
        est = tmp_path / "est.csv"
        stream.write_text("0 0.0 5 0.0 0.0 1.0 1e200 0.0 0.0 0.0 50.0\n", encoding="utf-8")
        assert main(["replay", "--config", cfg_path, "--detections", str(stream),
                     "--out", str(est)]) == 2
        assert f"taglok: {stream}: line 1: quaternion norm is not finite" in capsys.readouterr().err
        assert not est.exists()

    def test_dump_deterministic(self, tmp_path):
        cfg_path = write_cfg(tmp_path, QUICK)
        s1, s2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        assert main(["dump-detections", "--config", cfg_path, "--out", str(s1)]) == 0
        assert main(["dump-detections", "--config", cfg_path, "--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()
