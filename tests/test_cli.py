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
from taglok.tagmap import build_pattern_map, parse_map, serialize_map


def save_map(tag_map, path):
    Path(path).write_text(serialize_map(tag_map), encoding="utf-8")


def load_map(path):
    return parse_map(Path(path).read_text(encoding="utf-8"))


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
    @pytest.mark.parametrize("command", ["map-build", "run", "compare", "dump-detections",
                                         "replay"])
    def test_help_exits_zero(self, capsys, command):
        assert main([command, "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith(f"usage: taglok {command} ") and err == ""

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
        assert capsys.readouterr().err == "taglok: pipeline.iqr_gain: must be positive (got -1)\n"

    @pytest.mark.parametrize("command, config, named", [
        ("run", "[camera]\nmount_x = inf\n", "camera.mount_x: not a finite number: 'inf'"),
        ("run", "[trajectory]\nx = nan\n", "trajectory.x: not a finite number: 'nan'"),
        ("run", "[trajectory]\nyaw = nan\n", "trajectory.yaw: not a finite number: 'nan'"),
        ("run", "[noise]\nposition_sigma = inf\n",
         "noise.position_sigma: not a finite number: 'inf'"),
        ("run", "[noise]\nsize_exponent = nan\n",
         "noise.size_exponent: not a finite number: 'nan'"),
        ("run", "[noise]\nsize_exponent = 1000\n[trajectory]\nz = 2.0\n",
         "camera.detect_threshold_px, noise.reference_apparent, noise.size_exponent: the noise "
         "scale overflows at an apparent size of 12 px (got reference_apparent 100.0, "
         "size_exponent 1000.0)"),
        ("run", "[noise]\nsize_exponent = -1000\n[trajectory]\nz = 2.0\n",
         "camera.image_width, camera.image_height, noise.reference_apparent, "
         "noise.size_exponent: the noise scale overflows at an apparent size of 1468.6 px "
         "(got reference_apparent 100.0, size_exponent -1000.0)"),
        ("run", "[noise]\nrotation_sigma = 1e307\nsize_exponent = 2\n"
                "[trajectory]\nz = 2.0\nduration = 0.5\n",
         "noise.rotation_sigma: the noise sigma overflows at an apparent size of 12 px "
         "(got 1e+307)"),
        ("run", "[noise]\nposition_sigma = 1e307\nsize_exponent = 2\n"
                "[trajectory]\nz = 2.0\nduration = 0.5\n",
         "noise.position_sigma: the noise sigma overflows at an apparent size of 12 px "
         "(got 1e+307)"),
        ("run", "[run]\nsample_rate = inf\n", "run.sample_rate: not a finite number: 'inf'"),
        ("run", "[trajectory]\nduration = 1e308\n",
         "run.sample_rate: 20.0 Hz over a trajectory.duration of 1e+308 s gives no finite "
         "frame count"),
        ("run", "[map]\nwidth = 1e300\n", "map.width x map.height: 1e+300 x 5.0 m holds so many "
                                           "tiles that tag ids would reach 2**63"),
        ("run", "[map]\nwidth = 1.7976931348623157e308\n",
         "map.width x map.height: 1.7976931348623157e+308 x 5.0 m holds so many tiles that tag "
         "ids would reach 2**63"),
        ("run", "[map]\nheight = 1.7976931348623157e308\n",
         "map.width x map.height: 3.0 x 1.7976931348623157e+308 m holds so many tiles that tag "
         "ids would reach 2**63"),
        ("run", "[map]\nwidth = 2000\nheight = 2000\n",
         "map.width x map.height: 2000.0 x 2000.0 m holds 76910193 tags, more than the 2097152 "
         "a built map may hold"),
        ("run", "[map]\nwidth = 1e-300\n", "map.width: 1e-300 m does not fit one 0.94 m tile"),
        ("run", "[map]\nheight = 0.9\n", "map.height: 0.9 m does not fit one 0.94 m tile"),
        ("run", f"[camera]\nimage_width = {'9' * 400}\n",
         f"camera.image_width: must be positive and at most 2**53 (got {'9' * 400})"),
        ("run", f"[camera]\nimage_height = {2**53 + 1}\n",
         f"camera.image_height: must be positive and at most 2**53 (got {2**53 + 1})"),
        ("run", "[trajectory]\nkind = t3\nwaypoints = {waypoints}\n",
         "{waypoints}: line 3: not a finite number: 'nan'"),
        ("compare", "[compare]\nscenarios = hover:1.5:nan:0.8\n",
         "compare.scenarios: scenario 'hover:1.5:nan:0.8': not a finite number: 'nan'"),
        ("compare", "[compare]\nscenarios = hover:1.5:2.5:-1\n",
         "compare.scenarios: scenario 'hover:1.5:2.5:-1': z must be positive"),
        ("compare", "[compare]\nscenarios = hover:1.5:2.5:0.8 hover:1.5:2.5:0\n",
         "compare.scenarios: scenario 'hover:1.5:2.5:0': z must be positive"),
    ], ids=["mount-inf", "x-nan", "yaw-nan", "sigma-inf", "exponent-nan",
            "exponent-overflows-at-threshold", "exponent-overflows-at-diagonal",
            "rotation-sigma-overflows", "position-sigma-overflows", "rate-inf",
            "duration-overflows", "map-width-1e300", "map-width-max-float",
            "map-height-max-float", "map-2000-m-square", "map-width-1e-300", "map-height-0.9",
            "width-400-digits", "height-above-2**53",
            "waypoint-nan", "scenario-nan", "scenario-z-negative", "scenario-z-zero"])
    def test_non_finite_input_names_key_token_or_line(self, tmp_path, capsys,
                                                      command, config, named):
        waypoints = tmp_path / "way.txt"
        waypoints.write_text("0.5 0.5 1 0\n1 1 1 0\n1.5 nan 1 0\n2 2 1 0\n", encoding="utf-8")
        cfg = write_cfg(tmp_path, config.format(waypoints=waypoints))
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"taglok: {named.format(waypoints=waypoints)}\n"
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
        assert capsys.readouterr().err == f"taglok: {waypoints}: {named}\n"

    def test_percent_in_a_value_is_literal(self, tmp_path, capsys):
        missing = tmp_path / "a%b.txt"
        cfg = write_cfg(tmp_path, f"[map]\nfile = {missing}\n")
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "Traceback" not in err

    @pytest.mark.parametrize("command, config, args, named", [
        ("run", "[trajectory]\nkind = t3\nwaypoints = {missing}\n", [], "trajectory.waypoints"),
        ("run", "[map]\nfile = {missing}\n", [], "map.file"),
        ("run", "", ["--map", "{missing}"], "--map"),
        ("replay", "", ["--detections", "{missing}", "--out", "{out}"], "--detections"),
    ], ids=["waypoints", "map-file", "map-flag", "detections-flag"])
    def test_a_file_that_cannot_be_opened_is_named_by_its_key_or_flag(self, tmp_path, capsys,
                                                                      command, config, args,
                                                                      named):
        paths = {"missing": tmp_path / "missing.txt", "out": tmp_path / "out.csv"}
        cfg = write_cfg(tmp_path, config.format(**paths))
        assert main([command, "--config", cfg, *(a.format(**paths) for a in args)]) == 2
        err = capsys.readouterr().err
        assert err == (f"taglok: {named}: [Errno 2] No such file or directory: "
                       f"'{paths['missing']}'\n")
        assert not paths["out"].exists()

    @pytest.mark.parametrize("command, args", [
        ("run", []),
        ("compare", ["--out", "{out}"]),
        ("dump-detections", ["--out", "{out}"]),
        ("replay", ["--detections", "{out}", "--out", "{out}"]),
    ], ids=["run", "compare", "dump-detections", "replay"])
    def test_a_config_file_that_cannot_be_opened_is_named_by_its_flag(self, tmp_path, capsys,
                                                                     command, args):
        missing, out = tmp_path / "nope.ini", tmp_path / "out.csv"
        assert main([command, "--config", str(missing),
                     *(a.format(out=out) for a in args)]) == 2
        err = capsys.readouterr().err
        assert err == f"taglok: --config: [Errno 2] No such file or directory: '{missing}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, args, flag", [
        ("map-build", [], "--out"),
        ("run", ["--config", "{cfg}", "--frames", "1"], "--out"),
        ("run", ["--config", "{cfg}", "--frames", "1"], "--log"),
        ("compare", ["--config", "{cfg}", "--seed", "1"], "--out"),
        ("dump-detections", ["--config", "{cfg}", "--frames", "1"], "--out"),
        ("replay", ["--config", "{cfg}", "--detections", "{stream}"], "--out"),
        ("replay", ["--config", "{cfg}", "--detections", "{stream}", "--out", "{out}"],
         "--log"),
    ], ids=["map-build", "run-out", "run-log", "compare", "dump-detections", "replay-out",
            "replay-log"])
    def test_an_output_file_that_cannot_be_written_is_named_by_its_flag(self, tmp_path, capsys,
                                                                        command, args, flag):
        stream = tmp_path / "stream.txt"
        stream.write_text("0 0.0 5 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0\n", encoding="utf-8")
        paths = {"cfg": write_cfg(tmp_path, "[trajectory]\nduration = 0.05\n"),
                 "stream": stream, "out": tmp_path / "out.csv"}
        directory = tmp_path / "adir"
        directory.mkdir()
        assert main([command, *(a.format(**paths) for a in args), flag, str(directory)]) == 2
        # outputs are opened before the work: nothing is printed or written
        assert capsys.readouterr() == ("", f"taglok: {flag}: [Errno 21] Is a directory: "
                                           f"'{directory}'\n")
        assert not paths["out"].exists() or paths["out"].read_bytes() == b""

    @pytest.mark.parametrize("command, args", [
        ("run", ["--frames", "3"]),
        ("replay", ["--detections", "{stream}"]),
        ("replay", ["--detections", "{empty}"]),  # no record: an empty log, a CSV header
    ], ids=["run", "replay", "replay-empty-stream"])
    def test_out_and_log_naming_one_file_leave_the_log(self, tmp_path, command, args):
        stream, empty = tmp_path / "stream.txt", tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        cfg = write_cfg(tmp_path, QUICK)
        assert main(["dump-detections", "--config", cfg, "--out", str(stream)]) == 0
        argv = [command, "--config", cfg, *(a.format(stream=stream, empty=empty) for a in args)]
        both, log = tmp_path / "both.txt", tmp_path / "frames.jsonl"
        assert main([*argv, "--out", str(both), "--log", str(both)]) == 0
        assert main([*argv, "--out", str(tmp_path / "out.csv"), "--log", str(log)]) == 0
        assert both.read_bytes() == log.read_bytes()

    BAD_UTF8 = {"leading-ff-fe": lambda text: b"\xff\xfe" + text,
                "lone-80-mid-line": lambda text: text[:5] + b"\x80" + text[5:],
                "truncated-e2-82-at-end": lambda text: text + b"\xe2\x82",
                # past the 2**16-byte pieces the detection stream is checked in
                "lone-80-past-the-first-piece":
                    lambda text: text * (2**17 // len(text)) + b"\x80" + text}

    @pytest.mark.parametrize("case", BAD_UTF8)
    @pytest.mark.parametrize("command, config, args, named", [
        ("run", "", [], "--config"),
        ("run", "[trajectory]\nkind = t3\nwaypoints = {file}\n", [], "trajectory.waypoints"),
        ("run", "[map]\nfile = {file}\n", [], "map.file"),
        ("run", "", ["--map", "{file}"], "--map"),
        ("replay", "", ["--detections", "{file}", "--out", "{out}"], "--detections"),
    ], ids=["config", "waypoints", "map-file", "map-flag", "detections"])
    def test_a_file_that_is_not_utf8_is_named_by_its_key_or_flag(self, tmp_path, capsys, case,
                                                                 command, config, args, named):
        valid = {"--config": "[trajectory]\nduration = 0.05\n",
                 "trajectory.waypoints": "0 0 1 0\n1 0 1.2 0.1\n2 1 1.4 0.2\n",
                 "map.file": serialize_map(build_pattern_map((0.94, 0.94))),
                 "--map": serialize_map(build_pattern_map((0.94, 0.94))),
                 "--detections": "0 0.0 5 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0\n"}[named]
        paths = {"file": tmp_path / "input.txt", "out": tmp_path / "out.csv"}
        data = self.BAD_UTF8[case](valid.encode("utf-8"))
        paths["file"].write_bytes(data)
        cfg = write_cfg(tmp_path, config.format(**paths))
        if named == "--config":
            Path(cfg).write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as decoding:
            data.decode("utf-8")
        assert main([command, "--config", cfg, *(a.format(**paths) for a in args)]) == 2
        assert capsys.readouterr() == ("", f"taglok: {named}: {decoding.value}\n")
        assert str(decoding.value).startswith("'utf-8' codec can't decode ")
        assert not paths["out"].exists()

    @pytest.mark.parametrize("config, message", [
        ("iqr_gain = 1\n",
         "File contains no section headers.\nfile: '{cfg}', line: 1\n'iqr_gain = 1\\n'"),
        ("[run]\nseed = 1\nseed = 2\n",
         "While reading from '{cfg}' [line  3]: option 'seed' in section 'run' already exists"),
    ], ids=["no-section", "duplicate-key"])
    def test_a_config_syntax_error_names_the_file(self, tmp_path, capsys, config, message):
        cfg = write_cfg(tmp_path, config)
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"taglok: {cfg}: {message.format(cfg=cfg)}\n"

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

    @pytest.mark.parametrize("key, printed", [
        # every position is a corrupt row, so no frame has an estimate
        ("position_sigma", "hover: no frame produced an estimate (10 dropped: no-tags 10)\n"),
        ("rotation_sigma", "hover: ep "),
    ], ids=["position_sigma", "rotation_sigma"])
    def test_largest_finite_noise_sigma_runs(self, tmp_path, capsys, key, printed):
        # 1.3e304 * (100 / 12) ** 2 * 12 (outlier scale) * 16 is about 1.7e308;
        # pytest.ini turns any RuntimeWarning into an error
        cfg = write_cfg(tmp_path, f"[noise]\n{key} = 1.3e304\nsize_exponent = 2\n"
                                  "[trajectory]\nz = 2.0\nduration = 0.5\n")
        assert main(["run", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith(printed)

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
        assert "taglok: --width: 0.5 m does not fit one 0.94 m tile" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        (["--height", "1e-300"], "--height: 1e-300 m does not fit one 0.94 m tile"),
        (["--width", "1e300"],
         "--width x --height: 1e+300 x 5.0 m holds so many tiles that tag ids would reach 2**63"),
        (["--width", "1.7e308"],
         "--width x --height: 1.7e+308 x 5.0 m holds so many tiles that tag ids would reach 2**63"),
        (["--height", "1.7976931348623157e308"],
         "--width x --height: 3.0 x 1.7976931348623157e+308 m holds so many tiles that tag ids "
         "would reach 2**63"),
        (["--width", "2000", "--height", "2000"],
         "--width x --height: 2000.0 x 2000.0 m holds 76910193 tags, more than the 2097152 a "
         "built map may hold"),
        # 351 x 352 tiles, the fewest past the cap
        (["--width", "330", "--height", "331"],
         "--width x --height: 330.0 x 331.0 m holds 2100384 tags, more than the 2097152 a "
         "built map may hold"),
    ], ids=["height-1e-300", "width-1e300", "width-1.7e308", "height-max-float", "2000-m-square",
            "just-past-the-tag-cap"])
    def test_out_of_range_extent_names_the_flag(self, tmp_path, capsys, args, named):
        out = tmp_path / "x.txt"
        assert main(["map-build", "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert f"taglok: {named}" in err and "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("config, args, named", [
        ("[trajectory]\nduration = 1e300\n\n[run]\nsample_rate = 1e300\n", [],
         "trajectory.duration"),
        ("[run]\nsample_rate = 1e-300\n", ["--frames", str(2**53)], "--frames"),
    ], ids=["config", "frames-flag"])
    def test_infinite_frame_count_names_the_sample_rate(self, tmp_path, capsys, config, args,
                                                        named):
        cfg = write_cfg(tmp_path, config)
        out = tmp_path / "ts.csv"
        assert main(["run", "--config", cfg, "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert "taglok: run.sample_rate: " in err and "Traceback" not in err
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize("config, args, printed", [
        ("[trajectory]\nx = 50\ny = 50\nduration = 0.5\n", [],
         "hover: no frame produced an estimate (10 dropped: no-tags 10)\n"),
        ("[trajectory]\nkind = t1\nx = 50\ny = 50\n", ["--frames", "3"],
         "t1: no frame produced an estimate (3 dropped: no-tags 3)\n"
         "  F: no frame produced an estimate (3 dropped: no-tags 3)\n"),
    ], ids=["hover", "t1-phase"])
    def test_a_run_without_estimates_says_so(self, tmp_path, capsys, config, args, printed):
        out, log = tmp_path / "ts.csv", tmp_path / "frames.jsonl"
        assert main(["run", "--config", write_cfg(tmp_path, config), "--out", str(out),
                     "--log", str(log), *args]) == 0
        assert capsys.readouterr().out == printed
        assert out.exists() and log.exists()

    def test_variant_override(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        assert main(["run", "--config", cfg, "--variant", "jbt-noor"]) == 0

    def test_bad_variant_is_runtime_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        assert main(["run", "--config", cfg, "--variant", "nope"]) == 2
        err = capsys.readouterr().err
        assert err == "taglok: --variant: unknown variant token 'nope' in 'nope'\n"

    def test_map_override(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        map_path = tmp_path / "m.txt"
        save_map(build_pattern_map((3.0, 5.0)), map_path)
        assert main(["run", "--config", cfg, "--map", str(map_path)]) == 0

    def test_map_flag_replaces_the_config_map_before_it_is_read(self, tmp_path, capsys,
                                                                 monkeypatch):
        map_path = tmp_path / "m.txt"
        save_map(build_pattern_map((3.0, 5.0)), map_path)
        missing = tmp_path / "missing.txt"
        cfg = write_cfg(tmp_path, QUICK + f"\n[map]\nfile = {missing}\n")
        assert main(["run", "--config", cfg, "--map", str(map_path)]) == 0

        def unwanted(*args):
            raise AssertionError("built the default map although --map replaces it")

        monkeypatch.setattr("taglok.cli.build_pattern_map", unwanted)
        assert main(["run", "--config", write_cfg(tmp_path, QUICK), "--map", str(map_path)]) == 0

    def test_far_map_tag_runs_like_the_map_without_it(self, tmp_path, capsys):
        # a tag far outside the map's extent could never be seen, so the map
        # reader rejects it and names its line instead of running without it
        cfg = write_cfg(tmp_path, QUICK)
        header, first, *rest = serialize_map(build_pattern_map((3.0, 5.0))).splitlines()
        far = first.split()
        far[2] = "1e308"
        map_path, out = tmp_path / "far.txt", tmp_path / "far.csv"
        map_path.write_text("\n".join([header, " ".join(far), *rest]) + "\n", encoding="utf-8")
        assert main(["run", "--config", cfg, "--map", str(map_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"taglok: {map_path}: line 2: tag at (1e+308, ")
        assert "lies more than 5.0 m outside the 3.0 x 5.0 m extent" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("line, named", [
        ("variants = jbt nan", "compare.variants: unknown variant token 'nan' in 'nan'"),
        ("scenarios = hover:1:2:1 nan",
         "compare.scenarios: unknown scenario 'nan' (use hover:X:Y:Z, t1, t2 or t3)"),
        ("scenarios = hover:1:2",
         "compare.scenarios: scenario 'hover:1:2': expected hover:X:Y:Z[:YAW]"),
    ], ids=["variant", "scenario", "hover-fields"])
    def test_a_bad_token_names_its_key(self, tmp_path, capsys, line, named):
        cfg = write_cfg(tmp_path, f"[compare]\n{line}\n")
        out = tmp_path / "r.csv"
        assert main(["compare", "--config", cfg, "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err == f"taglok: {named}\n"
        assert not out.exists()

    def test_cells_without_estimates_are_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[trajectory]\nduration = 0.15\n"
                                  "[compare]\nscenarios = hover:1e308:2:1\n")
        out = tmp_path / "g.csv"
        assert main(["compare", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        variants = ("jbt", "all-noor", "all-or", "tbs-noor", "tbs-or")
        assert capsys.readouterr().out == "".join(
            [f"wrote 5 rows (1 scenarios x 5 variants) to {out}\n"]
            + [f"hover:1e308:2:1 {v}: no frame produced an estimate "
               f"(3 dropped: no-tags 3)\n"
               for v in variants])

    @pytest.mark.parametrize("line, printed, cells", [
        ("scenarios =", "5 rows (1 scenarios x 5 variants)",
         [["hover", v] for v in ("jbt", "all-noor", "all-or", "tbs-noor", "tbs-or")]),
        ("variants =", "3 rows (3 scenarios x 1 variants)",
         [[f"hover:1.5:2.5:{z}", "base"] for z in ("0.8", "1.4", "2.0")]),
    ], ids=["no-scenarios", "no-variants"])
    def test_an_empty_list_is_counted_as_the_base_it_runs(self, tmp_path, capsys, line, printed,
                                                         cells):
        cfg = write_cfg(tmp_path, f"[trajectory]\nduration = 0.15\n[compare]\n{line}\n")
        out = tmp_path / "r.csv"
        assert main(["compare", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        assert capsys.readouterr().out == f"wrote {printed} to {out}\n"
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == cells

    def test_a_scenario_without_a_finite_frame_count_fails_before_the_work(self, tmp_path,
                                                                           capsys):
        cfg = write_cfg(tmp_path, "[trajectory]\nkind = t1\nduration = 1e308\n"
                                  "[compare]\nvariants = jbt\nscenarios = hover:1:2:1\n")
        out = tmp_path / "r.csv"
        assert main(["compare", "--config", cfg, "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr() == ("", "taglok: run.sample_rate: 20.0 Hz over a "
                                           "trajectory.duration of 1e+308 s gives no finite "
                                           "frame count\n")
        assert not out.exists()

    def test_a_cell_without_estimates_has_empty_error_fields(self, tmp_path):
        cfg = write_cfg(tmp_path, "[compare]\nvariants = jbt\nscenarios = hover:50:50:1\n")
        out = tmp_path / "r.csv"
        assert main(["compare", "--config", cfg, "--out", str(out), "--seed", "1"]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1] == "hover:50:50:1,jbt,,,,,0,200"


class TestDumpAndReplay:
    def test_round_trip_matches_direct_run(self, tmp_path):
        from taglok.camsim import parse_detection_stream
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

        lines = stream.read_text(encoding="utf-8").splitlines()
        replayed = run_experiment(cfg, parse_detection_stream(lines))
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

    def test_a_dump_without_detections_is_an_empty_file(self, tmp_path, capsys):
        # at 500 m the camera sees no tag, so no frame leaves a line
        cfg_path = write_cfg(tmp_path, "[trajectory]\nz = 500\n")
        stream = tmp_path / "stream.txt"
        assert main(["dump-detections", "--config", cfg_path, "--out", str(stream),
                     "--frames", "4"]) == 0
        assert "wrote 0 detections over 4 frames" in capsys.readouterr().out
        assert stream.read_bytes() == b""
        assert main(["replay", "--config", cfg_path, "--detections", str(stream),
                     "--out", str(tmp_path / "est.csv")]) == 0
        assert "replayed 0 frames" in capsys.readouterr().out

    def test_a_map_without_tags_drops_every_frame(self, tmp_path, capsys):
        # a header-only map: replay's one detection has an unknown id, and
        # run sees no tag at all
        (tmp_path / "map.txt").write_text("tagmap v1 3 5\n", encoding="utf-8")
        cfg_path = write_cfg(tmp_path, f"[map]\nfile = {tmp_path / 'map.txt'}\n\n"
                                       "[trajectory]\nduration = 0.2\n")
        stream, log = tmp_path / "stream.txt", tmp_path / "replay.jsonl"
        stream.write_text("0 0.0 5 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0\n", encoding="utf-8")
        assert main(["replay", "--config", cfg_path, "--detections", str(stream),
                     "--out", str(tmp_path / "est.csv"), "--log", str(log)]) == 0
        (record,) = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        assert record["pose_est"] is None
        assert record["trace"]["unknown_ids"] == [5] and record["trace"]["reason"] == "no-tags"
        run_log = tmp_path / "run.jsonl"
        assert main(["run", "--config", cfg_path, "--log", str(run_log)]) == 0
        records = [json.loads(line) for line in run_log.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 4
        assert all(r["pose_est"] is None and r["trace"]["reason"] == "no-tags" for r in records)
        assert "no frame produced an estimate (4 dropped: no-tags 4)" in capsys.readouterr().out

    def test_a_position_whose_square_overflows_is_a_corrupt_row(self, tmp_path):
        # px = 1e200 is finite, so the reader takes it; its squared norm
        # overflows, so the chain marks the row corrupt and fuses the rest
        cfg_path = write_cfg(tmp_path, QUICK)
        stream, log = tmp_path / "stream.txt", tmp_path / "replay.jsonl"
        assert main(["dump-detections", "--config", cfg_path, "--out", str(stream),
                     "--frames", "1"]) == 0
        lines = stream.read_text(encoding="utf-8").splitlines()
        tokens = lines[2].split()
        tokens[3] = "1e200"
        lines[2] = " ".join(tokens)
        stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["replay", "--config", cfg_path, "--detections", str(stream),
                     "--out", str(tmp_path / "est.csv"), "--log", str(log)]) == 0
        (record,) = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        trace = record["trace"]
        assert trace["corrupt_ids"] == [int(tokens[2])] and trace["unknown_ids"] == []
        assert trace["n_detections"] == len(lines) and trace["reason"] is None
        assert record["pose_est"] is not None and int(tokens[2]) not in trace["selected_ids"]
