"""Command-line front door: build maps, run experiments, emit comparison CSVs.

Commands: map-build, run, compare, dump-detections, replay. Configuration is
flat key-value text with one section per subsystem (map/camera/noise/
pipeline/trajectory/run/compare); unknown sections or keys are rejected and
every value is range-checked with the offending key named in the error.
Exit codes: 0 success, 1 usage error (nothing written), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .camsim import (
    CameraModel,
    NoiseModel,
    default_camera,
    format_detection_lines,
    read_detection_stream,
)
from .harness import (
    RunConfig,
    Trajectory,
    compare_matrix,
    format_compare_csv,
    format_timeseries_csv,
    hover_trajectory,
    load_waypoints,
    run,
    simulate,
    spline_trajectory_t3,
    square_trajectory_t1,
    steps_trajectory_t2,
    write_frames_jsonl,
)
from .pipeline import PipelineConfig, RotMeanMethod, ThsMode, WeightScheme, apply_variant
from .tagmap import (
    MapFormatError,
    build_pattern_map,
    load_map,
    parse_finite_float,
    save_map,
)


class ConfigError(ValueError):
    """Invalid configuration file content; message names the bad key."""


class UsageError(Exception):
    """Bad command line; maps to exit code 1 with nothing written."""


# --- settings schema -------------------------------------------------------

def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_tokens(raw: str) -> tuple[str, ...]:
    return tuple(raw.split())


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        lowered = raw.strip().lower()
        if lowered not in options:
            raise ValueError(f"must be one of {'/'.join(options)}")
        return lowered

    return parse


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], object]
    default: object
    check: Callable[[object], bool] | None = None
    why: str = ""


_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_PROBABILITY = (lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")

_SCHEMA: dict[str, dict[str, _Key]] = {
    "map": {
        "file": _Key(str, ""),
        "width": _Key(parse_finite_float, 3.0, *_POSITIVE),
        "height": _Key(parse_finite_float, 5.0, *_POSITIVE),
    },
    "camera": {
        "focal_px": _Key(parse_finite_float, 600.0, *_POSITIVE),
        "image_width": _Key(int, 1280, *_POSITIVE),
        "image_height": _Key(int, 720, *_POSITIVE),
        "detect_threshold_px": _Key(parse_finite_float, 12.0, *_POSITIVE),
        "mount_x": _Key(parse_finite_float, 0.0),
        "mount_y": _Key(parse_finite_float, 0.0),
        "mount_z": _Key(parse_finite_float, 0.0),
    },
    "noise": {
        "position_sigma": _Key(parse_finite_float, 0.01, *_NON_NEGATIVE),
        "rotation_sigma": _Key(parse_finite_float, 0.02, *_NON_NEGATIVE),
        "reference_apparent": _Key(parse_finite_float, 100.0, *_POSITIVE),
        "size_exponent": _Key(parse_finite_float, 1.0),
        "outlier_probability": _Key(parse_finite_float, 0.05, *_PROBABILITY),
        "outlier_position_scale": _Key(parse_finite_float, 12.0, *_POSITIVE),
        "outlier_rotation_scale": _Key(parse_finite_float, 8.0, *_POSITIVE),
    },
    "pipeline": {
        "ths": _Key(_choice("jbt", "all", "tbs"), "tbs"),
        "outlier_removal": _Key(_parse_bool, True),
        "iqr_gain": _Key(parse_finite_float, 1.5, *_POSITIVE),
        "weights": _Key(_choice("w1", "w2", "uniform"), "w2"),
        "rot_mean": _Key(_choice("ql2", "cl2"), "ql2"),
        "fir_length": _Key(int, 5, lambda v: v >= 1, "must be at least 1"),
    },
    "trajectory": {
        "kind": _Key(_choice("hover", "t1", "t2", "t3"), "hover"),
        "x": _Key(parse_finite_float, 1.5),
        "y": _Key(parse_finite_float, 2.5),
        "z": _Key(parse_finite_float, 0.8, *_POSITIVE),
        "yaw": _Key(parse_finite_float, 0.0),
        "duration": _Key(parse_finite_float, 10.0, *_POSITIVE),
        "waypoints": _Key(str, ""),
    },
    "run": {
        "sample_rate": _Key(parse_finite_float, 20.0, *_POSITIVE),
        "seed": _Key(int, 0, *_NON_NEGATIVE),
    },
    "compare": {
        "variants": _Key(_parse_tokens, ("jbt", "all-noor", "all-or", "tbs-noor", "tbs-or")),
        "scenarios": _Key(_parse_tokens,
                          ("hover:1.5:2.5:0.8", "hover:1.5:2.5:1.4", "hover:1.5:2.5:2.0")),
    },
}


class Settings:
    """Validated flat configuration; `provided` records keys the file set."""

    def __init__(self, values: dict[str, dict[str, object]], provided: frozenset[str]):
        self.values = values
        self.provided = provided

    def get(self, section: str, key: str):
        return self.values[section][key]

    def was_provided(self, section: str, key: str) -> bool:
        return f"{section}.{key}" in self.provided


def default_settings() -> Settings:
    values = {s: {k: spec.default for k, spec in keys.items()} for s, keys in _SCHEMA.items()}
    return Settings(values, frozenset())


def load_settings(path: str | Path) -> Settings:
    # values are literal (a '%' is no interpolation) and [DEFAULT] is an
    # ordinary, hence unknown, section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None,
                                       default_section="")
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    settings = default_settings()
    provided = set()
    for section in parser.sections():
        if section not in _SCHEMA:
            known = ", ".join(_SCHEMA)
            raise ConfigError(f"unknown section [{section}] (known: {known})")
        for key, raw in parser.items(section):
            spec = _SCHEMA[section].get(key)
            if spec is None:
                known = ", ".join(_SCHEMA[section])
                raise ConfigError(f"unknown key {section}.{key} (known: {known})")
            try:
                value = spec.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from None
            if spec.check is not None and not spec.check(value):
                raise ConfigError(f"{section}.{key}: {spec.why} (got {raw})")
            settings.values[section][key] = value
            provided.add(f"{section}.{key}")
    settings.provided = frozenset(provided)
    return settings


# --- settings -> objects ---------------------------------------------------

def _build_trajectory(settings: Settings) -> Trajectory:
    kind = settings.get("trajectory", "kind")
    x, y = settings.get("trajectory", "x"), settings.get("trajectory", "y")
    z = settings.get("trajectory", "z")
    yaw = settings.get("trajectory", "yaw")
    if kind == "hover":
        return hover_trajectory((x, y, z), yaw, settings.get("trajectory", "duration"))
    if kind == "t1":
        return square_trajectory_t1(center=(x, y), altitude=z, yaw=yaw)
    if kind == "t2":
        return steps_trajectory_t2(xy=(x, y), yaw=yaw)
    waypoint_file = settings.get("trajectory", "waypoints")
    if not waypoint_file:
        return spline_trajectory_t3()
    waypoints = load_waypoints(waypoint_file)  # its errors name the file
    try:
        return spline_trajectory_t3(waypoints)
    except ValueError as exc:
        raise ConfigError(f"{waypoint_file}: {exc}") from None


def _build_tag_map(settings: Settings):
    map_file = settings.get("map", "file")
    if map_file:
        return load_map(map_file)
    return build_pattern_map((settings.get("map", "width"), settings.get("map", "height")))


def _check_noise_scale(camera: CameraModel, noise: NoiseModel) -> None:
    """The noise scale (reference / apparent) ** size_exponent must be a
    float at every apparent size the camera reports, from the detectability
    threshold up to the image diagonal; it is monotone in the apparent size,
    so the two ends decide."""
    for apparent in (camera.detect_threshold_px, math.hypot(*camera.image_size)):
        try:
            (noise.reference_apparent_size / apparent) ** noise.size_exponent
        except OverflowError:
            raise ConfigError(f"noise.size_exponent: the noise scale overflows at an apparent "
                              f"size of {apparent:g} px (got {noise.size_exponent!r})") from None


def build_run_config(settings: Settings) -> RunConfig:
    mount = np.array([settings.get("camera", "mount_x"),
                      settings.get("camera", "mount_y"),
                      settings.get("camera", "mount_z")])
    camera = default_camera(
        focal_px=settings.get("camera", "focal_px"),
        image_size=(settings.get("camera", "image_width"),
                    settings.get("camera", "image_height")),
        mount_offset=mount,
        detect_threshold_px=settings.get("camera", "detect_threshold_px"),
    )
    noise = NoiseModel(
        position_sigma_at_ref=settings.get("noise", "position_sigma"),
        rotation_sigma_at_ref=settings.get("noise", "rotation_sigma"),
        reference_apparent_size=settings.get("noise", "reference_apparent"),
        size_exponent=settings.get("noise", "size_exponent"),
        outlier_probability=settings.get("noise", "outlier_probability"),
        outlier_position_scale=settings.get("noise", "outlier_position_scale"),
        outlier_rotation_scale=settings.get("noise", "outlier_rotation_scale"),
        seed=settings.get("run", "seed"),
    )
    _check_noise_scale(camera, noise)
    pipeline = PipelineConfig(
        ths=ThsMode(settings.get("pipeline", "ths")),
        outlier_removal=settings.get("pipeline", "outlier_removal"),
        iqr_gain=settings.get("pipeline", "iqr_gain"),
        weights=WeightScheme(settings.get("pipeline", "weights")),
        rot_mean=RotMeanMethod(settings.get("pipeline", "rot_mean")),
        fir_length=settings.get("pipeline", "fir_length"),
    )
    return RunConfig(
        trajectory=_build_trajectory(settings),
        tag_map=_build_tag_map(settings),
        camera=camera,
        noise=noise,
        pipeline=pipeline,
        sample_rate=settings.get("run", "sample_rate"),
    )


def load_run_config(path: str | Path) -> RunConfig:
    """Fully validated RunConfig from a config file; the defaults reproduce
    the proposed method configuration (TBS-OR, W2 weights, QL2 mean)."""
    return build_run_config(load_settings(path))


def parse_scenario(token: str, settings: Settings) -> tuple[str, Trajectory]:
    if token == "t1":
        return token, square_trajectory_t1()
    if token == "t2":
        return token, steps_trajectory_t2()
    if token == "t3":
        return token, spline_trajectory_t3()
    if token.startswith("hover:"):
        parts = token.split(":")[1:]
        if len(parts) not in (3, 4):
            raise ConfigError(f"scenario {token!r}: expected hover:X:Y:Z[:YAW]")
        try:
            numbers = [parse_finite_float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"scenario {token!r}: {exc}") from None
        yaw = numbers[3] if len(numbers) == 4 else 0.0
        duration = settings.get("trajectory", "duration")
        return token, hover_trajectory(numbers[:3], yaw, duration)
    raise ConfigError(f"unknown scenario {token!r} (use hover:X:Y:Z, t1, t2 or t3)")


# --- commands ---------------------------------------------------------------

def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "map", None):
        cfg = replace(cfg, tag_map=load_map(args.map))
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative (got {args.seed})")
        cfg = replace(cfg, noise=replace(cfg.noise, seed=args.seed))
    if getattr(args, "variant", None):
        cfg = replace(cfg, pipeline=apply_variant(cfg.pipeline, args.variant))
    if getattr(args, "frames", None) is not None:
        if args.frames < 1:
            raise UsageError("--frames must be at least 1")
        cfg = replace(cfg, trajectory=replace(cfg.trajectory,
                                              duration=args.frames / cfg.sample_rate))
    return cfg


def cmd_map_build(args: argparse.Namespace) -> int:
    for flag, value in (("--width", args.width), ("--height", args.height)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be a finite number (got {value!r})")
    tag_map = build_pattern_map((args.width, args.height))
    save_map(tag_map, args.out)
    print(f"wrote {len(tag_map)} tags to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    result = run(cfg)
    s = result.stats
    print(
        f"{cfg.trajectory.label}: ep {s.ep_mnv_cm:.3f} +/- {s.ep_std_cm:.3f} cm, "
        f"eo {s.eo_mnv_deg:.3f} +/- {s.eo_std_deg:.3f} deg "
        f"({s.frames} frames, {s.dropped} dropped)"
    )
    for phase, stats in result.phase_stats.items():
        print(f"  {phase}: ep {stats.ep_mnv_cm:.3f} +/- {stats.ep_std_cm:.3f} cm, "
              f"eo {stats.eo_mnv_deg:.3f} +/- {stats.eo_std_deg:.3f} deg")
    if args.out:
        Path(args.out).write_text(format_timeseries_csv(result.frames), encoding="utf-8")
    if args.log:
        write_frames_jsonl(result.frames, args.log)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    settings = load_settings(args.config)
    if args.seed is None and not settings.was_provided("run", "seed"):
        raise UsageError("compare requires an explicit seed (--seed or [run] seed)")
    cfg = _apply_overrides(build_run_config(settings), args)
    scenarios = [parse_scenario(token, settings)
                 for token in settings.get("compare", "scenarios")]
    variants = list(settings.get("compare", "variants"))
    rows = compare_matrix(cfg, variants, scenarios)
    Path(args.out).write_text(format_compare_csv(rows), encoding="utf-8")
    print(f"wrote {len(rows)} rows ({len(scenarios)} scenarios x "
          f"{max(len(variants), 1)} variants) to {args.out}")
    return 0


def cmd_dump_detections(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    lines: list[str] = []
    n_frames = 0
    for n_frames, frame in enumerate(simulate(cfg), 1):
        lines += format_detection_lines(frame.index, frame.t, frame.detections)
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} detections over {n_frames} frames to {args.out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_run_config(args.config), args)
    records = run(cfg, read_detection_stream(args.detections)).frames
    out_lines = ["frame,t,px,py,pz,qw,qx,qy,qz,tags_used"]
    for record in records:
        output = record.output
        if output.pose is None:
            out_lines.append(f"{record.frame},{record.t:.6f},,,,,,,,0")
        else:
            p = output.pose.position
            q = output.pose.orientation
            out_lines.append(
                f"{record.frame},{record.t:.6f},{p[0]:.9f},{p[1]:.9f},{p[2]:.9f},"
                f"{q.w:.9f},{q.x:.9f},{q.y:.9f},{q.z:.9f},{len(output.tags_used)}"
            )
    Path(args.out).write_text("\n".join(out_lines) + "\n", encoding="utf-8")
    print(f"replayed {len(records)} frames to {args.out}")
    return 0


# --- argument parsing --------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="taglok",
                             description="tag-map visual localization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map-build", help="generate a pattern map file")
    p.add_argument("--out", required=True, help="output map path")
    p.add_argument("--width", type=float, default=3.0, help="map width [m]")
    p.add_argument("--height", type=float, default=5.0, help="map height [m]")
    p.set_defaults(func=cmd_map_build)

    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--out", help="time-series CSV output (t,ep_cm,eo_deg,tags_used)")
    p.add_argument("--log", help="per-frame JSON-lines output")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--variant", help="pipeline override tokens, e.g. tbs-or-w2-ql2")
    p.add_argument("--map", help="override the map file")
    p.add_argument("--frames", type=int, help="run exactly N frames")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run the scenario x variant matrix")
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--seed", type=int, help="seed (mandatory here unless in the config)")
    p.add_argument("--map", help="override the map file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dump-detections", help="write the simulated detection stream")
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--out", required=True, help="detection stream path")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--map", help="override the map file")
    p.add_argument("--frames", type=int, help="dump exactly N frames")
    p.set_defaults(func=cmd_dump_detections)

    p = sub.add_parser("replay", help="re-run the pipeline over a dumped stream")
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--detections", required=True, help="detection stream path")
    p.add_argument("--out", required=True, help="per-frame estimate CSV path")
    p.add_argument("--variant", help="pipeline override tokens")
    p.add_argument("--map", help="override the map file")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"taglok: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if not exc.code else int(exc.code)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"taglok: error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, MapFormatError, OSError, ValueError) as exc:
        print(f"taglok: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
