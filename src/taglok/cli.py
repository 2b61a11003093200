"""Command-line front door: build maps, run experiments, emit comparison CSVs.

Commands: map-build, run, compare, dump-detections, replay. Configuration is
flat key-value text with one section per subsystem (map/camera/noise/
pipeline/trajectory/run/compare). Unknown sections or keys are rejected; each
value is checked at load under the rule of the library field it sets
(`CameraModel.RULES` and the like), so that the error names its key.
Exit codes: 0 success, 1 usage error (nothing written), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import codecs
import configparser
import io
import json
import math
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .camsim import (
    CameraModel,
    NoiseModel,
    default_camera,
    format_detection_lines,
    parse_detection_stream,
)
from .harness import (
    HOVER_RULES,
    ErrorStats,
    RunConfig,
    Trajectory,
    compare_matrix,
    format_compare_csv,
    format_estimate_csv,
    format_timeseries_csv,
    frame_to_json,
    hover_trajectory,
    parse_waypoints,
    run,
    simulate,
    spline_trajectory_t3,
    square_trajectory_t1,
    steps_trajectory_t2,
)
from .pipeline import PipelineConfig, RotMeanMethod, ThsMode, WeightScheme, apply_variant
from .tagmap import (FINITE, POSITIVE, Rule, build_pattern_map, check_fields, parse_finite_float,
                     parse_map, serialize_map)


class ConfigError(ValueError):
    """Invalid configuration file content; message names the bad key."""


class UsageError(Exception):
    """Bad command line; maps to exit code 1 with nothing written."""


@contextmanager
def _named(name: str, *errors: type[Exception]):
    """Re-raise any of `errors` as a ConfigError that names the key, flag,
    token or file `name` of the input it came from (exit 2)."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _read(name: str, path: str, parse: Callable[[str], object]):
    """parse(text) of the UTF-8 file `path`: a file that cannot be opened or is
    not UTF-8 is named by the key or flag `name`, an error in its text by `path`."""
    with _named(name, OSError, UnicodeDecodeError):
        text = Path(path).read_text(encoding="utf-8")
    with _named(path, ValueError):
        return parse(text)


# characters (and, in the UTF-8 check, bytes) a stream file is decoded in at
# a time; at least 4, the longest UTF-8 sequence
_PIECE = 1 << 16


def _utf8_checked(data: bytes) -> bytes:
    """`data`, once it has decoded as UTF-8 a piece at a time; else the error
    `data.decode("utf-8")` raises, at the same absolute position."""
    view, start = memoryview(data), 0
    while start < len(data):
        end = start + _PIECE
        try:  # a sequence cut at the piece's end is decoded with the next piece
            start += codecs.utf_8_decode(view[start:end], "strict", end >= len(data))[1]
        except UnicodeDecodeError as exc:
            raise UnicodeDecodeError("utf-8", data, start + exc.start, start + exc.end,
                                     exc.reason) from None
    return data


def _lines_of(data: bytes) -> Iterator[list[str]]:
    """The lines `read_text(encoding="utf-8").splitlines()` gives of the
    UTF-8 bytes `data`, decoded a piece at a time, as one list per piece.
    With universal newlines no "\r" is left, so a cut after a piece's last
    "\n" splits no line break; the text after it waits for the next piece,
    in a list, so a line longer than a piece is joined once."""
    text, tail = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), []
    while piece := text.read(_PIECE):
        cut = piece.rfind("\n") + 1
        if cut:
            tail.append(piece[:cut])
            yield "".join(tail).splitlines()
            tail = [piece[cut:]]
        else:
            tail.append(piece)
    yield "".join(tail).splitlines()


def _read_lines(name: str, path: str, parse: Callable[[Iterable[str]], object]):
    """parse(lines) of the UTF-8 file `path`, read once (so a pipe works) and
    checked to decode whole before its lines are fed to `parse` a piece at a
    time; the errors are named as `_read` names them. Only the lines hold the
    file's bytes, so they are freed once `parse` has read its last line."""
    with _named(name, OSError, UnicodeDecodeError):
        lines = chain.from_iterable(_lines_of(_utf8_checked(Path(path).read_bytes())))
    with _named(path, ValueError):
        return parse(lines)


@contextmanager
def _outputs(args: argparse.Namespace, *flags: str):
    """Open the files of the output `flags` the command line gives, after
    the inputs and before the work, and yield `write(flag, texts)`; an
    OSError names its flag. A file two flags name takes the later's texts."""
    with ExitStack() as stack:
        opened: dict[str, TextIO] = {}
        for flag in flags:
            if (path := getattr(args, flag[2:])) is not None:
                with _named(flag, OSError):
                    opened[flag] = stack.enter_context(Path(path).open("w", encoding="utf-8"))
        writers = {os.fstat(h.fileno())[1:3]: f for f, h in opened.items()}  # file id: last flag

        def write(flag: str, texts: Iterable[str]) -> None:
            if flag in writers.values():
                with _named(flag, OSError):
                    opened[flag].writelines(texts)
                    opened[flag].flush()

        yield write


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
    rule: Rule | None = None  # the rule of the field the key sets


_CAMERA, _NOISE, _PIPELINE = CameraModel.RULES, NoiseModel.RULES, PipelineConfig.RULES
_SCHEMA: dict[str, dict[str, _Key]] = {
    "map": {
        "file": _Key(str, ""),
        "width": _Key(parse_finite_float, 3.0, POSITIVE),
        "height": _Key(parse_finite_float, 5.0, POSITIVE),
    },
    "camera": {
        "focal_px": _Key(parse_finite_float, 600.0, _CAMERA["focal_px"]),
        "image_width": _Key(int, 1280, _CAMERA["image_size"]),
        "image_height": _Key(int, 720, _CAMERA["image_size"]),
        "detect_threshold_px": _Key(parse_finite_float, 12.0, _CAMERA["detect_threshold_px"]),
        "mount_x": _Key(parse_finite_float, 0.0),
        "mount_y": _Key(parse_finite_float, 0.0),
        "mount_z": _Key(parse_finite_float, 0.0),
    },
    "noise": {
        "position_sigma": _Key(parse_finite_float, 0.01, _NOISE["position_sigma_at_ref"]),
        "rotation_sigma": _Key(parse_finite_float, 0.02, _NOISE["rotation_sigma_at_ref"]),
        "reference_apparent": _Key(parse_finite_float, 100.0, _NOISE["reference_apparent_size"]),
        "size_exponent": _Key(parse_finite_float, 1.0, _NOISE["size_exponent"]),
        "outlier_probability": _Key(parse_finite_float, 0.05, _NOISE["outlier_probability"]),
        "outlier_position_scale": _Key(parse_finite_float, 12.0, _NOISE["outlier_position_scale"]),
        "outlier_rotation_scale": _Key(parse_finite_float, 8.0, _NOISE["outlier_rotation_scale"]),
    },
    "pipeline": {
        "ths": _Key(_choice("jbt", "all", "tbs"), "tbs"),
        "outlier_removal": _Key(_parse_bool, True),
        "iqr_gain": _Key(parse_finite_float, 1.5, _PIPELINE["iqr_gain"]),
        "weights": _Key(_choice("w1", "w2", "uniform"), "w2"),
        "rot_mean": _Key(_choice("ql2", "cl2"), "ql2"),
        "fir_length": _Key(int, 5, _PIPELINE["fir_length"]),
    },
    "trajectory": {
        "kind": _Key(_choice("hover", "t1", "t2", "t3"), "hover"),
        "x": _Key(parse_finite_float, 1.5, HOVER_RULES["x"]),
        "y": _Key(parse_finite_float, 2.5, HOVER_RULES["y"]),
        "z": _Key(parse_finite_float, 0.8, HOVER_RULES["z"]),
        "yaw": _Key(parse_finite_float, 0.0, HOVER_RULES["yaw"]),
        "duration": _Key(parse_finite_float, 10.0, HOVER_RULES["duration"]),
        "waypoints": _Key(str, ""),
    },
    "run": {
        "sample_rate": _Key(parse_finite_float, 20.0, RunConfig.RULES["sample_rate"]),
        "seed": _Key(int, 0, _NOISE["seed"]),
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
    with _named(str(path), configparser.Error):
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
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
            with _named(f"{section}.{key}", ValueError):
                value = spec.parse(raw)
            if spec.rule is not None and not spec.rule.holds(value):
                raise ConfigError(f"{section}.{key}: {spec.rule.why} (got {raw})")
            settings.values[section][key] = value
            provided.add(f"{section}.{key}")
    settings.provided = frozenset(provided)
    return settings


# --- settings -> objects ---------------------------------------------------

def _build_trajectory(settings: Settings) -> Trajectory:
    values = settings.values["trajectory"]
    kind, x, y, z, yaw = (values[key] for key in ("kind", "x", "y", "z", "yaw"))
    if kind == "hover":
        return hover_trajectory((x, y, z), yaw, values["duration"])
    if kind == "t1":
        return square_trajectory_t1(center=(x, y), altitude=z, yaw=yaw)
    if kind == "t2":
        return steps_trajectory_t2(xy=(x, y), yaw=yaw)
    if not values["waypoints"]:
        return spline_trajectory_t3()
    return _read("trajectory.waypoints", values["waypoints"],
                 lambda text: spline_trajectory_t3(parse_waypoints(text)))


def build_run_config(settings: Settings, map_file_name: str = "map.file") -> RunConfig:
    """The run config of `settings`; errors name [map] file `map_file_name`."""
    cam, noise, pipe = (settings.values[section] for section in ("camera", "noise", "pipeline"))
    map_file = settings.get("map", "file")
    return RunConfig(
        trajectory=_build_trajectory(settings),
        tag_map=(_read(map_file_name, map_file, parse_map) if map_file else
                 build_pattern_map((settings.get("map", "width"), settings.get("map", "height")),
                                   ("map.width", "map.height"))),
        camera=default_camera(cam["focal_px"], (cam["image_width"], cam["image_height"]),
                              np.array([cam[f"mount_{axis}"] for axis in "xyz"]),
                              cam["detect_threshold_px"]),
        noise=NoiseModel(noise["position_sigma"], noise["rotation_sigma"],
                         noise["reference_apparent"], noise["size_exponent"],
                         noise["outlier_probability"], noise["outlier_position_scale"],
                         noise["outlier_rotation_scale"], settings.get("run", "seed")),
        pipeline=PipelineConfig(ThsMode(pipe["ths"]), pipe["outlier_removal"], pipe["iqr_gain"],
                                WeightScheme(pipe["weights"]), RotMeanMethod(pipe["rot_mean"]),
                                pipe["fir_length"]),
        sample_rate=settings.get("run", "sample_rate"),
    )


def load_run_config(path: str | Path) -> RunConfig:
    """Fully validated RunConfig from a config file; the defaults reproduce
    the proposed method configuration (TBS-OR, W2 weights, QL2 mean)."""
    return build_run_config(load_settings(path))


def _load_config(args: argparse.Namespace) -> Settings:
    """load_settings of --config, which names a file that cannot be opened or is not UTF-8."""
    with _named("--config", OSError, UnicodeDecodeError):
        return load_settings(args.config)


def parse_scenario(token: str, settings: Settings) -> tuple[str, Trajectory]:
    named = {"t1": square_trajectory_t1, "t2": steps_trajectory_t2, "t3": spline_trajectory_t3}
    if token in named:
        return token, named[token]()
    if token.startswith("hover:"):
        parts = token.split(":")[1:]
        if len(parts) not in (3, 4):
            raise ConfigError(f"scenario {token!r}: expected hover:X:Y:Z[:YAW]")
        with _named(f"scenario {token!r}", ValueError):
            x, y, z, yaw = [parse_finite_float(p) for p in parts] + [0.0] * (4 - len(parts))
            return token, hover_trajectory((x, y, z), yaw, settings.get("trajectory", "duration"))
    raise ConfigError(f"unknown scenario {token!r} (use hover:X:Y:Z, t1, t2 or t3)")


# --- commands ---------------------------------------------------------------

def _configure(settings: Settings, args: argparse.Namespace) -> RunConfig:
    """The run config of `settings` under the command line: --map and --seed
    replace [map] file and [run] seed before anything is built, --variant
    and --frames then adjust the built config."""
    if getattr(args, "map", None):
        settings.values["map"]["file"] = args.map
    if getattr(args, "seed", None) is not None:
        if not _NOISE["seed"].holds(args.seed):
            raise ValueError(f"--seed {_NOISE['seed'].why} (got {args.seed})")
        settings.values["run"]["seed"] = args.seed
    cfg = build_run_config(settings, "--map" if getattr(args, "map", None) else "map.file")
    if getattr(args, "variant", None):
        with _named("--variant", ValueError):
            cfg = replace(cfg, pipeline=apply_variant(cfg.pipeline, args.variant))
    if getattr(args, "frames", None) is not None:
        if args.frames < 1:
            raise UsageError("--frames must be at least 1")
        if args.frames > 2**53:  # beyond it a frame count has no exact float duration
            raise UsageError("--frames must be at most 2**53")
        duration = args.frames / cfg.sample_rate
        if not math.isfinite(duration):
            raise ValueError(f"run.sample_rate: {cfg.sample_rate!r} Hz over --frames "
                             f"{args.frames} gives no finite trajectory duration")
        cfg = replace(cfg, trajectory=replace(cfg.trajectory, duration=duration))
    return cfg


def _error_text(stats: ErrorStats) -> str:
    """The error statistics, or, when no frame produced an estimate, that
    and the dropped count per reason."""
    if stats.frames:
        return (f"ep {stats.ep_mnv_cm:.3f} +/- {stats.ep_std_cm:.3f} cm, "
                f"eo {stats.eo_mnv_deg:.3f} +/- {stats.eo_std_deg:.3f} deg")
    return (f"no frame produced an estimate ({stats.dropped} dropped: "
            + ", ".join(f"{reason} {n}" for reason, n in stats.drop_reasons) + ")")


def cmd_map_build(args: argparse.Namespace) -> int:
    extent = {"--width": args.width, "--height": args.height}
    check_fields(dict.fromkeys(extent, FINITE), extent)
    tag_map = build_pattern_map(tuple(extent.values()), tuple(extent))
    with _outputs(args, "--out") as write:
        write("--out", [serialize_map(tag_map)])
    print(f"wrote {len(tag_map)} tags to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _configure(_load_config(args), args)
    with _outputs(args, "--out", "--log") as write:
        result = run(cfg)
        s = result.stats
        counts = f" ({s.frames} frames, {s.dropped} dropped)" if s.frames else ""
        print(f"{cfg.trajectory.label}: {_error_text(s)}{counts}")
        for phase, stats in result.phase_stats.items():
            print(f"  {phase}: {_error_text(stats)}")
        write("--out", [format_timeseries_csv(result.frames)])
        write("--log", (json.dumps(frame_to_json(r)) + "\n" for r in result.frames))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    settings = _load_config(args)
    if args.seed is None and not settings.was_provided("run", "seed"):
        raise UsageError("compare requires an explicit seed (--seed or [run] seed)")
    cfg = _configure(settings, args)
    with _named("compare.scenarios", ValueError):
        scenarios = [parse_scenario(token, settings)
                     for token in settings.get("compare", "scenarios")]
    variants = list(settings.get("compare", "variants"))
    with _named("compare.variants", ValueError):  # compare_matrix applies them too
        for variant in variants:
            apply_variant(cfg.pipeline, variant)
    for _, trajectory in scenarios:  # each scenario's frame count must be finite
        replace(cfg, trajectory=trajectory)
    with _outputs(args, "--out") as write:
        rows = compare_matrix(cfg, variants, scenarios)
        write("--out", [format_compare_csv(rows)])
    # compare_matrix runs the base scenario or variant for an empty list
    print(f"wrote {len(rows)} rows ({len(scenarios) or 1} scenarios x "
          f"{len(variants) or 1} variants) to {args.out}")
    for row in rows:
        if not row.stats.frames:
            print(f"{row.scenario} {row.variant}: {_error_text(row.stats)}")
    return 0


def cmd_dump_detections(args: argparse.Namespace) -> int:
    cfg = _configure(_load_config(args), args)
    n_lines = n_frames = 0
    with _outputs(args, "--out") as write:
        for n_frames, frame in enumerate(simulate(cfg), 1):
            lines = format_detection_lines(frame.index, frame.t, frame.detections)
            write("--out", (line + "\n" for line in lines))
            n_lines += len(lines)
    print(f"wrote {n_lines} detections over {n_frames} frames to {args.out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    cfg = _configure(_load_config(args), args)
    frames = _read_lines("--detections", args.detections, parse_detection_stream)
    with _outputs(args, "--out", "--log") as write:
        records = run(cfg, frames).frames
        write("--out", [format_estimate_csv(records)])
        write("--log", (json.dumps(frame_to_json(r)) + "\n" for r in records))
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
    p.add_argument("--log", help="per-frame JSON-lines output, as run --log writes it "
                                 "without ground truth")
    p.add_argument("--variant", help="pipeline override tokens")
    p.add_argument("--map", help="override the map file")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return 0 if not exc.code else int(exc.code)
    except UsageError as exc:
        print(f"taglok: error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # ConfigError and MapFormatError among them
        print(f"taglok: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
