"""Experiment harness: ground-truth trajectories, run executor, statistics.

Trajectories produce (position, yaw) samples; `simulate` turns them into
frames of camera detections with exact ground truth (the motion capture
reference role), and `run`, the one frame loop, steps the pipeline over
frames and accumulates position errors [cm] and orientation errors [deg];
it recovers the body pose of every detection of its frames in one pass of
the frame chain (`body_poses_of`) and hands each frame's `step` its rows.
compare_matrix simulates each scenario once and runs every method variant
on those frames and that one frame chain: the detection stream depends
only on (seed, frame, tag), and the chain only on the map and the camera
mount, so every variant sees identical input.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .camsim import CameraModel, DetectionRows, Frame, NoiseModel, detect
from .geometry import Pose, quat_from_yaw, quat_rotation_angle, wrap_angle
from .pipeline import (
    EstimateOutput,
    PipelineConfig,
    TagEstimates,
    apply_variant,
    estimate_body_pose_per_tag,
    step,
)
from .tagmap import TagMap, parse_finite_float

HOVER_ALTITUDE_PRESETS = (0.8, 1.4, 2.0)

# over an L tag of the default 3 x 5 m pattern map, near its center
DEFAULT_T2_XY = (1.765, 2.705)

DEFAULT_T3_WAYPOINTS = (
    ((0.7, 0.9, 0.8), math.radians(0.0)),
    ((2.1, 1.3, 1.1), math.radians(45.0)),
    ((2.3, 2.6, 1.5), math.radians(90.0)),
    ((1.9, 3.9, 2.0), math.radians(160.0)),
    ((1.0, 4.1, 1.7), math.radians(200.0)),
    ((0.6, 3.0, 1.3), math.radians(270.0)),
    ((1.0, 1.8, 0.9), math.radians(315.0)),
    ((1.5, 1.0, 0.6), math.radians(360.0)),
)


@dataclass(frozen=True)
class Trajectory:
    """Ground-truth motion: t -> (position [m], yaw [rad]), optional phase labels."""

    label: str
    duration: float
    sampler: Callable[[float], tuple[np.ndarray, float]]
    phase_of: Callable[[float], str] | None = None

    def sample(self, t: float) -> tuple[np.ndarray, float]:
        return self.sampler(t)

    def phase(self, t: float) -> str | None:
        return self.phase_of(t) if self.phase_of is not None else None


def hover_trajectory(position: Sequence[float], yaw: float = 0.0,
                     duration: float = 10.0) -> Trajectory:
    fixed = np.array(position, dtype=float)

    def sampler(t: float):
        return fixed, yaw

    return Trajectory("hover", duration, sampler)


def square_trajectory_t1(center: Sequence[float] = (1.5, 2.5), side: float = 1.8,
                         altitude: float = 0.8, speed: float = 0.25,
                         yaw: float = 0.0) -> Trajectory:
    """Closed square at constant altitude, constant speed, phases F/R/B/L.

    F runs along -y, R along -x, B along +y, L along +x, starting from the
    (+x, +y) corner so the loop closes where it began.
    """
    cx, cy = float(center[0]), float(center[1])
    half = side / 2.0
    perimeter = 4.0 * side
    duration = perimeter / speed
    phases = ("F", "R", "B", "L")

    def leg_and_offset(t: float) -> tuple[int, float]:
        s = min(max(t, 0.0), duration) * speed
        leg = min(int(s / side), 3)
        return leg, s - leg * side

    def sampler(t: float):
        leg, u = leg_and_offset(t)
        if leg == 0:
            pos = (cx + half, cy + half - u)
        elif leg == 1:
            pos = (cx + half - u, cy - half)
        elif leg == 2:
            pos = (cx - half, cy - half + u)
        else:
            pos = (cx - half + u, cy + half)
        return np.array([pos[0], pos[1], altitude]), yaw

    def phase_of(t: float) -> str:
        return phases[leg_and_offset(t)[0]]

    return Trajectory("t1", duration, sampler, phase_of)


def steps_trajectory_t2(xy: Sequence[float] = DEFAULT_T2_XY,
                        base_altitude: float = 0.7, amplitude: float = 0.3,
                        n_steps: int = 3, hold: float = 4.0, transit: float = 0.6,
                        yaw: float = 0.0) -> Trajectory:
    """Vertical staircase over a fixed ground position: hold at the base
    (S0), climb n steps (A1..An), descend them again (D1..Dn). Altitude is
    piecewise constant with finite-rate linear transitions."""
    x, y = float(xy[0]), float(xy[1])
    segment = transit + hold
    duration = hold + 2 * n_steps * segment

    def altitude_and_phase(t: float) -> tuple[float, str]:
        t = min(max(t, 0.0), duration)
        if t < hold:
            return base_altitude, "S0"
        u = t - hold
        index = min(int(u / segment), 2 * n_steps - 1)
        within = u - index * segment
        if index < n_steps:
            start = base_altitude + index * amplitude
            target = start + amplitude
            phase = f"A{index + 1}"
        else:
            start = base_altitude + (2 * n_steps - index) * amplitude
            target = start - amplitude
            phase = f"D{index - n_steps + 1}"
        if within < transit:
            z = start + (target - start) * (within / transit)
        else:
            z = target
        return z, phase

    def sampler(t: float):
        z, _ = altitude_and_phase(t)
        return np.array([x, y, z]), yaw

    def phase_of(t: float) -> str:
        return altitude_and_phase(t)[1]

    return Trajectory("t2", duration, sampler, phase_of)


def load_waypoints(path: str | Path) -> tuple[tuple[tuple[float, float, float], float], ...]:
    """Waypoint file: one `x y z yaw` line per waypoint (SI units, radians),
    '#' comments. Returns ((x, y, z), yaw) tuples for spline_trajectory_t3."""
    waypoints = []
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise ValueError(f"{path}: line {line_no}: expected 'x y z yaw', got {len(tokens)} fields")
        try:
            x, y, z, yaw = (parse_finite_float(t) for t in tokens)
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        waypoints.append(((x, y, z), yaw))
    return tuple(waypoints)


def spline_trajectory_t3(waypoints: Sequence[tuple[Sequence[float], float]] = DEFAULT_T3_WAYPOINTS,
                         duration: float | None = None,
                         speed: float = 0.4) -> Trajectory:
    """C2 cubic spline through the waypoints with wrap-aware linear yaw.

    Waypoints are ((x, y, z), yaw) pairs placed at uniform times; duration
    defaults to chord length / speed.
    """
    if len(waypoints) < 4:
        raise ValueError("spline trajectory needs at least 4 waypoints")
    positions = np.array([w[0] for w in waypoints], dtype=float)
    yaws = [float(w[1]) for w in waypoints]
    unwrapped = [yaws[0]]
    for raw in yaws[1:]:
        unwrapped.append(unwrapped[-1] + wrap_angle(raw - unwrapped[-1]))
    with np.errstate(over="ignore"):  # an infinite chord is rejected below
        chord = float(np.linalg.norm(np.diff(positions, axis=0), axis=1).sum())
    total = duration if duration is not None else chord / speed
    if not 0.0 < total < math.inf:
        raise ValueError(f"spline trajectory needs a positive finite duration, got {total}")
    times = np.linspace(0.0, total, len(waypoints))
    spline = CubicSpline(times, positions, axis=0, bc_type="natural")

    def sampler(t: float):
        tc = min(max(t, 0.0), total)
        yaw = wrap_angle(float(np.interp(tc, times, unwrapped)))
        return np.asarray(spline(tc), dtype=float), yaw

    return Trajectory("t3", total, sampler)


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs; paired-seed comparisons vary only
    `noise.seed`."""

    trajectory: Trajectory
    tag_map: TagMap
    camera: CameraModel
    noise: NoiseModel
    pipeline: PipelineConfig
    sample_rate: float = 20.0

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample rate must be positive")


@dataclass(frozen=True)
class ErrorStats:
    """mnv/std of position error [cm] and orientation error [deg]."""

    ep_mnv_cm: float
    ep_std_cm: float
    eo_mnv_deg: float
    eo_std_deg: float
    frames: int
    dropped: int

    @staticmethod
    def from_samples(ep_cm: Sequence[float], eo_deg: Sequence[float],
                     dropped: int) -> "ErrorStats":
        if len(ep_cm) != len(eo_deg):
            raise ValueError("error sample lists must have equal length")
        if not ep_cm:
            nan = float("nan")
            return ErrorStats(nan, nan, nan, nan, 0, dropped)
        ep = np.asarray(ep_cm, dtype=float)
        eo = np.asarray(eo_deg, dtype=float)
        return ErrorStats(
            float(ep.mean()), float(ep.std()),
            float(eo.mean()), float(eo.std()),
            len(ep_cm), dropped,
        )


@dataclass(frozen=True)
class FrameRecord:
    frame: int
    t: float
    phase: str | None
    pose_true: Pose | None
    output: EstimateOutput
    ep_cm: float | None
    eo_deg: float | None


@dataclass(frozen=True)
class RunResult:
    stats: ErrorStats
    frames: list[FrameRecord]
    phase_stats: dict[str, ErrorStats]


def simulate(cfg: RunConfig) -> Iterator[Frame]:
    """The run's simulated frames: ground truth sampled from the trajectory
    at the sample rate, detections drawn with the noise model's seed."""
    n_frames = max(1, int(round(cfg.trajectory.duration * cfg.sample_rate)))
    for k in range(n_frames):
        t = k / cfg.sample_rate
        position, yaw = cfg.trajectory.sample(t)
        truth = Pose(position, quat_from_yaw(yaw))
        yield Frame(k, t, truth, detect(cfg.tag_map, cfg.camera, cfg.noise, truth, k))


def body_poses_of(cfg: RunConfig, frames: Sequence[Frame]) -> TagEstimates:
    """The frame chain of every detection of `frames`, one row per
    detection in stream order, from one `estimate_body_pose_per_tag` pass;
    it depends on the map and the camera mount (`pose_in_body`, the mount's
    one home) only, so every pipeline variant can share it."""
    fields = ("ids", "positions", "quats", "apparent")
    stacked = DetectionRows(*(np.concatenate([getattr(f.detections, name) for f in frames])
                              for name in fields))
    return estimate_body_pose_per_tag(stacked, cfg.tag_map, cfg.camera.pose_in_body)


def run(cfg: RunConfig, frames: Iterable[Frame] | None = None, *,
        body_poses: TagEstimates | None = None) -> RunResult:
    """Execute one experiment: run the pipeline over `frames` (by default
    `simulate(cfg)`) and accumulate Eq.-style error statistics over the
    frames that carry ground truth. Frames without an estimate are counted
    as dropped and excluded from mnv/std. `body_poses` is
    `body_poses_of(cfg, frames)` when the caller already has it."""
    frames = list(simulate(cfg) if frames is None else frames)
    if body_poses is None and frames:
        body_poses = body_poses_of(cfg, frames)
    state = None
    records: list[FrameRecord] = []
    end = 0
    for frame in frames:
        start, end = end, end + len(frame.detections)
        output, state = step(body_poses.take(slice(start, end)), cfg.tag_map, cfg.pipeline, state)
        truth = frame.truth
        phase = ep_cm = eo_deg = None
        if truth is not None:
            phase = cfg.trajectory.phase(frame.t)
            if output.pose is not None:
                ep_cm = float(np.linalg.norm(output.pose.position - truth.position)) * 100.0
                eo_deg = math.degrees(
                    quat_rotation_angle(output.pose.orientation, truth.orientation))
        records.append(FrameRecord(frame.index, frame.t, phase, truth, output, ep_cm, eo_deg))
    return RunResult(_stats_of(records), records, _phase_stats_of(records))


def _stats_of(frames: Sequence[FrameRecord]) -> ErrorStats:
    used = [f for f in frames if f.ep_cm is not None]
    dropped = sum(1 for f in frames if f.output.pose is None)
    return ErrorStats.from_samples([f.ep_cm for f in used], [f.eo_deg for f in used], dropped)


def _phase_stats_of(frames: Sequence[FrameRecord]) -> dict[str, ErrorStats]:
    order: list[str] = []
    grouped: dict[str, list[FrameRecord]] = {}
    for f in frames:
        if f.phase is None:
            continue
        if f.phase not in grouped:
            grouped[f.phase] = []
            order.append(f.phase)
        grouped[f.phase].append(f)
    return {phase: _stats_of(grouped[phase]) for phase in order}


@dataclass(frozen=True)
class CompareRow:
    scenario: str
    variant: str
    stats: ErrorStats


def compare_matrix(base: RunConfig, variants: Sequence[str],
                   scenarios: Sequence[tuple[str, Trajectory]] | None = None
                   ) -> list[CompareRow]:
    """Cross product of scenarios and method variants under paired seeds.

    Variants are dash-separated token strings (e.g. 'tbs-or', 'all-noor');
    an empty list compares the base configuration alone. Scenarios default
    to the base trajectory. Each scenario is simulated once, and its frames
    and their frame chain (`body_poses_of`) are held in memory while every
    variant runs over them.
    """
    scenario_list = list(scenarios) if scenarios else [(base.trajectory.label, base.trajectory)]
    if variants:
        variant_list = [(name, apply_variant(base.pipeline, name)) for name in variants]
    else:
        variant_list = [("base", base.pipeline)]
    rows = []
    for scenario_name, trajectory in scenario_list:
        scenario = replace(base, trajectory=trajectory)
        frames = list(simulate(scenario))
        body_poses = body_poses_of(scenario, frames)
        for variant_name, pipeline_cfg in variant_list:
            stats = run(replace(scenario, pipeline=pipeline_cfg), frames,
                        body_poses=body_poses).stats
            rows.append(CompareRow(scenario_name, variant_name, stats))
    return rows


# --- result emission ---

COMPARE_CSV_HEADER = "scenario,variant,ep_mnv_cm,ep_std_cm,eo_mnv_deg,eo_std_deg,frames,dropped"


def format_compare_csv(rows: Sequence[CompareRow]) -> str:
    lines = [COMPARE_CSV_HEADER]
    for row in rows:
        s = row.stats
        lines.append(
            f"{row.scenario},{row.variant},{s.ep_mnv_cm:.6f},{s.ep_std_cm:.6f},"
            f"{s.eo_mnv_deg:.6f},{s.eo_std_deg:.6f},{s.frames},{s.dropped}"
        )
    return "\n".join(lines) + "\n"


def format_timeseries_csv(frames: Sequence[FrameRecord]) -> str:
    lines = ["t,ep_cm,eo_deg,tags_used"]
    for f in frames:
        ep = f"{f.ep_cm:.6f}" if f.ep_cm is not None else ""
        eo = f"{f.eo_deg:.6f}" if f.eo_deg is not None else ""
        lines.append(f"{f.t:.6f},{ep},{eo},{len(f.output.tags_used)}")
    return "\n".join(lines) + "\n"


def frame_to_json(record: FrameRecord) -> dict:
    pose = record.output.pose
    return {
        "frame": record.frame,
        "t": record.t,
        "phase": record.phase,
        "pose_true": None if record.pose_true is None else {
            "p": [float(v) for v in record.pose_true.position],
            "q": [float(v) for v in record.pose_true.orientation.as_array()],
        },
        "pose_est": None if pose is None else {
            "p": [float(v) for v in pose.position],
            "q": [float(v) for v in pose.orientation.as_array()],
        },
        "ep_cm": record.ep_cm,
        "eo_deg": record.eo_deg,
        "tags_used": list(record.output.tags_used),
        "tags_rejected": list(record.output.stage_trace.rejected_ids),
        "trace": record.output.stage_trace.to_dict(),
    }


def write_frames_jsonl(frames: Sequence[FrameRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in frames:
            handle.write(json.dumps(frame_to_json(record)) + "\n")
