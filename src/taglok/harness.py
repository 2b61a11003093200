"""Experiment harness: ground-truth trajectories, run executor, statistics.

A trajectory is one function `at(t)` -> (position, yaw, phase label);
`simulate` turns its samples into frames of camera detections with exact
ground truth (the motion capture reference role), and `run`, the one frame
loop, steps the pipeline over frames and accumulates position errors [cm]
and orientation errors [deg]; it recovers the body pose of every detection
of its frames in one pass of the frame chain (`body_poses_of`) and hands
each frame's `step` its rows. compare_matrix simulates each scenario once
and runs every method variant on those frames and that one frame chain:
the detection stream depends only on (seed, frame, tag), and the chain
only on the map and the camera mount, so every variant sees identical
input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

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
from .tagmap import FINITE, POSITIVE, TagMap, check_fields, parse_finite_float

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

# t1's side [m] and speed [m/s]; t2's base altitude and step [m], steps each
# way, hold and transit [s]; t3's speed along its waypoints' chord [m/s]
T1_SIDE, T1_SPEED = 1.8, 0.25
T2_BASE_ALTITUDE, T2_AMPLITUDE, T2_STEPS, T2_HOLD, T2_TRANSIT = 0.7, 0.3, 3, 4.0, 0.6
T3_SPEED = 0.4


@dataclass(frozen=True)
class Trajectory:
    """Ground-truth motion: `at(t)` gives (position [m], yaw [rad], phase
    label), the label None for shapes without phases."""

    label: str
    duration: float
    at: Callable[[float], tuple[np.ndarray, float, str | None]]

    def sample(self, t: float) -> tuple[np.ndarray, float]:
        return self.at(t)[:2]


HOVER_RULES = {"x": FINITE, "y": FINITE, "z": POSITIVE, "yaw": FINITE, "duration": POSITIVE}


def hover_trajectory(position: Sequence[float], yaw: float = 0.0,
                     duration: float = 10.0) -> Trajectory:
    x, y, z = position
    check_fields(HOVER_RULES, {"x": x, "y": y, "z": z, "yaw": yaw, "duration": duration})
    fixed = np.array(position, dtype=float)
    fixed.setflags(write=False)  # every call returns it
    return Trajectory("hover", duration, lambda t: (fixed, yaw, None))


def square_trajectory_t1(center: Sequence[float] = (1.5, 2.5), altitude: float = 0.8,
                         yaw: float = 0.0) -> Trajectory:
    """Closed square at constant altitude, constant speed, phases F/R/B/L.

    F runs along -y, R along -x, B along +y, L along +x, starting from the
    (+x, +y) corner so the loop closes where it began.
    """
    cx, cy = float(center[0]), float(center[1])
    half = T1_SIDE / 2.0
    duration = 4.0 * T1_SIDE / T1_SPEED

    def at(t: float):
        s = min(max(t, 0.0), duration) * T1_SPEED
        leg = min(int(s / T1_SIDE), 3)
        u = s - leg * T1_SIDE
        x, y = ((cx + half, cy + half - u), (cx + half - u, cy - half),
                (cx - half, cy - half + u), (cx - half + u, cy + half))[leg]
        return np.array([x, y, altitude]), yaw, "FRBL"[leg]

    return Trajectory("t1", duration, at)


def steps_trajectory_t2(xy: Sequence[float] = DEFAULT_T2_XY, yaw: float = 0.0) -> Trajectory:
    """Vertical staircase over a fixed ground position: hold at the base
    (S0), climb T2_STEPS steps (A1..A3), descend them again (D1..D3). Altitude is
    piecewise constant with finite-rate linear transitions."""
    x, y = float(xy[0]), float(xy[1])
    segment = T2_TRANSIT + T2_HOLD
    duration = T2_HOLD + 2 * T2_STEPS * segment

    def at(t: float):
        t = min(max(t, 0.0), duration)
        if t < T2_HOLD:
            return np.array([x, y, T2_BASE_ALTITUDE]), yaw, "S0"
        u = t - T2_HOLD
        index = min(int(u / segment), 2 * T2_STEPS - 1)
        within = u - index * segment
        if index < T2_STEPS:
            start = T2_BASE_ALTITUDE + index * T2_AMPLITUDE
            target = start + T2_AMPLITUDE
            phase = f"A{index + 1}"
        else:
            start = T2_BASE_ALTITUDE + (2 * T2_STEPS - index) * T2_AMPLITUDE
            target = start - T2_AMPLITUDE
            phase = f"D{index - T2_STEPS + 1}"
        z = start + (target - start) * (within / T2_TRANSIT) if within < T2_TRANSIT else target
        return np.array([x, y, z]), yaw, phase

    return Trajectory("t2", duration, at)


def parse_waypoints(text: str) -> tuple[tuple[tuple[float, float, float], float], ...]:
    """Waypoint text: one `x y z yaw` line per waypoint (SI units, radians),
    '#' comments. Returns ((x, y, z), yaw) tuples for spline_trajectory_t3."""
    waypoints = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 4:
            raise ValueError(f"line {line_no}: expected 'x y z yaw', got {len(tokens)} fields")
        try:
            x, y, z, yaw = (parse_finite_float(t) for t in tokens)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        waypoints.append(((x, y, z), yaw))
    return tuple(waypoints)


def _natural_spline(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Coefficients of the natural cubic spline through `values` (one row per
    time) at strictly increasing `times`, highest power first: c[k, i] is the
    coefficient of (t - times[i]) ** (3 - k) on [times[i], times[i + 1]].

    Each step repeats the arithmetic of `CubicSpline(times, values,
    bc_type="natural")`, so the coefficients are the same floats: the banded
    system it fills, its tridiagonal solve and its Hermite coefficients."""
    dx = np.diff(times)
    dxr = dx[:, None]
    slope = np.diff(values, axis=0) / dxr
    # the tridiagonal system for the slopes s at the knots, by its sub-,
    # main and super-diagonal; the end rows set the second derivative to 0
    dl = np.append(dx[1:], dx[-1])
    d = np.concatenate(([2 * dx[0]], 2 * (dx[:-1] + dx[1:]), [2 * dx[-1]]))
    du = np.append(dx[0], dx[:-1])
    s = np.empty_like(values)
    s[0] = -0.5 * 0.0 * dx[0] ** 2 + 3 * (values[1] - values[0])
    s[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    s[-1] = 0.5 * 0.0 * dx[-1] ** 2 + 3 * (values[-1] - values[-2])
    # LAPACK dgtsv's elimination and back-substitution. dgtsv swaps rows i
    # and i + 1 only where |d[i]| < |dl[i]|; the knots come from linspace, so
    # the intervals are equal up to rounding, the system is strictly
    # diagonally dominant and no swap ever happens. The zero that the
    # elimination leaves in dl still multiplies s[i + 2], as in dgtsv.
    for i in range(len(times) - 1):
        fact = dl[i] / d[i]
        d[i + 1] = d[i + 1] - fact * du[i]
        s[i + 1] = s[i + 1] - fact * s[i]
    s[-1] = s[-1] / d[-1]
    s[-2] = (s[-2] - du[-1] * s[-1]) / d[-2]
    for i in range(len(times) - 3, -1, -1):
        s[i] = (s[i] - du[i] * s[i + 1] - 0.0 * s[i + 2]) / d[i]
    # the cubic Hermite piece of each interval
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], values[:-1]))


def _spline_at(times: np.ndarray, coeffs: np.ndarray, t: float) -> np.ndarray:
    """The spline of `_natural_spline` at time `t`, evaluated as `PPoly`
    does (ascending powers); outside [times[0], times[-1]] the end pieces
    extend."""
    i = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), len(times) - 2)
    u = t - times[i]
    res, z = 0.0, 1.0
    for c in coeffs[::-1, i]:
        res = res + c * z
        z *= u
    return res


def spline_trajectory_t3(waypoints: Sequence[tuple[Sequence[float], float]] = DEFAULT_T3_WAYPOINTS
                         ) -> Trajectory:
    """Natural cubic spline through the waypoints with wrap-aware linear yaw.

    Waypoints are ((x, y, z), yaw) pairs placed at uniform times over
    chord length / T3_SPEED.
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
    total = chord / T3_SPEED
    if not 0.0 < total < math.inf:
        raise ValueError(f"spline trajectory needs a positive finite duration, got {total}")
    times = np.linspace(0.0, total, len(waypoints))
    # a duration too short to separate the knot times, or a spline whose
    # coefficients overflow, gives non-finite coefficients
    with np.errstate(all="ignore"):
        spline = _natural_spline(times, positions)
    if not np.isfinite(spline).all():
        raise ValueError(f"spline trajectory over {total} s through these waypoints "
                         "is not finite")

    def at(t: float):
        tc = min(max(t, 0.0), total)
        yaw = wrap_angle(float(np.interp(tc, times, unwrapped)))
        return _spline_at(times, spline, tc), yaw, None

    return Trajectory("t3", total, at)


def _check_noise_scale(camera: CameraModel, noise: NoiseModel) -> None:
    """The noise scale (reference / apparent) ** size_exponent must be a float
    at every apparent size the camera reports, from the detectability
    threshold up to the image diagonal, and so must 16 times the largest sigma
    `detect` draws with there: numpy's standard normals stay below 13.8 in
    magnitude (the ziggurat's tail bound r + 53 ln 2 / r). Both are monotone
    in the apparent size, so the two ends decide. Errors name config keys."""
    outliers = noise.outlier_probability > 0
    sigmas = (("position_sigma", noise.position_sigma_at_ref, noise.outlier_position_scale),
              ("rotation_sigma", noise.rotation_sigma_at_ref, noise.outlier_rotation_scale))
    ref, exponent = noise.reference_apparent_size, noise.size_exponent
    ends = ((camera.detect_threshold_px, "camera.detect_threshold_px"),
            (math.hypot(*camera.image_size), "camera.image_width, camera.image_height"))
    for apparent, apparent_keys in ends:
        try:
            scale = (ref / apparent) ** exponent
        except (OverflowError, ZeroDivisionError):  # 0.0 ** -1 is a ZeroDivisionError
            scale = math.inf
        if not math.isfinite(scale):  # ref / apparent itself may overflow
            raise ValueError(f"{apparent_keys}, noise.reference_apparent, noise.size_exponent: "
                             f"the noise scale overflows at an apparent size of {apparent:g} px "
                             f"(got reference_apparent {ref!r}, size_exponent {exponent!r})")
        for key, sigma, outlier_scale in sigmas:
            largest = sigma * scale * (max(outlier_scale, 1.0) if outliers else 1.0)
            if not math.isfinite(16 * largest):
                raise ValueError(f"noise.{key}: the noise sigma overflows at an apparent "
                                 f"size of {apparent:g} px (got {sigma!r})")


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

    RULES = {"sample_rate": POSITIVE}

    def __post_init__(self) -> None:
        check_fields(self.RULES, vars(self))
        _check_noise_scale(self.camera, self.noise)
        if not math.isfinite(self.trajectory.duration * self.sample_rate):
            raise ValueError(f"run.sample_rate: {self.sample_rate!r} Hz over a "
                             f"trajectory.duration of {self.trajectory.duration!r} s gives "
                             "no finite frame count")


@dataclass(frozen=True)
class ErrorStats:
    """mnv/std of position error [cm] and orientation error [deg], with the
    dropped frames' count per reason as (reason, count) pairs in the order
    the reasons first appear; `dropped` is their sum."""

    ep_mnv_cm: float
    ep_std_cm: float
    eo_mnv_deg: float
    eo_std_deg: float
    frames: int
    drop_reasons: tuple[tuple[str, int], ...] = ()

    @property
    def dropped(self) -> int:
        return sum(n for _, n in self.drop_reasons)


class FrameRecord(NamedTuple):
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
    """The run's simulated frames: ground truth (pose and phase) from one
    sample of the trajectory per frame at the sample rate, detections drawn
    with the noise model's seed."""
    n_frames = max(1, int(round(cfg.trajectory.duration * cfg.sample_rate)))
    for k in range(n_frames):
        t = k / cfg.sample_rate
        position, yaw, phase = cfg.trajectory.at(t)
        truth = Pose(position, quat_from_yaw(yaw))
        yield Frame(k, t, truth, detect(cfg.tag_map, cfg.camera, cfg.noise, truth, k), phase)


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
    pipeline, state = cfg.pipeline, None
    records: list[FrameRecord] = []
    end = 0
    for frame in frames:
        start, end = end, end + len(frame.detections)
        output, state = step(body_poses.take(slice(start, end)), pipeline, state)
        truth, pose = frame.truth, output.pose
        ep_cm = eo_deg = None
        if truth is not None and pose is not None:
            offset = pose.position - truth.position
            # np.linalg.norm of a vector: the root of its dot with itself
            ep_cm = math.sqrt(offset.dot(offset)) * 100.0
            eo_deg = math.degrees(quat_rotation_angle(pose.orientation, truth.orientation))
        records.append(FrameRecord(frame.index, frame.t, frame.phase, truth, output, ep_cm, eo_deg))
    return RunResult(_stats_of(records), records, _phase_stats_of(records))


def _stats_of(frames: Sequence[FrameRecord]) -> ErrorStats:
    """mnv/std over the frames scored against ground truth; NaN when none was."""
    used: list[FrameRecord] = []
    reasons: dict[str, int] = {}
    for f in frames:
        if f.ep_cm is not None:
            used.append(f)
        elif f.output.pose is None:
            reason = f.output.stage_trace.reason
            reasons[reason] = reasons.get(reason, 0) + 1
    drop_reasons = tuple(reasons.items())
    if not used:
        nan = float("nan")
        return ErrorStats(nan, nan, nan, nan, 0, drop_reasons)
    # np.mean and np.std of each row, by the steps numpy's `_mean` and `_var`
    # take (a sum, the squared deviations summed, a square root): the same
    # bits without their Python layer, both rows in one pass
    errors = np.array([[f.ep_cm for f in used], [f.eo_deg for f in used]])
    mnv = np.add.reduce(errors, axis=1) / len(used)
    deviations = errors - mnv[:, None]
    var = np.add.reduce(deviations * deviations, axis=1) / len(used)
    (ep_mnv, eo_mnv), (ep_var, eo_var) = mnv.tolist(), var.tolist()
    return ErrorStats(ep_mnv, math.sqrt(ep_var), eo_mnv, math.sqrt(eo_var), len(used),
                      drop_reasons)


def _phase_stats_of(frames: Sequence[FrameRecord]) -> dict[str, ErrorStats]:
    """Stats per phase, in the order the phases first appear."""
    grouped: dict[str, list[FrameRecord]] = {}
    for f in frames:
        if f.phase is not None:
            grouped.setdefault(f.phase, []).append(f)
    return {phase: _stats_of(group) for phase, group in grouped.items()}


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
    """One line per cell; a cell in which no frame produced an estimate has
    empty error fields, as the time series has for such a frame."""
    lines = [COMPARE_CSV_HEADER]
    for row in rows:
        s = row.stats
        errors = (f"{s.ep_mnv_cm:.6f},{s.ep_std_cm:.6f},{s.eo_mnv_deg:.6f},{s.eo_std_deg:.6f}"
                  if s.frames else ",,,")
        lines.append(f"{row.scenario},{row.variant},{errors},{s.frames},{s.dropped}")
    return "\n".join(lines) + "\n"


def format_timeseries_csv(frames: Sequence[FrameRecord]) -> str:
    lines = ["t,ep_cm,eo_deg,tags_used"]
    for f in frames:
        ep = f"{f.ep_cm:.6f}" if f.ep_cm is not None else ""
        eo = f"{f.eo_deg:.6f}" if f.eo_deg is not None else ""
        lines.append(f"{f.t:.6f},{ep},{eo},{len(f.output.tags_used)}")
    return "\n".join(lines) + "\n"


def format_estimate_csv(frames: Sequence[FrameRecord]) -> str:
    """One line per frame: its index, time, estimated pose and tag count;
    a frame without an estimate has empty pose fields and 0 tags."""
    lines = ["frame,t,px,py,pz,qw,qx,qy,qz,tags_used"]
    for f in frames:
        output = f.output
        if output.pose is None:
            lines.append(f"{f.frame},{f.t:.6f},,,,,,,,0")
        else:
            p, q = output.pose.position, output.pose.orientation
            lines.append(f"{f.frame},{f.t:.6f},{p[0]:.9f},{p[1]:.9f},{p[2]:.9f},"
                         f"{q.w:.9f},{q.x:.9f},{q.y:.9f},{q.z:.9f},{len(output.tags_used)}")
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

