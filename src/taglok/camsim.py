"""Deterministic pinhole-camera simulator producing per-frame tag detections.

Stands in for a real marker detection front end: given the true body pose
and the known map, it decides which tags are in view and emits their pose in
the camera frame, perturbed by a noise model whose magnitude grows as the
tag's apparent (projected) size shrinks.

Camera frame convention: z along the focal axis (out of the lens), x right,
y down in the image. The default mount points the camera at the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (
    Pose,
    UnitQuaternion,
    _normalize_rows,
    compose,
    inverse,
    quat_multiply_rows,
    quat_to_matrix,
    rotate_rows,
    unit_components,
)
from .tagmap import TagMap

DEFAULT_DETECT_THRESHOLD_PX = 12.0
_Z_AXIS = np.array([0.0, 0.0, 1.0])  # rotation axis when the drawn one is ~zero


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus the fixed camera-in-body mount pose."""

    focal_px: float
    principal: tuple[float, float]
    image_size: tuple[int, int]
    pose_in_body: Pose
    frame_rate: float = 30.0
    detect_threshold_px: float = DEFAULT_DETECT_THRESHOLD_PX

    def __post_init__(self) -> None:
        if self.focal_px <= 0:
            raise ValueError("focal length must be positive")
        if self.image_size[0] <= 0 or self.image_size[1] <= 0:
            raise ValueError("image size must be positive")
        if self.frame_rate <= 0:
            raise ValueError("frame rate must be positive")
        if self.detect_threshold_px <= 0:
            raise ValueError("detectability threshold must be positive")


def down_facing_mount(offset: np.ndarray | None = None) -> Pose:
    """Camera-in-body pose looking straight down (body z up, camera z down).

    A half-turn about the body x-axis maps camera x to body x and camera z
    to body -z.
    """
    position = np.zeros(3) if offset is None else np.asarray(offset, dtype=float)
    return Pose(position, UnitQuaternion(0.0, 1.0, 0.0, 0.0))


def default_camera(focal_px: float = 600.0,
                   image_size: tuple[int, int] = (1280, 720),
                   frame_rate: float = 30.0,
                   mount_offset: np.ndarray | None = None,
                   detect_threshold_px: float = DEFAULT_DETECT_THRESHOLD_PX) -> CameraModel:
    width, height = image_size
    return CameraModel(
        focal_px=focal_px,
        principal=(width / 2.0, height / 2.0),
        image_size=image_size,
        pose_in_body=down_facing_mount(mount_offset),
        frame_rate=frame_rate,
        detect_threshold_px=detect_threshold_px,
    )


@dataclass(frozen=True)
class NoiseModel:
    """Detection noise scaled by inverse apparent tag size.

    Per-axis position sigma at a reference apparent size, scaled by
    (reference / apparent)**size_exponent; rotation noise likewise, applied
    as a right-multiplied random rotation. With outlier_probability a
    detection's sigmas are multiplied by the outlier scales. The stream is
    a pure function of (seed, frame_index, tag_id).
    """

    position_sigma_at_ref: float = 0.0
    rotation_sigma_at_ref: float = 0.0
    reference_apparent_size: float = 100.0
    size_exponent: float = 1.0
    outlier_probability: float = 0.0
    outlier_position_scale: float = 1.0
    outlier_rotation_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.position_sigma_at_ref < 0 or self.rotation_sigma_at_ref < 0:
            raise ValueError("noise sigmas must be non-negative")
        if not 0.0 <= self.outlier_probability <= 1.0:
            raise ValueError("outlier probability must be in [0, 1]")
        if self.reference_apparent_size <= 0:
            raise ValueError("reference apparent size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @staticmethod
    def zero() -> "NoiseModel":
        return NoiseModel()


@dataclass(frozen=True)
class DetectionRows:
    """Tag detections as arrays, one row per detection: tag ids (n,) int64,
    positions (n, 3) and unit quaternions (n, 4) as (w, x, y, z) rows of the
    tag pose in the camera frame, and apparent side lengths (n,) [px]."""

    ids: np.ndarray
    positions: np.ndarray
    quats: np.ndarray
    apparent: np.ndarray

    def __post_init__(self) -> None:
        if not (self.positions[:, 2] > 0).all():  # NaN fails too
            raise ValueError("detected tag must lie in front of the camera (z > 0)")

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> "DetectionRows":
        """The rows picked by a boolean mask, index array or slice."""
        return DetectionRows(self.ids[rows], self.positions[rows], self.quats[rows],
                             self.apparent[rows])


@dataclass(frozen=True)
class Frame:
    """One frame of input to the estimator: its detections, plus the true
    body pose when the frame was simulated (None when read from a stream)."""

    index: int
    t: float
    truth: Pose | None
    detections: DetectionRows


def visible_tags(tag_map: TagMap, cam: CameraModel, body_pose_true: Pose) -> DetectionRows:
    """The noise-free detections of the tags in view, in tag-id order.

    A tag counts as visible when its front face is toward the camera, all
    four projected corners fall inside the image, and the mean projected
    side length reaches the detectability threshold; `apparent` holds that
    side length [px].
    """
    m = tag_map.world_frames()
    cam_in_world = compose(body_pose_true, cam.pose_in_body)
    world_in_cam = inverse(cam_in_world)
    R = quat_to_matrix(world_in_cam.orientation)
    t = world_in_cam.position

    front_facing = (m.normals * (cam_in_world.position[None, :] - m.positions)).sum(axis=1) > 0.0

    corners_cam = m.corners @ R.T + t  # (n, 4, 3)
    z = corners_cam[:, :, 2]
    in_front = np.all(z > 1e-9, axis=1)

    ok = front_facing & in_front
    z_safe = np.where(z > 1e-9, z, 1.0)
    u = cam.principal[0] + cam.focal_px * corners_cam[:, :, 0] / z_safe
    v = cam.principal[1] + cam.focal_px * corners_cam[:, :, 1] / z_safe
    width, height = cam.image_size
    inside = np.all((u >= 0) & (u <= width) & (v >= 0) & (v <= height), axis=1)

    pixels = np.stack([u, v], axis=-1)
    edges = pixels - np.roll(pixels, shift=1, axis=1)
    apparent = np.linalg.norm(edges, axis=-1).mean(axis=1)

    rows = np.flatnonzero(ok & inside & (apparent >= cam.detect_threshold_px))
    cam_q = world_in_cam.orientation.as_array()
    return DetectionRows(m.ids[rows], t + rotate_rows(cam_q, m.positions[rows]),
                         quat_multiply_rows(cam_q, m.quats[rows]), apparent[rows])


def detect(tag_map: TagMap, cam: CameraModel, noise: NoiseModel,
           body_pose_true: Pose, frame_index: int) -> DetectionRows:
    """Simulated detections for one frame, deterministic in (seed, frame, tag).

    Each visible tag draws from its own stream, `default_rng((seed, frame,
    tag))`, so adding or removing a tag never shifts any other tag's noise:
    one uniform decides whether the detection is an outlier, then seven
    normals give the position error (3), the rotation axis (3) and the
    rotation angle (1). The sigmas scale with (reference / apparent) **
    size_exponent; the rotation error is right-multiplied. A perturbation
    extreme enough to push the tag behind the camera counts as a failed
    detection and the tag is skipped for that frame.

    All tags of the frame are perturbed at once, with the rounding of the
    per-tag form (`oracles.loop_detect` in the tests): Python's ** for the
    scale (numpy's array power differs in the last bit), math.cos/math.sin
    (numpy's may follow its SIMD build), and the axis norm as a row-wise dot
    product, the BLAS route np.linalg.norm takes ((a * a).sum rounds
    differently).
    """
    exact = visible_tags(tag_map, cam, body_pose_true)
    n = len(exact)
    rngs = [np.random.default_rng((noise.seed, int(frame_index), i)) for i in exact.ids.tolist()]
    uniform = np.array([rng.random() for rng in rngs])  # each stream: a uniform, then normals
    normals = np.array([rng.standard_normal(7) for rng in rngs]).reshape(n, 7)
    ref, exponent = noise.reference_apparent_size, noise.size_exponent
    scale = np.array([(ref / apparent) ** exponent for apparent in exact.apparent.tolist()])

    outlier = uniform < noise.outlier_probability
    sigma_p = noise.position_sigma_at_ref * scale
    sigma_r = noise.rotation_sigma_at_ref * scale
    sigma_p = np.where(outlier, sigma_p * noise.outlier_position_scale, sigma_p)
    sigma_r = np.where(outlier, sigma_r * noise.outlier_rotation_scale, sigma_r)
    delta_p = normals[:, :3] * sigma_p[:, None]
    axis = normals[:, 3:6]
    norm = np.sqrt((axis[:, None, :] @ axis[:, :, None])[:, 0, 0])
    usable = norm > 1e-12
    axis = np.where(usable[:, None], axis / np.where(usable, norm, 1.0)[:, None], _Z_AXIS)
    half = (0.5 * np.abs(normals[:, 6] * sigma_r)).tolist()
    delta_q = np.empty((n, 4))
    delta_q[:, 0] = [math.cos(h) for h in half]
    delta_q[:, 1:] = np.array([math.sin(h) for h in half])[:, None] * axis
    noisy_p = exact.positions + delta_p
    noisy_q = quat_multiply_rows(exact.quats, _normalize_rows(delta_q))
    keep = ~(noisy_p[:, 2] <= 0.0)  # a NaN depth reaches DetectionRows, which rejects it
    return DetectionRows(exact.ids[keep], noisy_p[keep], noisy_q[keep], exact.apparent[keep])


# --- detection-stream dump (one line per detection, for replay/debugging) ---

def format_detection_lines(frame: int, t: float, rows: DetectionRows) -> list[str]:
    """One stream line per detection: frame, time, id, position, quaternion
    and apparent side, every float written with repr so it reads back exactly."""
    return [f"{frame} {t!r} {tag_id} {p[0]!r} {p[1]!r} {p[2]!r} "
            f"{q[0]!r} {q[1]!r} {q[2]!r} {q[3]!r} {apparent!r}"
            for tag_id, p, q, apparent in zip(rows.ids.tolist(), rows.positions.tolist(),
                                              rows.quats.tolist(), rows.apparent.tolist())]


_LINE_FLOAT_FIELDS = ("t", "px", "py", "pz", "qw", "qx", "qy", "qz", "apparent_side")


def parse_detection_line(line: str) -> tuple[int, float, int, tuple, tuple, float]:
    """(frame, t, tag id, (px, py, pz), (qw, qx, qy, qz), apparent side) of
    one stream line, the quaternion renormalized as UnitQuaternion does."""
    tokens = line.split()
    if len(tokens) != 11:
        raise ValueError(f"expected 11 fields in detection line, got {len(tokens)}")
    frame = int(tokens[0])
    tag_id = int(tokens[2])
    if not -2**63 <= tag_id < 2**63:
        raise ValueError(f"tag id {tokens[2]!r} out of range")
    float_tokens = [tokens[1]] + tokens[3:]
    values = [float(v) for v in float_tokens]
    if not all(map(math.isfinite, values)):
        name, token = next((name, token) for name, token, value
                           in zip(_LINE_FLOAT_FIELDS, float_tokens, values)
                           if not math.isfinite(value))
        raise ValueError(f"non-finite {name} {token!r}")
    t, px, py, pz, qw, qx, qy, qz, apparent = values
    if not pz > 0:
        raise ValueError("detected tag must lie in front of the camera (z > 0)")
    return frame, t, tag_id, (px, py, pz), unit_components(qw, qx, qy, qz), apparent


def read_detection_stream(path: str | Path) -> list[Frame]:
    """Frames of a dumped detection stream in frame order, without ground
    truth. A frame takes its time from its first line; errors name the file
    and line."""
    by_index: dict[int, tuple[float, list[tuple]]] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            index, t, *row = parse_detection_line(line)
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        by_index.setdefault(index, (t, []))[1].append(row)
    return [Frame(index, t, None, DetectionRows(*(np.array(column) for column in zip(*rows))))
            for index, (t, rows) in sorted(by_index.items())]
