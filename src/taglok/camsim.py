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
    compose,
    inverse,
    quat_multiply,
    quat_to_matrix,
)
from .tagmap import TagEntry, TagMap

DEFAULT_DETECT_THRESHOLD_PX = 12.0


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
class Detection:
    """One simulated observation: tag id plus its pose in the camera frame."""

    tag_id: int
    pose_tag_in_camera: Pose
    apparent_side: float

    def __post_init__(self) -> None:
        if not self.pose_tag_in_camera.position[2] > 0:  # NaN fails too
            raise ValueError("detected tag must lie in front of the camera (z > 0)")


@dataclass(frozen=True)
class Frame:
    """One frame of input to the estimator: its detections, plus the true
    body pose when the frame was simulated (None when read from a stream)."""

    index: int
    t: float
    truth: Pose | None
    detections: tuple[Detection, ...]


def visible_tags(tag_map: TagMap, cam: CameraModel,
                 body_pose_true: Pose) -> list[tuple[TagEntry, float]]:
    """Tags in view of the camera, with their apparent side length [px].

    A tag counts as visible when its front face is toward the camera, all
    four projected corners fall inside the image, and the mean projected
    side length reaches the detectability threshold.
    """
    ids, _, centers, normals, corners = tag_map.world_frames()
    if len(ids) == 0:
        return []
    cam_in_world = compose(body_pose_true, cam.pose_in_body)
    world_in_cam = inverse(cam_in_world)
    R = quat_to_matrix(world_in_cam.orientation)
    t = world_in_cam.position

    front_facing = (normals * (cam_in_world.position[None, :] - centers)).sum(axis=1) > 0.0

    corners_cam = corners @ R.T + t  # (n, 4, 3)
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

    ok &= inside & (apparent >= cam.detect_threshold_px)
    return [(tag_map.lookup(int(i)), float(a)) for i, a in zip(ids[ok], apparent[ok])]


def _noise_rng(noise: NoiseModel, frame_index: int, tag_id: int) -> np.random.Generator:
    # one independent, reproducible stream per (seed, frame, tag): adding or
    # removing a tag never shifts any other tag's noise
    return np.random.default_rng((noise.seed, int(frame_index), int(tag_id)))


def _perturb(pose: Pose, apparent: float, noise: NoiseModel,
             rng: np.random.Generator) -> Pose:
    scale = (noise.reference_apparent_size / apparent) ** noise.size_exponent
    sigma_p = noise.position_sigma_at_ref * scale
    sigma_r = noise.rotation_sigma_at_ref * scale
    if rng.random() < noise.outlier_probability:
        sigma_p *= noise.outlier_position_scale
        sigma_r *= noise.outlier_rotation_scale
    delta_p = rng.standard_normal(3) * sigma_p
    axis = rng.standard_normal(3)
    norm = np.linalg.norm(axis)
    axis = axis / norm if norm > 1e-12 else np.array([0.0, 0.0, 1.0])
    angle = abs(float(rng.standard_normal()) * sigma_r)
    half = 0.5 * angle
    delta_q = UnitQuaternion(math.cos(half), *(math.sin(half) * axis))
    return Pose(pose.position + delta_p, quat_multiply(pose.orientation, delta_q))


def detect(tag_map: TagMap, cam: CameraModel, noise: NoiseModel,
           body_pose_true: Pose, frame_index: int) -> list[Detection]:
    """Simulated detections for one frame, deterministic in (seed, frame, tag).

    A perturbation extreme enough to push the tag behind the camera counts
    as a failed detection and the tag is skipped for that frame.
    """
    world_in_cam = inverse(compose(body_pose_true, cam.pose_in_body))
    detections = []
    for entry, apparent in visible_tags(tag_map, cam, body_pose_true):
        exact = compose(world_in_cam, entry.pose_in_world)
        rng = _noise_rng(noise, frame_index, entry.tag_id)
        noisy = _perturb(exact, apparent, noise, rng)
        if noisy.position[2] <= 0:
            continue
        detections.append(Detection(entry.tag_id, noisy, apparent))
    return detections


# --- detection-stream dump (one line per detection, for replay/debugging) ---

def format_detection_line(frame: int, t: float, det: Detection) -> str:
    p = [float(v) for v in det.pose_tag_in_camera.position]
    q = det.pose_tag_in_camera.orientation
    return (
        f"{frame} {t!r} {det.tag_id} "
        f"{p[0]!r} {p[1]!r} {p[2]!r} {q.w!r} {q.x!r} {q.y!r} {q.z!r} {det.apparent_side!r}"
    )


_LINE_FLOAT_FIELDS = ("t", "px", "py", "pz", "qw", "qx", "qy", "qz", "apparent_side")


def parse_detection_line(line: str) -> tuple[int, float, Detection]:
    tokens = line.split()
    if len(tokens) != 11:
        raise ValueError(f"expected 11 fields in detection line, got {len(tokens)}")
    frame = int(tokens[0])
    tag_id = int(tokens[2])
    float_tokens = [tokens[1]] + tokens[3:]
    values = [float(v) for v in float_tokens]
    if not all(map(math.isfinite, values)):
        name, token = next((name, token) for name, token, value
                           in zip(_LINE_FLOAT_FIELDS, float_tokens, values)
                           if not math.isfinite(value))
        raise ValueError(f"non-finite {name} {token!r}")
    t, px, py, pz, qw, qx, qy, qz, apparent = values
    pose = Pose(np.array([px, py, pz]), UnitQuaternion(qw, qx, qy, qz))
    return frame, t, Detection(tag_id, pose, apparent)


def read_detection_stream(path: str | Path) -> list[Frame]:
    """Frames of a dumped detection stream in frame order, without ground
    truth. A frame takes its time from its first line; errors name the file
    and line."""
    by_index: dict[int, tuple[float, list[Detection]]] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            index, t, det = parse_detection_line(line)
        except ValueError as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        by_index.setdefault(index, (t, []))[1].append(det)
    return [Frame(index, t, None, tuple(dets))
            for index, (t, dets) in sorted(by_index.items())]
