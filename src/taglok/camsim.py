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
from functools import cache
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
_CULL_MARGIN_PX = 1.0
_PREVIOUS_CORNER = np.array([3, 0, 1, 2])  # corners run counterclockwise

# numpy's SeedSequence hash constants and the PCG64 LCG multiplier (as its
# high and low 64-bit halves)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus the fixed camera-in-body mount pose."""

    focal_px: float
    principal: tuple[float, float]
    image_size: tuple[int, int]
    pose_in_body: Pose
    detect_threshold_px: float = DEFAULT_DETECT_THRESHOLD_PX

    def __post_init__(self) -> None:
        if self.focal_px <= 0:
            raise ValueError("focal length must be positive")
        if self.image_size[0] <= 0 or self.image_size[1] <= 0:
            raise ValueError("image size must be positive")
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
                   mount_offset: np.ndarray | None = None,
                   detect_threshold_px: float = DEFAULT_DETECT_THRESHOLD_PX) -> CameraModel:
    width, height = image_size
    return CameraModel(
        focal_px=focal_px,
        principal=(width / 2.0, height / 2.0),
        image_size=image_size,
        pose_in_body=down_facing_mount(mount_offset),
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

    width, height = cam.image_size
    # a tag whose four corners project into the image has its centre there
    # too (the image is convex), so only tags whose centre projects within
    # a pixel of the image can be visible; the margin covers rounding
    centers = m.positions @ R.T + t
    z_center = centers[:, 2]
    z_safe = np.where(z_center > 0.0, z_center, 1.0)
    u = cam.principal[0] + cam.focal_px * centers[:, 0] / z_safe
    v = cam.principal[1] + cam.focal_px * centers[:, 1] / z_safe
    front_facing = (m.normals * (cam_in_world.position[None, :] - m.positions)).sum(axis=1) > 0.0
    candidates = np.flatnonzero(front_facing & (z_center > 0.0)
                                & (u >= -_CULL_MARGIN_PX) & (u <= width + _CULL_MARGIN_PX)
                                & (v >= -_CULL_MARGIN_PX) & (v <= height + _CULL_MARGIN_PX))

    corners_cam = m.corners[candidates] @ R.T + t  # (k, 4, 3)
    z = corners_cam[:, :, 2]
    in_front = np.all(z > 1e-9, axis=1)
    z_safe = np.where(z > 1e-9, z, 1.0)
    u = cam.principal[0] + cam.focal_px * corners_cam[:, :, 0] / z_safe
    v = cam.principal[1] + cam.focal_px * corners_cam[:, :, 1] / z_safe
    inside = np.all((u >= 0) & (u <= width) & (v >= 0) & (v <= height), axis=1)

    du, dv = u - u[:, _PREVIOUS_CORNER], v - v[:, _PREVIOUS_CORNER]  # projected sides
    apparent = np.sqrt(du * du + dv * dv).mean(axis=1)

    keep = in_front & inside & (apparent >= cam.detect_threshold_px)
    rows, apparent = candidates[keep], apparent[keep]
    cam_q = world_in_cam.orientation.as_array()
    return DetectionRows(m.ids[rows], t + rotate_rows(cam_q, m.positions[rows]),
                         quat_multiply_rows(cam_q, m.quats[rows]), apparent)


def _uint32_words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of a non-negative
    int; 0 gives one word."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@cache
def _hash_chain(const: int, mult: int, count: int) -> np.ndarray:
    """`count + 1` successive values of SeedSequence's running hash
    multiplier, starting at `const`, as a read-only (count + 1, 1) uint32
    column."""
    chain = [const]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    column = np.array(chain, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hash(words: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the rows of `words`, one multiplier step of
    `chain` per row."""
    mixed = (words ^ chain[:-1]) * chain[1:]
    return mixed ^ (mixed >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_MULT_L * x - _MIX_MULT_R * y
    return mixed ^ (mixed >> 16)


def _seed_pool(prefix: list[int], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """SeedSequence's pool (4, n) of the entropy words `prefix + [lo, hi]`
    per row, `hi` being zero where the row's id is a single word.

    In the first four words a missing word hashes like a zero word, so a
    zero `hi` stands in for it there; a later `hi` is mixed in only where it
    is nonzero."""
    words = [*prefix, lo, hi]
    chain = _hash_chain(_INIT_A, _MULT_A, 4 * max(4, len(words)))
    head = np.zeros((4, len(lo)), dtype=np.uint32)
    for row, word in enumerate(words[:4]):
        head[row] = word
    pool = _hash(head, chain[:5])
    c = 4
    for src in range(4):  # every word into every other, in numpy's order
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], chain[c:c + 4]))
        c += 3
    for k, word in enumerate(words[4:], start=4):
        mixed = _mix(pool, _hash(word, chain[c:c + 5]))
        c += 4
        pool = mixed if k < len(words) - 1 else np.where(hi != 0, mixed, pool)
    return pool


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each 128-bit product a * b, from 32-bit halves."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    cross0, cross1 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (mid >> 32)


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """One step of the 128-bit LCG, state * multiplier + inc, in uint64 halves."""
    product_hi = _mulhi64(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    lo = lo * _PCG_MULT_LO + inc_lo
    return product_hi + inc_hi + (lo < inc_lo), lo


def _seeded_states(seed: int, frame_index: int, ids: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 128-bit state and increment of `PCG64((seed, frame_index, id))`
    per id, as uint64 halves (state high, state low, inc high, inc low).

    numpy's seeding, computed for all ids at once: SeedSequence hashes the
    uint32 words of (seed, frame, id) into a pool of four words and draws
    four uint64 words from it, which pcg_setseq_128_srandom_r turns into an
    odd increment and a state stepped once.
    """
    if seed < 0 or frame_index < 0 or (len(ids) and ids.min() < 0):
        raise ValueError("noise stream keys (seed, frame, tag id) must be non-negative")
    wide_ids = ids.astype(np.uint64)
    pool = _seed_pool(_uint32_words(seed) + _uint32_words(frame_index),
                      (wide_ids & _MASK32).astype(np.uint32), (wide_ids >> 32).astype(np.uint32))
    words = _hash(np.concatenate([pool, pool]), _hash_chain(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = words[0::2] | (words[1::2] << 32)
    inc_hi = (inc_hi << 1) | (inc_lo >> 63)
    inc_lo = (inc_lo << 1) | 1
    lo = inc_lo + seed_lo  # the state is inc after the first step from zero
    hi, lo = _pcg_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _noise_draws(seed: int, frame_index: int, ids: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each tag's first uniform (n,) and next seven normals (n, 7) from its
    own stream `default_rng((seed, frame_index, id))`, value for value.

    The uniform is one LCG step's XSL-RR output u as `random()` takes it,
    (u >> 11) * 2**-53, for all tags at once. The normals come from numpy's
    own sampler, one PCG64 being set to each tag's stepped state in turn.
    """
    hi, lo, inc_hi, inc_lo = _seeded_states(seed, frame_index, ids)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    xored, rot = hi ^ lo, hi >> 58
    output = (xored >> rot) | (xored << ((64 - rot) & 63))
    uniform = (output >> 11).astype(np.float64) * 2.0**-53

    normals = np.empty((len(ids), 7))
    if len(ids):
        bit_generator = np.random.PCG64(0)
        sampler = np.random.Generator(bit_generator)
        state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
        stream = state["state"]
        for row, high, low, inc_high, inc_low in zip(normals, hi.tolist(), lo.tolist(),
                                                     inc_hi.tolist(), inc_lo.tolist()):
            stream["state"], stream["inc"] = high << 64 | low, inc_high << 64 | inc_low
            bit_generator.state = state
            sampler.standard_normal(out=row)
    return uniform, normals


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

    The streams are still `default_rng((seed, frame, tag))` value for value,
    but their seeding (SeedSequence hashing and PCG64 set-up) and the
    uniforms are computed for all tags at once (`_noise_draws`); the normals
    still come from numpy's sampler, run from each tag's stream state.

    All tags of the frame are perturbed at once, with the rounding of the
    per-tag form (`oracles.loop_detect` in the tests): Python's ** for the
    scale (numpy's array power differs in the last bit), math.cos/math.sin
    (numpy's may follow its SIMD build), and the axis norm as a row-wise dot
    product, the BLAS route np.linalg.norm takes ((a * a).sum rounds
    differently).
    """
    exact = visible_tags(tag_map, cam, body_pose_true)
    n = len(exact)
    uniform, normals = _noise_draws(noise.seed, int(frame_index), exact.ids)
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
