"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (homogeneous
4x4 matrices, hand-rolled quartiles, grid + simplex search) rather than by
calling the code under test, so that each check runs through two unrelated
routes. Three sections are different: rotation-matrix helpers (Euler angles,
matrix-to-quaternion, rotation metrics) that only tests need, the per-tag
loop forms of the estimator's stages (the object-per-tag tag selection,
frame chain and back end), kept as the bitwise reference for their array
forms in `taglok.pipeline`, and the object form of detections (`Detection`,
`rows_from`) with the per-tag loop form of the simulator's `detect` and the
unculled form of its `visible_tags`, the bitwise references for their
array forms in `taglok.camsim`. `step_detections` is no oracle: it feeds
one frame's detections to `step` through the frame chain, as `run` does
for a whole stream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from taglok.geometry import (
    Pose,
    UnitQuaternion,
    compose,
    inverse,
    quat_multiply,
    quat_multiply_rows,
    quat_rotation_angle,
    quat_to_matrix,
    rotate_rows,
    wrap_angle,
)
from taglok.camsim import DetectionRows, visible_tags
from taglok.pipeline import (
    EQUAL_SPREAD_TOL,
    RotationFusion,
    TagEstimates,
    ThsMode,
    WeightScheme,
    estimate_body_pose_per_tag,
    select_tags,
    step,
)

_ORTHO_TOL = 1e-6


# --- homogeneous-matrix route for rigid transforms ---

def quat_to_mat_ref(q) -> np.ndarray:
    """Reference quaternion (w,x,y,z) to rotation matrix, via outer products."""
    w, x, y, z = q
    # R = (w^2 - v.v) I + 2 v v^T + 2 w [v]x
    v = np.array([x, y, z])
    vx = np.array([[0, -z, y], [z, 0, -x], [-y, x, 0]], dtype=float)
    return (w * w - v @ v) * np.eye(3) + 2.0 * np.outer(v, v) + 2.0 * w * vx


def hmat(position, quat) -> np.ndarray:
    """4x4 homogeneous transform from position + scalar-first quaternion."""
    T = np.eye(4)
    T[:3, :3] = quat_to_mat_ref(quat)
    T[:3, 3] = np.asarray(position, dtype=float)
    return T


def pose_to_hmat(pose) -> np.ndarray:
    q = pose.orientation
    return hmat(pose.position, (q.w, q.x, q.y, q.z))


# --- quartiles and IQR outlier fences ---

def naive_quantile(samples, p: float) -> float:
    """Linear interpolation on the sorted sample (the common 'type-7' rule)."""
    ordered = sorted(float(s) for s in samples)
    h = (len(ordered) - 1) * p
    lo = int(math.floor(h))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def naive_iqr_fences(samples, gain: float):
    q1 = naive_quantile(samples, 0.25)
    q3 = naive_quantile(samples, 0.75)
    spread = q3 - q1
    return q1 - gain * spread, q3 + gain * spread


def naive_outlier_partition(positions_by_id: dict, gain: float, equal_tol: float):
    """Per-axis IQR fences with strict bounds, intersected across axes.

    positions_by_id maps id -> 3-vector. Under 3 samples everything is kept;
    an axis whose spread is within equal_tol keeps everything on that axis.
    Returns (kept_ids, rejected_ids) as sorted lists.
    """
    ids = sorted(positions_by_id)
    if len(ids) < 3:
        return ids, []
    surviving = set(ids)
    for axis in range(3):
        values = {i: float(positions_by_id[i][axis]) for i in ids}
        column = list(values.values())
        if max(column) - min(column) <= equal_tol:
            continue
        lower, upper = naive_iqr_fences(column, gain)
        surviving &= {i for i in ids if lower < values[i] < upper}
    kept = sorted(surviving)
    rejected = sorted(set(ids) - surviving)
    return kept, rejected


# --- two-pass statistics ---

def two_pass_mean_std(values):
    values = [float(v) for v in values]
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(var)


# --- brute-force rotation means (grid search + local simplex refinement) ---

def _ql2_cost(q: np.ndarray, quats: np.ndarray, weights: np.ndarray) -> float:
    deltas_minus = np.linalg.norm(quats - q, axis=1)
    deltas_plus = np.linalg.norm(quats + q, axis=1)
    d = np.minimum(deltas_minus, deltas_plus)
    return float(np.sum(weights * d * d))


def _chordal_cost(q: np.ndarray, mats: np.ndarray, weights: np.ndarray) -> float:
    R = quat_to_mat_ref(q)
    diffs = mats - R[None, :, :]
    return float(np.sum(weights * np.sum(diffs * diffs, axis=(1, 2))))


def _refine_on_sphere(cost, q0: np.ndarray) -> tuple[np.ndarray, float]:
    """Nelder-Mead in a 3-parameter chart orthogonal to q0 (removes the scale direction)."""
    q0 = q0 / np.linalg.norm(q0)
    basis = np.linalg.svd(q0.reshape(1, 4))[2][1:]  # orthonormal complement of q0

    def chart_cost(v):
        q = q0 + basis.T @ v
        return cost(q / np.linalg.norm(q))

    res = minimize(chart_cost, np.zeros(3), method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 2000})
    q = q0 + basis.T @ res.x
    q = q / np.linalg.norm(q)
    return q, cost(q)


def quats_to_mats(quats: np.ndarray) -> np.ndarray:
    """Vectorized reference quaternion-batch to rotation-matrix-batch map."""
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=1)


def make_search_grid(rng: np.random.Generator, size: int = 4096) -> np.ndarray:
    """Coarse covering of S^3 by random unit quaternions, reusable across sets."""
    grid = rng.standard_normal((size, 4))
    grid /= np.linalg.norm(grid, axis=1, keepdims=True)
    return grid


def brute_force_ql2_mean(quats: np.ndarray, weights: np.ndarray,
                         rng: np.random.Generator, grid_size: int = 4096,
                         grid: np.ndarray | None = None):
    """Global minimizer of the weighted squared quaternion-L2 cost.

    Coarse search over random unit quaternions (plus the inputs themselves)
    followed by simplex refinement. Returns (q, cost).
    """
    if grid is None:
        grid = make_search_grid(rng, grid_size)
    candidates = np.vstack([grid, quats])
    dots = candidates @ quats.T
    costs = np.sum(weights[None, :] * (2.0 - 2.0 * np.abs(dots)), axis=1)
    best = candidates[int(np.argmin(costs))]
    return _refine_on_sphere(lambda q: _ql2_cost(q, quats, weights), best)


def brute_force_chordal_mean(quats: np.ndarray, weights: np.ndarray,
                             rng: np.random.Generator, grid_size: int = 4096,
                             grid: np.ndarray | None = None):
    """Global minimizer of the weighted squared chordal (Frobenius) cost."""
    mats = quats_to_mats(quats)
    if grid is None:
        grid = make_search_grid(rng, grid_size)
    candidates = np.vstack([grid, quats])
    candidate_mats = quats_to_mats(candidates)
    diffs = candidate_mats[:, None, :, :] - mats[None, :, :, :]
    costs = np.sum(weights[None, :] * np.sum(diffs * diffs, axis=(2, 3)), axis=1)
    best = candidates[int(np.argmin(costs))]
    return _refine_on_sphere(lambda q: _chordal_cost(q, mats, weights), best)


def random_unit_quat(rng: np.random.Generator) -> np.ndarray:
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def random_quat_cluster(rng: np.random.Generator, count: int, max_pairwise_deg: float) -> np.ndarray:
    """Unit quaternions whose pairwise rotation angles stay under the given bound."""
    center = random_unit_quat(rng)
    half_cone = math.radians(max_pairwise_deg) / 2.0
    out = []
    while len(out) < count:
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, half_cone * 0.98)
        dq = np.concatenate(([math.cos(angle / 2.0)], math.sin(angle / 2.0) * axis))
        w1, x1, y1, z1 = center
        w2, x2, y2, z2 = dq
        q = np.array([
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ])
        out.append(q / np.linalg.norm(q))
    return np.stack(out)


# --- rotation matrices, Euler angles and rotation metrics ---

def is_rotation_matrix(matrix: np.ndarray, tol: float = _ORTHO_TOL) -> bool:
    """True when matrix is 3x3, orthonormal within tol, and det = +1 within tol."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (3, 3):
        return False
    if not np.allclose(matrix.T @ matrix, np.eye(3), atol=tol):
        return False
    return abs(float(np.linalg.det(matrix)) - 1.0) <= tol


def matrix_to_quat(matrix: np.ndarray) -> UnitQuaternion:
    """Quaternion of a rotation matrix, canonical sign.

    Uses the Shepperd-style branch on the largest of trace / diagonal
    elements, which stays well-conditioned near 180 degree rotations.
    Raises ValueError when the input fails orthonormality by more than 1e-6.
    """
    R = np.asarray(matrix, dtype=float)
    if not is_rotation_matrix(R):
        raise ValueError("matrix is not a rotation: orthonormality/det check failed")

    trace = R[0, 0] + R[1, 1] + R[2, 2]
    if trace > max(R[0, 0], R[1, 1], R[2, 2]):
        s = math.sqrt(trace + 1.0) * 2.0
        q = (0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s)
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = ((R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s)
    elif R[1, 1] >= R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = ((R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s)
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = ((R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s)
    return UnitQuaternion(*q).canonical()


def riemannian_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic distance on SO(3): the rotation angle of a @ b.T, in [0, pi]."""
    rel = np.asarray(a, dtype=float) @ np.asarray(b, dtype=float).T
    cos_term = (np.trace(rel) - 1.0) / 2.0
    skew = 0.5 * np.array([rel[2, 1] - rel[1, 2], rel[0, 2] - rel[2, 0], rel[1, 0] - rel[0, 1]])
    sin_term = float(np.linalg.norm(skew))
    return math.atan2(sin_term, float(cos_term))


def quat_l2_distance(a: UnitQuaternion, b: UnitQuaternion) -> float:
    """Sign-invariant quaternion metric: min(|a - b|, |a + b|)."""
    av, bv = a.as_array(), b.as_array()
    return float(min(np.linalg.norm(av - bv), np.linalg.norm(av + bv)))


def chordal_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius-norm distance between two rotation matrices."""
    return float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))


@dataclass(frozen=True)
class EulerZYX:
    """ZYX (yaw-pitch-roll) Euler angles, each wrapped to (-pi, pi]."""

    roll: float
    pitch: float
    yaw: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "roll", wrap_angle(self.roll))
        object.__setattr__(self, "pitch", wrap_angle(self.pitch))
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))


def euler_zyx_to_matrix(e: EulerZYX) -> np.ndarray:
    """R = Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    cr, sr = math.cos(e.roll), math.sin(e.roll)
    cp, sp = math.cos(e.pitch), math.sin(e.pitch)
    cy, sy = math.cos(e.yaw), math.sin(e.yaw)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


def matrix_to_euler_zyx(matrix: np.ndarray) -> EulerZYX:
    """Extract ZYX angles; at gimbal lock (|pitch| = pi/2) roll is set to 0."""
    R = np.asarray(matrix, dtype=float)
    sp = -R[2, 0]
    sp = min(1.0, max(-1.0, float(sp)))
    pitch = math.asin(sp)
    if abs(math.cos(pitch)) > 1e-9:
        roll = math.atan2(R[2, 1], R[2, 2])
        yaw = math.atan2(R[1, 0], R[0, 0])
    else:
        roll = 0.0
        yaw = math.atan2(-R[0, 1], R[1, 1])
    return EulerZYX(roll, pitch, yaw)


# --- detections as objects, and map entries by id ---

@dataclass(frozen=True)
class Detection:
    """One observation as an object: tag id plus its pose in the camera frame."""

    tag_id: int
    pose_tag_in_camera: Pose
    apparent_side: float

    def __post_init__(self) -> None:
        if not self.pose_tag_in_camera.position[2] > 0:  # NaN fails too
            raise ValueError("detected tag must lie in front of the camera (z > 0)")


def rows_from(detections) -> DetectionRows:
    """Detection objects as the array bundle, in list order."""
    return DetectionRows(
        np.array([d.tag_id for d in detections], dtype=np.int64),
        np.array([d.pose_tag_in_camera.position for d in detections]).reshape(-1, 3),
        np.array([d.pose_tag_in_camera.orientation.as_array() for d in detections]).reshape(-1, 4),
        np.array([d.apparent_side for d in detections], dtype=float),
    )


def detections_from(rows: DetectionRows) -> list:
    """The rows of the array bundle as Detection objects, in row order."""
    return [Detection(i, Pose(p, UnitQuaternion(*q)), a) for i, p, q, a in
            zip(rows.ids.tolist(), rows.positions, rows.quats.tolist(), rows.apparent.tolist())]


@functools.lru_cache(maxsize=16)
def _entries_by_id(tag_map) -> dict:
    return {e.tag_id: e for e in tag_map.entries}


def entry_of(tag_map, tag_id: int):
    """The map entry of a tag id, None when the id is not in the map."""
    return _entries_by_id(tag_map).get(tag_id)


# --- per-tag loop forms of the estimator's stages (bitwise reference) ---

def loop_select_tags(detections, tag_map, mode) -> list:
    """Object-per-tag hierarchical selection over Detection objects whose
    ids all resolve in the map: JBT keeps the first detection of the
    largest class, TBS those of the two largest classes present, ALL
    everything; output sorted by tag id (stable)."""
    ordered = sorted(detections, key=lambda d: d.tag_id)
    if mode is ThsMode.ALL or not ordered:
        return ordered
    classes = [entry_of(tag_map, d.tag_id).size_class.class_index for d in ordered]
    if mode is ThsMode.JBT:
        return [ordered[classes.index(max(classes))]]
    second = sorted(set(classes))[-2:][0]
    return [d for d, c in zip(ordered, classes) if c >= second]


def selected_rows(rows: DetectionRows, tag_map, mode) -> DetectionRows:
    """The detection rows `select_tags` keeps, each id's size class looked
    up in the map (every id must resolve)."""
    m = tag_map.world_frames()
    return rows.take(select_tags(rows.ids, m.classes[m.rows_of(rows.ids)], mode))


def step_detections(detections: DetectionRows, tag_map, config, state=None,
                    camera_in_body: Pose = Pose.identity()):
    """`step` over one frame's detections: the frame chain of those rows
    alone, through the camera mount, then the frame's step."""
    body_poses = estimate_body_pose_per_tag(detections, tag_map, camera_in_body)
    return step(body_poses, tag_map, config, state)


@dataclass(frozen=True)
class PerTagEstimate:
    """Body pose in the world frame recovered from a single tag detection."""

    tag_id: int
    body_pose_est: Pose
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")


def as_bundle(estimates) -> TagEstimates:
    """PerTagEstimates as the pipeline's array bundle, rows in tag-id order
    (stable for repeated ids)."""
    ordered = sorted(estimates, key=lambda e: e.tag_id)
    return TagEstimates(
        np.array([e.tag_id for e in ordered], dtype=np.int64),
        np.array([e.body_pose_est.position for e in ordered]).reshape(-1, 3),
        np.array([e.body_pose_est.orientation.as_array() for e in ordered]).reshape(-1, 4),
        np.array([e.weight for e in ordered], dtype=float),
    )


def unbundle(bundle: TagEstimates) -> list:
    """The rows of an array bundle as PerTagEstimates, in row order."""
    return [PerTagEstimate(int(i), Pose(p, UnitQuaternion.from_array(q)), float(w))
            for i, p, q, w in zip(bundle.ids, bundle.positions, bundle.quats, bundle.weights)]


def loop_estimate_body_pose_per_tag(detection, tag_map, camera_in_body: Pose,
                                    weights: WeightScheme = WeightScheme.UNIFORM):
    """Object-per-tag frame chain world<-tag, tag<-camera, camera<-body;
    None when the id is not in the map."""
    entry = entry_of(tag_map, detection.tag_id)
    if entry is None:
        return None
    body_in_world = compose(
        entry.pose_in_world,
        compose(inverse(detection.pose_tag_in_camera), inverse(camera_in_body)),
    )
    return PerTagEstimate(detection.tag_id, body_in_world,
                          weights.weight_for(entry.size_class))


def loop_remove_outliers(estimates, gain: float = 1.5):
    """Per-axis fences from one np.percentile call per axis, intersected."""
    ordered = sorted(estimates, key=lambda e: e.tag_id)
    if len(ordered) < 3:
        return ordered, []
    positions = np.array([e.body_pose_est.position for e in ordered])
    keep = np.ones(len(ordered), dtype=bool)
    for axis in range(3):
        column = positions[:, axis]
        if column.max() - column.min() <= EQUAL_SPREAD_TOL:
            continue
        q1, q3 = np.percentile(column, [25.0, 75.0])
        spread = q3 - q1
        lower, upper = float(q1 - gain * spread), float(q3 + gain * spread)
        keep &= (column > lower) & (column < upper)
    kept = [e for e, k in zip(ordered, keep) if k]
    rejected = [e for e, k in zip(ordered, keep) if not k]
    return kept, rejected


def loop_reference_index(kept) -> int:
    """Largest weight wins, ties broken by smallest tag id."""
    return max(range(len(kept)), key=lambda i: (kept[i].weight, -kept[i].tag_id))


def loop_sign_aligned_weighted_sum(quats, weights, ref_index: int):
    """Flip each quaternion to the reference's hemisphere, accumulate one
    weighted term at a time, normalize; None when the sum collapses."""
    ref = quats[ref_index].as_array()
    total = np.zeros(4)
    for q, w in zip(quats, weights):
        qv = q.as_array()
        if ref @ qv < 0.0:
            qv = -qv
        total += w * qv
    norm = np.linalg.norm(total)
    if norm < 1e-12:
        return None
    return UnitQuaternion.from_array(total / norm)


def loop_pairwise_dispersion_exceeds(quats, limit: float) -> bool:
    """Rotation angle of every pair against the limit, one pair at a time."""
    for i in range(len(quats)):
        for j in range(i + 1, len(quats)):
            if quat_rotation_angle(quats[i], quats[j]) >= limit:
                return True
    return False


def loop_fuse_rotations_ql2(kept) -> RotationFusion:
    quats = [e.body_pose_est.orientation for e in kept]
    weights = [e.weight for e in kept]
    mean = loop_sign_aligned_weighted_sum(quats, weights, loop_reference_index(kept))
    warning = loop_pairwise_dispersion_exceeds(quats, math.pi / 2.0)
    if mean is None:
        return RotationFusion(None, dispersion_warning=warning, degenerate=True)
    return RotationFusion(mean, dispersion_warning=warning)


def loop_fuse_rotations_cl2(kept) -> RotationFusion:
    accumulator = np.zeros((4, 4))
    for e in kept:
        q = e.body_pose_est.orientation.as_array()
        accumulator += e.weight * np.outer(q, q)
    eigenvalues, eigenvectors = np.linalg.eigh(accumulator)
    if eigenvalues[-1] - eigenvalues[-2] < 1e-9:
        return RotationFusion(None, degenerate=True)
    return RotationFusion(UnitQuaternion.from_array(eigenvectors[:, -1]).canonical())


def loop_fir_smooth(history, new_pose, length: int):
    window = (list(history) + [new_pose])[-length:]
    head = window[0]
    if all(
        np.array_equal(p.position, head.position) and p.orientation == head.orientation
        for p in window[1:]
    ):
        return head
    position = np.mean([p.position for p in window], axis=0)
    quats = [p.orientation for p in window]
    mean = loop_sign_aligned_weighted_sum(quats, [1.0] * len(quats), len(quats) - 1)
    if mean is None:
        mean = new_pose.orientation
    return Pose(position, mean)


# --- unculled and per-tag loop forms of the simulator (bitwise reference) ---

def unculled_visible_tags(tag_map, cam, body_pose_true: Pose) -> DetectionRows:
    """`visible_tags` without its cull by tag centre: the corners of every
    map tag are projected and tested."""
    m = tag_map.world_frames()
    cam_in_world = compose(body_pose_true, cam.pose_in_body)
    world_in_cam = inverse(cam_in_world)
    R = quat_to_matrix(world_in_cam.orientation)
    t = world_in_cam.position

    front_facing = (m.normals * (cam_in_world.position[None, :] - m.positions)).sum(axis=1) > 0.0
    corners_cam = m.corners @ R.T + t  # (n, 4, 3)
    z = corners_cam[:, :, 2]
    in_front = np.all(z > 1e-9, axis=1)
    z_safe = np.where(z > 1e-9, z, 1.0)
    u = cam.principal[0] + cam.focal_px * corners_cam[:, :, 0] / z_safe
    v = cam.principal[1] + cam.focal_px * corners_cam[:, :, 1] / z_safe
    width, height = cam.image_size
    inside = np.all((u >= 0) & (u <= width) & (v >= 0) & (v <= height), axis=1)

    pixels = np.stack([u, v], axis=-1)
    edges = pixels - np.roll(pixels, shift=1, axis=1)
    apparent = np.linalg.norm(edges, axis=-1).mean(axis=1)

    rows = np.flatnonzero(front_facing & in_front & inside & (apparent >= cam.detect_threshold_px))
    cam_q = world_in_cam.orientation.as_array()
    return DetectionRows(m.ids[rows], t + rotate_rows(cam_q, m.positions[rows]),
                         quat_multiply_rows(cam_q, m.quats[rows]), apparent[rows])


def _noise_rng(noise, frame_index: int, tag_id: int) -> np.random.Generator:
    # one independent, reproducible stream per (seed, frame, tag): adding or
    # removing a tag never shifts any other tag's noise
    return np.random.default_rng((noise.seed, int(frame_index), int(tag_id)))


def _perturb(pose: Pose, apparent: float, noise,
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


def loop_detect(tag_map, cam, noise, body_pose_true: Pose, frame_index: int) -> list:
    """Object-per-tag simulated detections: compose, draw and perturb one
    visible tag at a time."""
    world_in_cam = inverse(compose(body_pose_true, cam.pose_in_body))
    visible = visible_tags(tag_map, cam, body_pose_true)
    detections = []
    for tag_id, apparent in zip(visible.ids.tolist(), visible.apparent.tolist()):
        entry = entry_of(tag_map, tag_id)
        exact = compose(world_in_cam, entry.pose_in_world)
        rng = _noise_rng(noise, frame_index, entry.tag_id)
        noisy = _perturb(exact, apparent, noise, rng)
        if noisy.position[2] <= 0:
            continue
        detections.append(Detection(entry.tag_id, noisy, apparent))
    return detections
