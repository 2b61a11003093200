"""Visual-odometry estimator over tag detections.

Stages, in order: hierarchical tag selection (THS), per-tag body-pose
recovery through the known frame chain, IQR-based outlier removal (OR),
weighted multi-estimate fusion (MEF: Euclidean mean for position, quaternion
averaging for orientation), and a FIR moving average over the last few
estimates. Every stage is configurable through PipelineConfig. The frame
chain alone decides which detections are usable; `step` wires the other
stages together for one frame's rows of it and never raises on degenerate
inputs - frames that cannot produce an estimate yield pose = None with a
reason in the stage trace. Frame times stay in `harness.FrameRecord.t`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .camsim import DetectionRows
from .geometry import (
    _NORM_TOL,
    Pose,
    UnitQuaternion,
    _normalize_rows,
    inverse,
    quat_multiply_rows,
    rotate_rows,
)
from .tagmap import TagMap

# Treat a coordinate axis whose sample spread is below this as "all equal":
# the strict IQR fences would otherwise reject every sample over floating-
# point jitter. Zero spread means no outliers.
EQUAL_SPREAD_TOL = 1e-9

_DEGENERATE_NORM = 1e-12
_EIGENVALUE_GAP_TOL = 1e-9


class ThsMode(Enum):
    """Tag selection strategy: single biggest tag, everything, or the two
    biggest size classes present in the scene."""

    JBT = "jbt"
    ALL = "all"
    TBS = "tbs"


class WeightScheme(Enum):
    """Per-tag fusion weights from the tag's relative size s = 2**h, h its
    size-class index: s*s = 4**h, s = 2**h, or flat."""

    W1 = "w1"
    W2 = "w2"
    UNIFORM = "uniform"

    def weights_of(self, sizes: np.ndarray) -> np.ndarray:
        if self is WeightScheme.W1:
            return sizes * sizes
        if self is WeightScheme.W2:
            return sizes
        return np.ones_like(sizes)


class RotMeanMethod(Enum):
    QL2 = "ql2"
    CL2 = "cl2"


@dataclass(frozen=True)
class PipelineConfig:
    """Method switches; the defaults are the proposed full configuration
    (TBS selection, outlier removal on, 2**h weights, quaternion L2 mean,
    5-tap FIR)."""

    ths: ThsMode = ThsMode.TBS
    outlier_removal: bool = True
    iqr_gain: float = 1.5
    weights: WeightScheme = WeightScheme.W2
    rot_mean: RotMeanMethod = RotMeanMethod.QL2
    fir_length: int = 5

    def __post_init__(self) -> None:
        if self.iqr_gain <= 0:
            raise ValueError("iqr_gain must be positive")
        if self.fir_length < 1:
            raise ValueError("fir_length must be at least 1")


@dataclass(frozen=True)
class TagEstimates:
    """Body poses in the world frame recovered from detections, one row per
    detection: ids (n,), positions (n, 3), unit quaternions (n, 4) as
    (w, x, y, z) rows, and fusion weights (n,)."""

    ids: np.ndarray
    positions: np.ndarray
    quats: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> "TagEstimates":
        """The rows picked by a boolean mask, index array or slice."""
        return TagEstimates(self.ids[rows], self.positions[rows], self.quats[rows],
                            self.weights[rows])


# rows per array pass of the frame chain: the (rows, 4, 4) products of
# quat_multiply_rows over a whole replayed stream would cost megabytes
_CHAIN_BLOCK_ROWS = 4096

# conjugating a (w, x, y, z) row; a conjugate keeps its norm, so it needs
# no renormalization
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


@dataclass(frozen=True)
class StageTrace:
    """Per-frame diagnostics of every stage."""

    n_detections: int = 0
    unknown_ids: tuple[int, ...] = ()
    corrupt_ids: tuple[int, ...] = ()
    selected_ids: tuple[int, ...] = ()
    or_applied: bool = False
    rejected_ids: tuple[int, ...] = ()
    fusion_method: str | None = None
    dispersion_warning: bool = False
    fusion_degenerate: bool = False
    fir_taps: int = 0
    reason: str | None = None

    def to_dict(self) -> dict:
        """The fields in declaration order, tuples as lists; corrupt rows
        are rare, so their key appears only when there are some."""
        items = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in items if value or name != "corrupt_ids"}


@dataclass(frozen=True)
class EstimateOutput:
    pose: Pose | None
    tags_used: tuple[int, ...]
    stage_trace: StageTrace


@dataclass(frozen=True)
class PipelineState:
    """Carried between frames: the last few raw (pre-FIR) fused poses."""

    fir_history: tuple[Pose, ...] = ()


@dataclass(frozen=True)
class RotationFusion:
    quaternion: UnitQuaternion | None
    dispersion_warning: bool = False
    degenerate: bool = False


def select_tags(ids: np.ndarray, sizes: np.ndarray, mode: ThsMode) -> np.ndarray:
    """Hierarchical tag selection over detections given as their tag ids
    and the relative sizes 2**h of those tags: the indices of the kept
    detections, in tag-id order (stable for repeated ids).

    JBT keeps the single detection of the largest tag (ties: smallest id),
    ALL keeps everything, TBS keeps detections belonging to the two largest
    size classes present. A relative size orders tags as their side lengths
    do (each class doubles the previous side), and powers of two compare
    exactly.
    """
    order = np.argsort(ids, kind="stable")
    if mode is ThsMode.ALL or not len(order):
        return order
    sizes = sizes[order]
    if mode is ThsMode.JBT:
        # the first detection of the largest class has the smallest id
        return order[np.argmax(sizes, keepdims=True)]
    second = np.unique(sizes)[-2:][0]
    return order[sizes >= second]


def corrupt_rows(detections: DetectionRows) -> np.ndarray:
    """Which detections no estimate can come from: a position whose squared
    norm is not finite, or a quaternion whose norm is not finite or too
    small to normalize (a component NaN or infinite, a square that
    overflows, all quaternion components about zero)."""
    p, q = detections.positions, detections.quats
    with np.errstate(over="ignore"):
        p_sq, q_sq = (p * p).sum(axis=1), (q * q).sum(axis=1)
    return ~(np.isfinite(p_sq) & np.isfinite(q_sq) & (q_sq >= _NORM_TOL * _NORM_TOL))


def estimate_body_pose_per_tag(detections: DetectionRows, tag_map: TagMap,
                               camera_in_body: Pose) -> TagEstimates:
    """Recover the body pose from each detection through the frame chain
    world<-tag, tag<-camera (inverted detection), camera<-body (inverted
    mount), all rows at once, whatever number of frames they come from.

    Row i of the result belongs to detection i. A detection whose id is not
    in the map gets an all-NaN row; one that is corrupt (`corrupt_rows`)
    gets a NaN pose; no other row depends on either. Each other row, its
    quaternion normalized as `UnitQuaternion` does (a unit row stays as
    is), equals the per-tag chain
    compose(tag, compose(inverse(detection), inverse(camera_in_body))) bit
    for bit (the row helpers keep the scalar expression order). Every row
    of an id in the map, corrupt or not, has the tag's relative size 2**h
    (h its size-class index) as its weight, the W2 fusion weight, from
    which `step` derives every scheme's weights."""
    m = tag_map.world_frames()
    rows = m.rows_of(detections.ids)
    known = rows >= 0
    usable = np.flatnonzero(known & ~corrupt_rows(detections))
    mount = inverse(camera_in_body)
    mount_q = mount.orientation.as_array()
    n = len(detections)
    estimates = TagEstimates(detections.ids, np.full((n, 3), np.nan), np.full((n, 4), np.nan),
                             np.full(n, np.nan))
    # a block of rows at a time, so that a long stream's temporaries stay small
    for start in range(0, len(usable), _CHAIN_BLOCK_ROWS):
        picked = usable[start:start + _CHAIN_BLOCK_ROWS]
        tag = rows[picked]
        tag_q = m.quats[tag]
        inv_q = _normalize_rows(detections.quats[picked]) * _CONJUGATE  # inverse(detection)
        inv_p = -rotate_rows(inv_q, detections.positions[picked])
        chain_p = inv_p + rotate_rows(inv_q, mount.position)  # ... composed with the mount
        chain_q = quat_multiply_rows(inv_q, mount_q)
        estimates.positions[picked] = m.positions[tag] + rotate_rows(tag_q, chain_p)
        estimates.quats[picked] = quat_multiply_rows(tag_q, chain_q)
    estimates.weights[known] = 2.0 ** m.classes[rows[known]]
    return estimates


def _sorted_quantile(ordered: np.ndarray, q: float) -> np.ndarray:
    """The q-quantile of each column of `ordered`, sorted along axis 0, as
    np.percentile's default (linear, type 7) method gives it bit for bit:
    numpy's interpolation switches to b - (b - a) * (1 - t) at t >= 0.5."""
    index = (len(ordered) - 1) * q
    below = int(index)
    t = index - below
    a, b = ordered[below], ordered[min(below + 1, len(ordered) - 1)]
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def iqr_bounds(samples: Sequence[float] | np.ndarray, gain: float = 1.5
               ) -> tuple[float | np.ndarray, float | np.ndarray] | None:
    """Tukey fences (Q1 - gain*IQR, Q3 + gain*IQR) with linearly interpolated
    quartiles, taken along axis 0: scalars for a flat sample, one fence per
    column for an (n, k) array. Returns None for fewer than three samples."""
    if len(samples) < 3:
        return None
    samples = np.asarray(samples, dtype=float)
    ordered = np.sort(samples.reshape(len(samples), -1), axis=0)
    ordered[:, np.isnan(ordered[-1])] = np.nan  # sorted last; numpy's quartiles are NaN
    q1, q3 = _sorted_quantile(ordered, 0.25), _sorted_quantile(ordered, 0.75)
    spread = q3 - q1
    lower, upper = q1 - gain * spread, q3 + gain * spread
    return (lower, upper) if samples.ndim > 1 else (lower[0], upper[0])


def remove_outliers(estimates: TagEstimates, gain: float = 1.5
                    ) -> tuple[TagEstimates, TagEstimates]:
    """Split the estimates into (kept, rejected): kept positions lie strictly
    inside the IQR fences on every axis (intersection of the per-axis id
    sets). With fewer than three estimates the stage passes everything
    through; an axis with negligible spread keeps all samples on that axis."""
    if len(estimates) < 3:
        return estimates, estimates.take(slice(0, 0))
    positions = estimates.positions
    lower, upper = iqr_bounds(positions, gain)
    flat = np.ptp(positions, axis=0) <= EQUAL_SPREAD_TOL
    keep = np.all(flat | ((positions > lower) & (positions < upper)), axis=1)
    return estimates.take(keep), estimates.take(~keep)


def fuse_positions(kept: TagEstimates) -> np.ndarray:
    """Weighted Euclidean mean of the kept positions."""
    if not len(kept):
        raise ValueError("cannot fuse an empty estimate set")
    weights = kept.weights
    return (weights[:, None] * kept.positions).sum(axis=0) / weights.sum()


def _reference_index(kept: TagEstimates) -> int:
    """Largest weight wins, ties broken by smallest tag id."""
    return int(np.lexsort((kept.ids, -kept.weights))[0])


def _sign_aligned_weighted_sum(quats: np.ndarray, weights: np.ndarray,
                               ref_index: int) -> UnitQuaternion | None:
    """Flip each (n, 4) quaternion row to the hemisphere of row ref_index,
    then return the normalized weighted sum, or None when the sum collapses."""
    flip = quats @ quats[ref_index] < 0.0
    aligned = np.where(flip[:, None], -quats, quats)
    total = (weights[:, None] * aligned).sum(axis=0)
    norm = np.linalg.norm(total)
    if norm < _DEGENERATE_NORM:
        return None
    return UnitQuaternion.from_array(total / norm)


def fuse_rotations_ql2(kept: TagEstimates) -> RotationFusion:
    """Closed-form weighted quaternion L2 mean: sign-align to the largest-
    weight estimate, sum, normalize. The closed form is the global optimum
    when all pairwise rotation angles stay under pi/2; beyond that the
    result is still returned but flagged. A pair's angle is
    2*atan2(|v|, |w|) of its relative rotation with |w| = |qi . qj|, so the
    flag is |qi . qj| <= 1/sqrt(2) for some pair."""
    if not len(kept):
        raise ValueError("cannot fuse an empty estimate set")
    quats = kept.quats
    mean = _sign_aligned_weighted_sum(quats, kept.weights, _reference_index(kept))
    warning = bool(np.any(np.abs(quats @ quats.T) <= math.sqrt(0.5)))
    if mean is None:
        return RotationFusion(None, dispersion_warning=warning, degenerate=True)
    return RotationFusion(mean, dispersion_warning=warning)


def fuse_rotations_cl2(kept: TagEstimates) -> RotationFusion:
    """Chordal L2 mean: unit eigenvector of the largest eigenvalue of
    Q = sum(w * q * q^T). Insensitive to input sign flips by construction;
    an (almost) repeated top eigenvalue marks the fusion degenerate."""
    if not len(kept):
        raise ValueError("cannot fuse an empty estimate set")
    quats = kept.quats
    outer = quats[:, :, None] * quats[:, None, :]
    accumulator = (kept.weights[:, None, None] * outer).sum(axis=0)
    eigenvalues, eigenvectors = np.linalg.eigh(accumulator)
    if eigenvalues[-1] - eigenvalues[-2] < _EIGENVALUE_GAP_TOL:
        return RotationFusion(None, degenerate=True)
    return RotationFusion(UnitQuaternion.from_array(eigenvectors[:, -1]).canonical())


def fir_smooth(history: Sequence[Pose], new_pose: Pose, length: int) -> Pose:
    """Moving average over the last `length` raw poses (fewer during warm-up):
    unweighted mean position, uniform quaternion L2 mean for orientation with
    the newest pose as sign reference. A constant window is reproduced
    bit-exactly (a plain mean of identical doubles is not)."""
    window = (list(history) + [new_pose])[-length:]
    positions = np.array([p.position for p in window])
    quats = np.array([p.orientation.as_array() for p in window])
    if (positions == positions[0]).all() and (quats == quats[0]).all():
        return window[0]
    mean = _sign_aligned_weighted_sum(quats, np.ones(len(window)), len(window) - 1)
    if mean is None:
        mean = new_pose.orientation
    return Pose(positions.mean(axis=0), mean)


def step(body_poses: TagEstimates, config: PipelineConfig,
         state: PipelineState | None = None) -> tuple[EstimateOutput, PipelineState]:
    """Run one frame through THS -> OR -> MEF -> FIR.

    `body_poses` is the frame's rows of `estimate_body_pose_per_tag`, one
    per detection (`harness.run` computes them for a whole frame stream in
    one pass), with each known tag's relative size in `weights`. The
    chain's NaN rows are dropped up front and listed in the trace: a row
    with a NaN weight (an id missing from the map) under `unknown_ids`, a
    row with a weight but a NaN pose (a corrupt detection) under
    `corrupt_ids`. Frames yielding no usable estimate return pose = None
    with a reason; the FIR history then stays untouched.
    """
    if state is None:
        state = PipelineState()
    ids, sizes = body_poses.ids, body_poses.weights
    is_known = ~np.isnan(sizes)
    is_nan = np.isnan(body_poses.quats[:, 0])
    usable = np.flatnonzero(is_known & ~is_nan)
    trace = StageTrace(n_detections=len(body_poses),
                       unknown_ids=tuple(sorted(ids[~is_known].tolist())),
                       corrupt_ids=tuple(sorted(ids[is_known & is_nan].tolist())))
    if not len(usable):
        return EstimateOutput(None, (), replace(trace, reason="no-tags")), state

    selected = usable[select_tags(ids[usable], sizes[usable], config.ths)]
    estimates = TagEstimates(ids[selected], body_poses.positions[selected],
                             body_poses.quats[selected],
                             config.weights.weights_of(sizes[selected]))
    kept, rejected_ids = estimates, ()
    if config.outlier_removal:
        kept, rejected = remove_outliers(estimates, config.iqr_gain)
        rejected_ids = tuple(rejected.ids.tolist())
    trace = replace(trace, selected_ids=tuple(estimates.ids.tolist()),
                    or_applied=config.outlier_removal and len(estimates) >= 3,
                    rejected_ids=rejected_ids)
    if not len(kept):
        return EstimateOutput(None, (), replace(trace, reason="all-rejected")), state

    position = fuse_positions(kept)
    if config.rot_mean is RotMeanMethod.QL2:
        fusion = fuse_rotations_ql2(kept)
    else:
        fusion = fuse_rotations_cl2(kept)
    quaternion = fusion.quaternion
    if quaternion is None:
        # antipodal / maximally dispersed inputs: fall back to the reference
        quaternion = UnitQuaternion.from_array(kept.quats[_reference_index(kept)])

    raw_pose = Pose(position, quaternion)
    smoothed = fir_smooth(state.fir_history, raw_pose, config.fir_length)
    new_state = PipelineState((state.fir_history + (raw_pose,))[-config.fir_length:])
    trace = replace(trace, fusion_method=config.rot_mean.value,
                    dispersion_warning=fusion.dispersion_warning,
                    fusion_degenerate=fusion.degenerate, fir_taps=len(new_state.fir_history))
    return EstimateOutput(smoothed, tuple(kept.ids.tolist()), trace), new_state


def apply_variant(config: PipelineConfig, variant: str) -> PipelineConfig:
    """Override method axes from a dash-separated token string, e.g.
    'tbs-or-w2-ql2' or 'all-noor'. Unknown tokens raise ValueError."""
    ths = {m.value: m for m in ThsMode}
    weights = {w.value: w for w in WeightScheme}
    rot = {r.value: r for r in RotMeanMethod}
    for token in variant.lower().split("-"):
        if not token:
            continue
        if token in ths:
            config = replace(config, ths=ths[token])
        elif token in weights:
            config = replace(config, weights=weights[token])
        elif token in rot:
            config = replace(config, rot_mean=rot[token])
        elif token == "or":
            config = replace(config, outlier_removal=True)
        elif token in ("noor", "notor"):
            config = replace(config, outlier_removal=False)
        else:
            raise ValueError(f"unknown variant token {token!r} in {variant!r}")
    return config
