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

import functools
import math
from dataclasses import dataclass, field, fields, replace
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
    unit_components,
)
from .tagmap import TagMap

# Treat a coordinate axis whose sample spread is below this as "all equal":
# the strict IQR fences would otherwise reject every sample over floating-
# point jitter. Zero spread means no outliers.
EQUAL_SPREAD_TOL = 1e-9

_EIGENVALUE_GAP_TOL = 1e-9
# |qi . qj| of two unit quaternions a quarter turn apart
_QUARTER_TURN_DOT = math.sqrt(0.5)
# the 10 distinct cells (i <= j) of a symmetric 4 x 4 matrix, and the one
# of them that fills each of its 16 cells, row by row
_UPPER_ROWS, _UPPER_COLS = np.triu_indices(4)
_MIRRORED = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]])

# `step` runs on a handful of rows per frame, where the fixed cost of a numpy
# call outweighs its arithmetic. So its stages call a ufunc's own reduce
# (np.add.reduce, not ndarray.sum), which skips a Python layer and gives the
# same result, and ndarray.take or compress rather than fancy indexing.


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
        if not 0.0 < self.iqr_gain < math.inf:  # NaN fails too
            raise ValueError(f"iqr_gain must be positive and finite, got {self.iqr_gain!r}")
        if isinstance(self.fir_length, bool) or not isinstance(self.fir_length, int):
            raise ValueError(f"fir_length must be an int, got {self.fir_length!r}")
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
        if isinstance(rows, slice):
            return TagEstimates(self.ids[rows], self.positions[rows], self.quats[rows],
                                self.weights[rows])
        if rows.dtype == bool:
            rows = rows.nonzero()[0]
        # ndarray.take copies the same rows as fancy indexing, at a fraction of its cost
        return TagEstimates(self.ids.take(rows), self.positions.take(rows, axis=0),
                            self.quats.take(rows, axis=0), self.weights.take(rows))


# what `remove_outliers` rejects when it rejects nothing (arrays without
# elements, so sharing them is safe)
_NO_ESTIMATES = TagEstimates(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), np.zeros((0, 4)),
                             np.zeros(0))

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


@dataclass(frozen=True, eq=False)
class PipelineState:
    """Carried between frames: the FIR window, the last few raw (pre-FIR)
    fused poses, oldest first, as position rows (k, 3) and unit quaternion
    rows (k, 4) in (w, x, y, z) order."""

    fir_positions: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    fir_quats: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))

    def pushed(self, position: np.ndarray, quat: np.ndarray, length: int) -> "PipelineState":
        """The window with one more raw pose, cut to its last `length` rows."""
        return PipelineState(np.concatenate((self.fir_positions, position[None]))[-length:],
                             np.concatenate((self.fir_quats, quat[None]))[-length:])


@dataclass(frozen=True)
class RotationFusion:
    """A rotation mean: `quat` is the (w, x, y, z) row of a unit quaternion
    as `UnitQuaternion` holds it, None when the fusion is degenerate."""

    quat: np.ndarray | None
    dispersion_warning: bool = False
    degenerate: bool = False

    @property
    def quaternion(self) -> UnitQuaternion | None:
        return None if self.quat is None else UnitQuaternion.from_array(self.quat)


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
    order = ids.argsort(kind="stable")
    if mode is ThsMode.ALL or not len(order):
        return order
    sizes = sizes.take(order)
    if mode is ThsMode.JBT:
        # the first detection of the largest class has the smallest id
        first = sizes.argmax()
        return order[first:first + 1]
    top = np.maximum.reduce(sizes)
    below = sizes.compress(sizes < top)
    # the second largest size present, or the largest when it is the only one
    return order.compress(sizes >= (np.maximum.reduce(below) if len(below) else top))


def estimate_body_pose_per_tag(detections: DetectionRows, tag_map: TagMap,
                               camera_in_body: Pose) -> TagEstimates:
    """Recover the body pose from each detection through the frame chain
    world<-tag, tag<-camera (inverted detection), camera<-body (inverted
    mount), all rows at once, whatever number of frames they come from.

    Row i of the result belongs to detection i. A detection whose id is not
    in the map gets an all-NaN row; a corrupt one (its position's squared
    norm not finite, or a quaternion `UnitQuaternion` refuses) a NaN pose;
    no other row depends on either. Each other row, its quaternion
    normalized as `UnitQuaternion` does (a unit row stays as is), equals
    compose(tag, compose(inverse(detection), inverse(camera_in_body))) bit
    for bit (the row helpers keep the scalar expression order). Every row
    of an id in the map, corrupt or not, has the tag's relative size 2**h
    (h its size-class index) as its weight, the W2 fusion weight, from
    which `step` derives every scheme's weights."""
    m = tag_map.world_frames()
    rows = m.rows_of(detections.ids)
    known = rows >= 0
    mount = inverse(camera_in_body)
    mount_q = mount.orientation.as_array()
    n = len(detections)
    estimates = TagEstimates(detections.ids, np.full((n, 3), np.nan), np.full((n, 4), np.nan),
                             np.full(n, np.nan))
    # a corrupt row's squares may overflow; the row then turns NaN
    with np.errstate(over="ignore"):
        p = detections.positions
        usable = np.flatnonzero(known & np.isfinite((p * p).sum(axis=1)))
        # a block of rows at a time, so that a long stream's temporaries stay small
        for start in range(0, len(usable), _CHAIN_BLOCK_ROWS):
            picked = usable[start:start + _CHAIN_BLOCK_ROWS]
            tag = rows[picked]
            tag_q = m.quats[tag]
            inv_q = _normalize_rows(detections.quats[picked]) * _CONJUGATE  # inverse(detection)
            inv_p = -rotate_rows(inv_q, p[picked])
            chain_p = inv_p + rotate_rows(inv_q, mount.position)  # ... composed with the mount
            chain_q = quat_multiply_rows(inv_q, mount_q)
            estimates.positions[picked] = m.positions[tag] + rotate_rows(tag_q, chain_p)
            estimates.quats[picked] = quat_multiply_rows(tag_q, chain_q)
    estimates.weights[known] = 2.0 ** m.classes[rows[known]]
    return estimates


@functools.lru_cache(maxsize=256)
def _quartile_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where Q1 and Q3 of n samples sorted along axis 0 come from, as
    np.percentile's default (linear, type 7) method interpolates them bit
    for bit. Around a quantile's index lie rows a and b, and the quantile is
    a + (b - a) * t; at t >= 0.5 numpy switches to b - (b - a) * (1 - t),
    which is b + (b - a) * (t - 1) exactly. Returns the rows (a1, a3, b1,
    b3, base1, base3), the base being a or b, and the factors (2, 1)."""
    picks, bases, factors = [[], []], [], []
    for q in (0.25, 0.75):
        index = (n - 1) * q
        below = int(index)
        t = index - below
        above = min(below + 1, n - 1)
        picks[0].append(below)
        picks[1].append(above)
        bases.append(above if t >= 0.5 else below)
        factors.append([t - 1.0 if t >= 0.5 else t])
    rows, factors = np.array(picks[0] + picks[1] + bases), np.array(factors)
    rows.setflags(write=False)
    factors.setflags(write=False)
    return rows, factors


def _sorted_fences(samples: np.ndarray, gain: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (n, k) samples sorted along axis 0 (a column with a NaN all
    NaN, as numpy's quartiles of it are) and their Tukey fences per column."""
    ordered = np.sort(samples, axis=0)
    nan_columns = np.isnan(ordered[-1])  # NaN sorts last
    if np.logical_or.reduce(nan_columns):
        ordered[:, nan_columns] = np.nan
    picks, factors = _quartile_terms(len(ordered))
    rows = ordered.take(picks, axis=0)
    quartiles = rows[4:] + (rows[2:4] - rows[:2]) * factors
    q1, q3 = quartiles[0], quartiles[1]
    margin = gain * (q3 - q1)
    return ordered, q1 - margin, q3 + margin


def remove_outliers(estimates: TagEstimates, gain: float = 1.5
                    ) -> tuple[TagEstimates, TagEstimates]:
    """Split the estimates into (kept, rejected): kept positions lie strictly
    inside the IQR fences on every axis (intersection of the per-axis id
    sets). With fewer than three estimates the stage passes everything
    through; an axis with negligible spread keeps all samples on that axis.
    When nothing is rejected, `kept` is `estimates` itself."""
    if len(estimates) < 3:
        return estimates, _NO_ESTIMATES
    positions = estimates.positions
    ordered, lower, upper = _sorted_fences(positions, gain)
    flat = ordered[-1] - ordered[0] <= EQUAL_SPREAD_TOL  # np.ptp, from the sort
    keep = np.logical_and.reduce(flat | ((positions > lower) & (positions < upper)), axis=1)
    kept = keep.nonzero()[0]
    if len(kept) == len(keep):
        return estimates, _NO_ESTIMATES
    return estimates.take(kept), estimates.take((~keep).nonzero()[0])


def fuse_positions(kept: TagEstimates) -> np.ndarray:
    """Weighted Euclidean mean of the kept positions."""
    if not len(kept):
        raise ValueError("cannot fuse an empty estimate set")
    weights = kept.weights
    return np.add.reduce(weights[:, None] * kept.positions, axis=0) / np.add.reduce(weights)


def _reference_index(kept: TagEstimates) -> int:
    """Largest weight wins, ties broken by smallest tag id."""
    if len(kept) == 1:
        return 0
    return int(np.lexsort((kept.ids, -kept.weights))[0])


def _sign_aligned_weighted_sum(quats: np.ndarray, weights: np.ndarray | None,
                               ref_index: int) -> np.ndarray | None:
    """Flip each (n, 4) quaternion row to the hemisphere of row ref_index,
    then return the normalized weighted sum (weights None: all 1), or None
    when the sum collapses. A weight times a flipped row is the row times
    the flipped weight, and np.linalg.norm of a vector is the square root
    of its dot with itself; the sum divided by its norm is unit to a few
    ulps, so `UnitQuaternion` keeps it as it is. `quats.dot` and `quats @`
    make the same BLAS call, and the method costs half as much."""
    flip = quats.dot(quats[ref_index]) < 0.0
    if weights is None:
        terms = np.where(flip[:, None], -quats, quats)
    else:
        terms = np.where(flip, -weights, weights)[:, None] * quats
    total = np.add.reduce(terms, axis=0)
    norm = math.sqrt(total.dot(total))
    if norm < _NORM_TOL:  # too small to normalize, as for unit_components
        return None
    return total / norm


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
    # a lone estimate has no pair (and a unit row's dot with itself is 1);
    # fmin skips NaN, so its least |qi . qj| is at most the bound exactly
    # when some pair's is
    warning = len(quats) > 1 and bool(
        np.fmin.reduce(np.abs(quats @ quats.T), axis=None) <= _QUARTER_TURN_DOT)
    return RotationFusion(mean, dispersion_warning=warning, degenerate=mean is None)


def _cl2_accumulator(quats: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum(w * q * q^T) over the rows, from the 10 distinct products: qi*qj
    and qj*qi are the same float. `take` gives the products in C order,
    which numpy sums along axis 0 row by row, so the sum is the whole
    outer-product stack's bit for bit."""
    products = quats.take(_UPPER_ROWS, axis=1) * quats.take(_UPPER_COLS, axis=1)
    return np.add.reduce(weights[:, None] * products, axis=0).take(_MIRRORED)


def fuse_rotations_cl2(kept: TagEstimates) -> RotationFusion:
    """Chordal L2 mean: unit eigenvector of the largest eigenvalue of
    Q = sum(w * q * q^T), with the sign `UnitQuaternion.canonical` gives it.
    Insensitive to input sign flips by construction; an (almost) repeated
    top eigenvalue marks the fusion degenerate."""
    if not len(kept):
        raise ValueError("cannot fuse an empty estimate set")
    eigenvalues, eigenvectors = np.linalg.eigh(_cl2_accumulator(kept.quats, kept.weights))
    if eigenvalues[-1] - eigenvalues[-2] < _EIGENVALUE_GAP_TOL:
        return RotationFusion(None, degenerate=True)
    mean = np.array(unit_components(*eigenvectors[:, -1].tolist()))
    first = mean[mean != 0.0][0]  # the first nonzero component sets the sign
    return RotationFusion(mean if first > 0.0 else -mean)


def fir_smooth(history: Sequence[Pose] | PipelineState, new_pose: Pose | None,
               length: int) -> Pose:
    """Moving average over the last `length` raw poses (fewer during warm-up):
    unweighted mean position, uniform quaternion L2 mean for orientation with
    the newest pose as sign reference. A constant window is reproduced
    bit-exactly (a plain mean of identical doubles is not).

    `history` holds the earlier raw poses, as Pose objects or as a state's
    FIR window, and `new_pose` is the newest; it is None when `history` is a
    state whose window already ends with it, as `step`'s new state does."""
    if not isinstance(history, PipelineState):
        history = PipelineState(
            np.array([p.position for p in history]).reshape(-1, 3),
            np.array([p.orientation.as_array() for p in history]).reshape(-1, 4))
    window = history
    if new_pose is not None:
        window = history.pushed(new_pose.position, new_pose.orientation.as_array(), length)
    positions, quats = window.fir_positions, window.fir_quats
    if (np.logical_and.reduce(positions == positions[0], axis=None)
            and np.logical_and.reduce(quats == quats[0], axis=None)):
        return Pose(positions[0], UnitQuaternion.from_array(quats[0]))
    mean = _sign_aligned_weighted_sum(quats, None, len(quats) - 1)
    if mean is None:
        mean = quats[-1]
    # positions.mean(axis=0) without its Python overhead: the same sum and division
    return Pose(np.add.reduce(positions, axis=0) / len(positions), UnitQuaternion.from_array(mean))


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
    with a reason; the FIR window then stays untouched. The fused pose
    stays a position row and a quaternion row, and the trace is built
    once, at the frame's end.
    """
    if state is None:
        state = PipelineState()
    n_detections = len(body_poses)
    unknown_ids = corrupt_ids = ()
    is_unknown = np.isnan(body_poses.weights)
    unusable = is_unknown | np.isnan(body_poses.quats[:, 0])
    if np.logical_or.reduce(unusable):
        ids = body_poses.ids
        unknown_ids = tuple(sorted(ids[is_unknown].tolist()))
        corrupt_ids = tuple(sorted(ids[unusable & ~is_unknown].tolist()))
        body_poses = body_poses.take(~unusable)
    if not len(body_poses):
        trace = StageTrace(n_detections, unknown_ids, corrupt_ids, reason="no-tags")
        return EstimateOutput(None, (), trace), state

    ids, sizes = body_poses.ids, body_poses.weights
    selected = select_tags(ids, sizes, config.ths)
    estimates = TagEstimates(ids.take(selected), body_poses.positions.take(selected, axis=0),
                             body_poses.quats.take(selected, axis=0),
                             config.weights.weights_of(sizes.take(selected)))
    kept, rejected_ids = estimates, ()
    if config.outlier_removal:
        kept, rejected = remove_outliers(estimates, config.iqr_gain)
        rejected_ids = tuple(rejected.ids.tolist())
    selected_ids = tuple(estimates.ids.tolist())
    or_applied = config.outlier_removal and len(estimates) >= 3
    if not len(kept):
        trace = StageTrace(n_detections, unknown_ids, corrupt_ids, selected_ids, or_applied,
                           rejected_ids, reason="all-rejected")
        return EstimateOutput(None, (), trace), state

    position = fuse_positions(kept)
    if config.rot_mean is RotMeanMethod.QL2:
        fusion = fuse_rotations_ql2(kept)
    else:
        fusion = fuse_rotations_cl2(kept)
    quat = fusion.quat
    if quat is None:
        # antipodal / maximally dispersed inputs: fall back to the reference
        quat = kept.quats[_reference_index(kept)]

    new_state = state.pushed(position, quat, config.fir_length)
    smoothed = fir_smooth(new_state, None, config.fir_length)
    trace = StageTrace(n_detections, unknown_ids, corrupt_ids, selected_ids, or_applied,
                       rejected_ids, config.rot_mean.value, fusion.dispersion_warning,
                       fusion.degenerate, len(new_state.fir_positions))
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
