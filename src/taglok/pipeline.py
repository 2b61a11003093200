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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Sequence

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
# the 4-D angle arccos|qi . qj| of that pair, less a margin for rounding
_QUARTER_TURN_ANGLE = math.pi / 4.0 - 1e-6
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


@dataclass(frozen=True, init=False)
class TagEstimates:
    """Body poses in the world frame recovered from detections, one row per
    detection: ids (n,), positions (n, 3), unit quaternions (n, 4) as
    (w, x, y, z) rows, and fusion weights (n,)."""

    ids: np.ndarray
    positions: np.ndarray
    quats: np.ndarray
    weights: np.ndarray

    def __init__(self, ids: np.ndarray, positions: np.ndarray, quats: np.ndarray,
                 weights: np.ndarray) -> None:
        # built several times a frame, so the fields go straight into
        # __dict__: a generated __init__ calls object.__setattr__ once per
        # field, at about twice the cost (a NamedTuple would be cheaper
        # still, but its len() is its field count, not the row count)
        self.__dict__.update(ids=ids, positions=positions, quats=quats, weights=weights)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows) -> "TagEstimates":
        """The rows picked by an index array or slice."""
        if isinstance(rows, slice):
            return TagEstimates(self.ids[rows], self.positions[rows], self.quats[rows],
                                self.weights[rows])
        # ndarray.take copies the same rows as fancy indexing, at a fraction of its cost
        return TagEstimates(self.ids.take(rows), self.positions.take(rows, axis=0),
                            self.quats.take(rows, axis=0), self.weights.take(rows))


# what `remove_outliers` rejects when it rejects nothing (arrays without
# elements, so sharing them is safe)
_NO_ESTIMATES = TagEstimates(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), np.zeros((0, 4)),
                             np.zeros(0))

# rows per array pass of the frame chain: the row helpers' column
# temporaries grow with the pass, so blocks bound them (a t3 stream's 26k
# rows peak at 3.0 MiB under tracemalloc in blocks, 8.2 MiB in one pass);
# a row's bits do not depend on its block
_CHAIN_BLOCK_ROWS = 4096

# conjugating a (w, x, y, z) row; a conjugate keeps its norm, so it needs
# no renormalization
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])

# a row's sign in a sign-aligned mean, at index 0 when the row is kept and 1
# when it is flipped, and the same for a FIR window row's seven columns
_SIGNS = np.array([1.0, -1.0])
_WINDOW_SIGNS = np.array([[1.0] * 7, [1.0] * 3 + [-1.0] * 4])


class StageTrace(NamedTuple):
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
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in zip(self._fields, self) if value or name != "corrupt_ids"}


class EstimateOutput(NamedTuple):
    pose: Pose | None
    tags_used: tuple[int, ...]
    stage_trace: StageTrace


@dataclass(frozen=True, eq=False)
class PipelineState:
    """Carried between frames: the FIR window, the last few raw (pre-FIR)
    fused poses, oldest first, as (k, 7) rows of a position (x, y, z) and a
    unit quaternion (w, x, y, z)."""

    window: np.ndarray = field(default_factory=lambda: np.zeros((0, 7)))

    def pushed(self, position: np.ndarray, quat: np.ndarray, length: int) -> "PipelineState":
        """The window with one more raw pose, cut to its last `length` rows."""
        rows = np.concatenate((self.window.reshape(-1), position, quat)).reshape(-1, 7)
        return PipelineState(rows[-length:])


class RotationFusion(NamedTuple):
    """A rotation mean: `quat` is the (w, x, y, z) row of a unit quaternion
    as `UnitQuaternion` holds it, None when the fusion is degenerate."""

    quat: np.ndarray | None
    dispersion_warning: bool = False

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
    ids, p, q = detections.ids, detections.positions, detections.quats
    n = len(ids)
    if not len(m.ids):  # no row to look up: every id is unknown
        return TagEstimates(ids, *(np.full(shape, np.nan) for shape in ((n, 3), (n, 4), n)))
    rows = m.rows_of(ids)
    known = rows >= 0
    mount = inverse(camera_in_body)
    positions, quats = np.empty((n, 3)), np.empty((n, 4))
    # contiguous blocks keep a long stream's temporaries small; unknown ids (row
    # -1: the last map row) and corrupt rows (overflow, inf - inf) turn NaN below
    with np.errstate(over="ignore", invalid="ignore"):
        unusable = ~(known & np.isfinite((p * p).sum(axis=1)))
        for start in range(0, n, _CHAIN_BLOCK_ROWS):
            block = slice(start, start + _CHAIN_BLOCK_ROWS)
            tag_q = m.quats.take(rows[block], axis=0)
            inv_q = _normalize_rows(q[block]) * _CONJUGATE  # inverse(detection)
            inv_p = -rotate_rows(inv_q, p[block])
            chain_p = inv_p + rotate_rows(inv_q, mount.position)  # ... composed with the mount
            chain_q = quat_multiply_rows(inv_q, mount.orientation.as_array())
            positions[block] = m.positions.take(rows[block], axis=0) + rotate_rows(tag_q, chain_p)
            quats[block] = quat_multiply_rows(tag_q, chain_q)
    positions[unusable] = quats[unusable] = np.nan
    return TagEstimates(ids, positions, quats, np.where(known, 2.0 ** m.classes.take(rows), np.nan))


@functools.lru_cache(maxsize=256)
def _quartile_terms(n: int) -> tuple[np.ndarray, tuple[float, float]]:
    """Where Q1 and Q3 of n samples sorted along axis 0 come from, as
    np.percentile's default (linear, type 7) method interpolates them bit
    for bit. Around a quantile's index lie rows a and b, and the quantile is
    a + (b - a) * t; at t >= 0.5 numpy switches to b - (b - a) * (1 - t),
    which is b + (b - a) * (t - 1) exactly. Returns the rows (first, a1,
    a3, b1, b3, base1, base3, last), the base being a or b, and the factors
    (f1, f3)."""
    picks, bases, factors = [[], []], [], []
    for q in (0.25, 0.75):
        index = (n - 1) * q
        below = int(index)
        t = index - below
        above = min(below + 1, n - 1)
        picks[0].append(below)
        picks[1].append(above)
        bases.append(above if t >= 0.5 else below)
        factors.append(t - 1.0 if t >= 0.5 else t)
    rows = np.array([0] + picks[0] + picks[1] + bases + [n - 1])
    rows.setflags(write=False)
    return rows, (factors[0], factors[1])


def _sorted_fences(samples: np.ndarray, gain: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From one sort of the (n, k) samples along axis 0: each column's
    spread (max - min) and its Tukey fences, Q1 - gain * IQR and Q3 + gain
    * IQR, all NaN for a column with a NaN, as numpy's quartiles of it are.
    The few values picked from the sort are combined as Python floats,
    whose arithmetic is numpy's float64 arithmetic bit for bit."""
    ordered = samples.copy()  # np.sort's own steps, without its Python layer
    ordered.sort(axis=0)
    picks, (f1, f3) = _quartile_terms(len(ordered))
    spread, lower, upper = [], [], []
    for first, a1, a3, b1, b3, base1, base3, last in zip(*ordered.take(picks, axis=0).tolist()):
        if last != last:  # NaN sorts last
            base1 = base3 = math.nan
        q1 = base1 + (b1 - a1) * f1
        q3 = base3 + (b3 - a3) * f3
        margin = gain * (q3 - q1)
        spread.append(last - first)
        lower.append(q1 - margin)
        upper.append(q3 + margin)
    return np.array(spread), np.array(lower), np.array(upper)


def remove_outliers(estimates: TagEstimates, gain: float = 1.5
                    ) -> tuple[TagEstimates, TagEstimates]:
    """Split the estimates into (kept, rejected): kept positions lie strictly
    inside the IQR fences on every axis (intersection of the per-axis id
    sets). With fewer than three estimates the stage passes everything
    through; an axis with negligible spread keeps all samples on that axis.
    When nothing is rejected, `kept` is `estimates` itself."""
    positions = estimates.positions
    if len(positions) < 3:
        return estimates, _NO_ESTIMATES
    spread, lower, upper = _sorted_fences(positions, gain)
    inside = (positions > lower) & (positions < upper) | (spread <= EQUAL_SPREAD_TOL)
    keep = np.logical_and.reduce(inside, axis=1)
    kept = keep.nonzero()[0]
    if len(kept) == len(keep):
        return estimates, _NO_ESTIMATES
    return estimates.take(kept), estimates.take((~keep).nonzero()[0])


def fuse_positions(kept: TagEstimates) -> np.ndarray:
    """Weighted Euclidean mean of the kept positions."""
    weights = kept.weights
    if not len(weights):
        raise ValueError("cannot fuse an empty estimate set")
    return np.add.reduce(weights[:, None] * kept.positions, axis=0) / np.add.reduce(weights)


def _reference_index(kept: TagEstimates) -> int:
    """Largest weight wins, ties broken by smallest tag id."""
    ids = kept.ids
    if len(ids) == 1:
        return 0
    return int(np.lexsort((ids, -kept.weights))[0])


def _sign_aligned_weighted_sum(quats: np.ndarray, weights: np.ndarray,
                               ref_index: int) -> np.ndarray | None:
    """Flip each (n, 4) quaternion row to the hemisphere of row ref_index,
    then return the normalized weighted sum, or None when the sum collapses.
    A weight times a flipped row is the row times the flipped weight, the
    weight times its row's sign in `_SIGNS` (`take` reads a flip as index
    1, and no flip as 0), exactly.
    `quats.dot` and `quats @` make the same BLAS call, and the method costs
    half as much."""
    flip = quats.dot(quats[ref_index]) < 0.0
    terms = (_SIGNS.take(flip) * weights)[:, None] * quats
    return _normalized(np.add.reduce(terms, axis=0))


def _normalized(total: np.ndarray) -> np.ndarray | None:
    """A quaternion sum divided by its norm, None when the norm is too small
    to divide by. np.linalg.norm of a vector is the square root of its dot
    with itself; the result is unit to a few ulps, so `UnitQuaternion`
    keeps it as it is."""
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
    quats = kept.quats
    if not len(quats):
        raise ValueError("cannot fuse an empty estimate set")
    mean = _sign_aligned_weighted_sum(quats, kept.weights, _reference_index(kept))
    return RotationFusion(mean, dispersion_warning=_quarter_turn_apart(quats, mean))


def _quarter_turn_apart(quats: np.ndarray, mean: np.ndarray | None) -> bool:
    """Whether some pair of the unit rows has |qi . qj| <= 1/sqrt(2).

    The 4-D angle arccos|q . p| between unit quaternions is a metric, so no
    pair is a quarter turn apart when the two rows farthest from the fused
    mean lie less than pi/4 from it together; most frames are settled so,
    from one (n, 4) . (4,) product. Any other set is decided by the n x n
    Gram: a lone row has no pair (and a unit row's dot with itself is 1),
    and fmin skips NaN, so its least |qi . qj| is at most the bound exactly
    when some pair's is."""
    if len(quats) < 2:
        return False
    if mean is not None:
        closeness = np.abs(quats.dot(mean))
        closeness.sort()
        first, second = closeness[:2].tolist()  # the farthest two
        if math.acos(min(first, 1.0)) + math.acos(min(second, 1.0)) < _QUARTER_TURN_ANGLE:
            return False
    return bool(np.fmin.reduce(np.abs(quats @ quats.T), axis=None) <= _QUARTER_TURN_DOT)


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
    quats = kept.quats
    if not len(quats):
        raise ValueError("cannot fuse an empty estimate set")
    eigenvalues, eigenvectors = np.linalg.eigh(_cl2_accumulator(quats, kept.weights))
    if eigenvalues[-1] - eigenvalues[-2] < _EIGENVALUE_GAP_TOL:
        return RotationFusion(None)
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
    state whose window already ends with it, as `step`'s new state does.
    A length below 1 or an empty window raises ValueError."""
    if length < 1:
        raise ValueError(f"FIR length must be at least 1, got {length!r}")
    if not isinstance(history, PipelineState):
        history = PipelineState(np.array(
            [(*p.position, *p.orientation.as_array()) for p in history]).reshape(-1, 7))
    if new_pose is not None:
        history = history.pushed(new_pose.position, new_pose.orientation.as_array(), length)
    window = history.window
    taps = len(window)
    if not taps:
        raise ValueError("cannot smooth an empty FIR window")
    # a single row is a constant window too; np.count_nonzero is the
    # cheapest reduction of a boolean array
    if taps == 1 or not np.count_nonzero(window != window[0]):
        return Pose(window[0, :3], UnitQuaternion.from_array(window[0, 3:]))
    # the positions and the quaternions flipped to the newest one's
    # hemisphere, summed along axis 0 in one pass: a row times its signs in
    # `_WINDOW_SIGNS` is the row or the row with its quaternion negated,
    # exactly, so each column's sum is the one positions.mean(axis=0) and
    # the sign-aligned sum with weights of 1 take
    quats = window[:, 3:]
    flip = quats.dot(quats[-1]) < 0.0
    sums = np.add.reduce(window * _WINDOW_SIGNS.take(flip, axis=0), axis=0)
    mean = _normalized(sums[3:])
    if mean is None:
        mean = quats[-1]
    return Pose.holding(sums[:3] / taps, UnitQuaternion.from_array(mean))


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
    ids, sizes, first = body_poses.ids, body_poses.weights, body_poses.quats[:, 0]
    n_detections = len(ids)
    unknown_ids = corrupt_ids = ()
    # a chain row's size is finite and its quaternion's components lie in
    # [-1, 1] unless they are NaN, so one product is NaN when some row is
    # unusable; infinite sizes could make it NaN too, which costs only the
    # row by row test
    if math.isnan(sizes.dot(first)):
        is_unknown = np.isnan(sizes)
        unusable = is_unknown | np.isnan(first)
        if np.count_nonzero(unusable):
            unknown_ids = tuple(sorted(ids[is_unknown].tolist()))
            corrupt_ids = tuple(sorted(ids[unusable & ~is_unknown].tolist()))
            body_poses = body_poses.take(np.flatnonzero(~unusable))
            ids, sizes = body_poses.ids, body_poses.weights
    if not len(ids):
        trace = StageTrace(n_detections, unknown_ids, corrupt_ids, reason="no-tags")
        return EstimateOutput(None, (), trace), state

    selected = select_tags(ids, sizes, config.ths)
    estimates = TagEstimates(ids.take(selected), body_poses.positions.take(selected, axis=0),
                             body_poses.quats.take(selected, axis=0),
                             config.weights.weights_of(sizes.take(selected)))
    selected_ids = tuple(estimates.ids.tolist())
    kept, kept_ids, rejected_ids = estimates, selected_ids, ()
    if config.outlier_removal:
        kept, rejected = remove_outliers(estimates, config.iqr_gain)
        if kept is not estimates:
            kept_ids, rejected_ids = tuple(kept.ids.tolist()), tuple(rejected.ids.tolist())
    or_applied = config.outlier_removal and len(selected_ids) >= 3
    if not kept_ids:
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
                       fusion.quat is None, len(new_state.window))
    return EstimateOutput(smoothed, kept_ids, trace), new_state


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
