"""Property tests of outlier removal, the rotation means and `step`
(hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from taglok.camsim import down_facing_mount  # noqa: E402
from taglok.geometry import Pose, UnitQuaternion, quat_multiply, quat_to_matrix  # noqa: E402
from taglok.pipeline import (  # noqa: E402
    EQUAL_SPREAD_TOL,
    PipelineConfig,
    RotMeanMethod,
    ThsMode,
    _reference_index,
    fuse_rotations_cl2,
    fuse_rotations_ql2,
    remove_outliers,
)
from taglok.tagmap import build_pattern_map  # noqa: E402

from oracles import (  # noqa: E402
    Detection,
    PerTagEstimate,
    as_bundle,
    naive_outlier_partition,
    rows_from,
    step_detections,
    unbundle,
)

# small integers make ties, duplicate points and zero-spread axes common
_small_int_points = st.lists(
    st.tuples(*[st.integers(-3, 3).map(float)] * 3), min_size=0, max_size=15)

_unit = st.floats(-1.0, 1.0, allow_nan=False)
_quat = st.tuples(_unit, _unit, _unit, _unit).filter(
    lambda q: sum(c * c for c in q) > 1e-2).map(lambda q: UnitQuaternion(*q))
_weighted_quats = st.lists(
    st.tuples(_quat, st.sampled_from([1.0, 2.0, 4.0, 8.0]), st.booleans()),
    min_size=1, max_size=12)


@settings(deadline=None, max_examples=300)
@given(points=_small_int_points, gain=st.sampled_from([0.5, 1.5, 3.0]))
def test_outlier_partition_matches_naive_oracle(points, gain):
    estimates = [PerTagEstimate(i, Pose(np.array(p), UnitQuaternion.identity()), 1.0)
                 for i, p in enumerate(points)]
    kept, rejected = map(unbundle, remove_outliers(as_bundle(estimates), gain))
    positions = {i: p for i, p in enumerate(points)}
    assert ([e.tag_id for e in kept], [e.tag_id for e in rejected]) == \
        naive_outlier_partition(positions, gain, EQUAL_SPREAD_TOL)


def _estimates(quats, weights):
    return as_bundle([PerTagEstimate(i, Pose(np.zeros(3), q), w)
                      for i, (q, w) in enumerate(zip(quats, weights))])


@settings(deadline=None, max_examples=300)
@given(entries=_weighted_quats)
def test_rotation_means_invariant_to_input_signs(entries):
    quats, weights, flips = zip(*entries)
    base = _estimates(quats, weights)
    flipped = _estimates([q.negate() if f else q for q, f in zip(quats, flips)], weights)

    a, b = fuse_rotations_cl2(base), fuse_rotations_cl2(flipped)
    assert a.degenerate == b.degenerate
    if not a.degenerate:
        assert np.array_equal(quat_to_matrix(a.quaternion), quat_to_matrix(b.quaternion))

    a, b = fuse_rotations_ql2(base), fuse_rotations_ql2(flipped)
    assert a.dispersion_warning == b.dispersion_warning
    rows = np.array([q.as_array() for q in quats])
    if np.any(rows @ rows[_reference_index(base)] == 0.0):
        # an input exactly a half turn from the reference has no defined
        # hemisphere, so its sign may change the mean; such a set is flagged
        assert a.dispersion_warning
        return
    assert a.degenerate == b.degenerate
    if not a.degenerate:
        assert np.array_equal(quat_to_matrix(a.quaternion), quat_to_matrix(b.quaternion))


# one tile: 17 tags of every size class, ids 0-16
_ONE_TILE = build_pattern_map((0.94, 0.94))
_HALF_TURN_ABOUT_X = UnitQuaternion(0.0, 1.0, 0.0, 0.0)
_position = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.05, 5.0))


@st.composite
def _detection_set(draw):
    """Detections of known and unknown ids whose attitudes repeat one base
    quaternion, its antipode or an orthogonal one (a half turn away), or are
    drawn freely, and whose positions often coincide."""
    base = draw(_quat)
    shared = draw(_position)
    detections = []
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["same", "antipodal", "orthogonal", "free"]))
        if kind == "same":
            q = base
        elif kind == "antipodal":
            q = base.negate()
        elif kind == "orthogonal":
            q = quat_multiply(base, _HALF_TURN_ABOUT_X)
        else:
            q = draw(_quat)
        position = shared if draw(st.booleans()) else draw(_position)
        detections.append(Detection(draw(st.integers(0, 18)), Pose(np.array(position), q),
                                    draw(st.floats(1.0, 500.0))))
    return detections


@settings(deadline=None, max_examples=200)
@given(frames=st.lists(_detection_set(), min_size=1, max_size=3))
def test_step_never_raises_or_returns_a_non_finite_pose(frames):
    for ths in ThsMode:
        for outlier_removal in (False, True):
            for rot_mean in RotMeanMethod:
                config = PipelineConfig(ths=ths, outlier_removal=outlier_removal,
                                        rot_mean=rot_mean)
                state = None
                for detections in frames:
                    output, state = step_detections(rows_from(detections), _ONE_TILE, config,
                                                    state, down_facing_mount())
                    if output.pose is not None:
                        assert np.all(np.isfinite(output.pose.position))
                        assert np.all(np.isfinite(output.pose.orientation.as_array()))
