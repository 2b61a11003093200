"""The FIR stage on its window rows, against its loop form (hypothesis).

`fir_smooth` holds its window as (k, 7) rows and sums the positions and the
sign-aligned quaternions in one pass; `oracles.loop_fir_smooth` averages a
list of `Pose`s one at a time. Windows of 1 to 7 rows are drawn from a small
pool of poses, so rows repeat and windows are often constant; the pool
holds positions that differ only in the sign of a zero and quaternions
with their antipodes. Outputs are compared by their bytes, which tells
-0.0 from 0.0. The window's quaternion mean must also be the weighted
sign-aligned mean with weights of 1. A length below 1 and an empty window
are refused.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from taglok.geometry import Pose, UnitQuaternion, quat_from_yaw  # noqa: E402
from taglok.pipeline import PipelineState, _sign_aligned_weighted_sum, fir_smooth  # noqa: E402

from oracles import loop_fir_smooth  # noqa: E402

_TILTED = UnitQuaternion(0.9, 0.1, -0.3, 0.2)
_QUATS = (UnitQuaternion.identity(), UnitQuaternion.identity().negate(), quat_from_yaw(0.4),
          quat_from_yaw(0.4).negate(), quat_from_yaw(math.pi), _TILTED, _TILTED.negate(),
          UnitQuaternion(0.0, 1.0, 0.0, 0.0))
_POSITIONS = ((0.0, 0.5, 1.25), (-0.0, 0.5, 1.25), (0.0, -0.0, 0.0), (-0.0, 0.0, -0.0),
              (0.3, -0.1, 0.9), (0.30000000000000004, -0.1, 0.9), (-2.5, 7.0, 1e-300))
_POSES = [Pose(np.array(p), q) for p in _POSITIONS for q in _QUATS]

_windows = st.lists(st.integers(0, len(_POSES) - 1), min_size=1, max_size=7).map(
    lambda picks: [_POSES[i] for i in picks])


def _bits(pose: Pose) -> bytes:
    return pose.position.tobytes() + pose.orientation.as_array().tobytes()


@settings(max_examples=400, deadline=None)
@given(_windows, st.integers(1, 7))
def test_fir_equals_loop_form(poses, length):
    history, new_pose = tuple(poses[:-1]), poses[-1]
    assert _bits(fir_smooth(history, new_pose, length)) == \
        _bits(loop_fir_smooth(history, new_pose, length))


@settings(max_examples=400, deadline=None)
@given(_windows)
def test_window_mean_is_the_unit_weight_sign_aligned_mean(poses):
    rows = np.array([(*p.position, *p.orientation.as_array()) for p in poses])
    smoothed = fir_smooth(PipelineState(rows), None, len(poses))
    if np.count_nonzero(rows != rows[0]):  # a constant window is returned as it is
        quats = rows[:, 3:]
        mean = _sign_aligned_weighted_sum(quats, np.ones(len(quats)), len(quats) - 1)
        assert smoothed.orientation.as_array().tobytes() == \
            UnitQuaternion.from_array(mean).as_array().tobytes()
        assert smoothed.position.tobytes() == rows[:, :3].mean(axis=0).tobytes()
    else:
        assert _bits(smoothed) == _bits(poses[0])


@pytest.mark.parametrize("length", [0, -1, -5])
def test_a_length_below_one_is_refused(length):
    poses = tuple(_POSES[:3])
    with pytest.raises(ValueError, match=f"got {length}"):
        fir_smooth(poses, _POSES[4], length)


def test_an_empty_window_is_refused():
    with pytest.raises(ValueError, match="empty"):
        fir_smooth((), None, 5)
    with pytest.raises(ValueError, match="empty"):
        fir_smooth(PipelineState(), None, 5)
