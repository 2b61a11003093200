"""The batched simulator against the object-per-tag simulator.

Every comparison is exact (`==`): `detect` keeps each tag's noise stream
and the scalar rounding of every step, so each detection must equal
`loop_detect`'s bit for bit, and the same tags must be skipped.
"""

import numpy as np
import pytest

from taglok.camsim import NoiseModel, default_camera, detect, visible_tags
from taglok.geometry import Pose, quat_from_yaw
from taglok.harness import spline_trajectory_t3, square_trajectory_t1
from taglok.tagmap import build_pattern_map

from oracles import loop_detect

# the configuration file's default noise
DEFAULT_NOISE = NoiseModel(position_sigma_at_ref=0.01, rotation_sigma_at_ref=0.02,
                           outlier_probability=0.05, outlier_position_scale=12.0,
                           outlier_rotation_scale=8.0, seed=11)


@pytest.fixture(scope="module")
def pattern_map():
    return build_pattern_map((3.0, 5.0))


def hover_poses(z, count=6):
    return [Pose(np.array([1.5, 2.5, z]), quat_from_yaw(0.37 * k)) for k in range(count)]


def trajectory_poses(trajectory, count=12):
    poses = []
    for k in range(count):
        position, yaw = trajectory.sample(trajectory.duration * k / count)
        poses.append(Pose(position, quat_from_yaw(yaw)))
    return poses


def assert_same_detections(tag_map, cam, noise, poses, first_frame=0):
    """Every frame's detections equal the loop form's; returns how many
    detections and how many visible tags the frames had."""
    detected = visible = 0
    for frame, pose in enumerate(poses, start=first_frame):
        batched = detect(tag_map, cam, noise, pose, frame)
        looped = loop_detect(tag_map, cam, noise, pose, frame)
        assert [d.tag_id for d in batched] == [d.tag_id for d in looped]
        for a, b in zip(batched, looped):
            qa, qb = a.pose_tag_in_camera.orientation, b.pose_tag_in_camera.orientation
            assert (qa.w, qa.x, qa.y, qa.z) == (qb.w, qb.x, qb.y, qb.z)
            assert np.array_equal(a.pose_tag_in_camera.position, b.pose_tag_in_camera.position)
            assert a.apparent_side == b.apparent_side
            assert type(a.tag_id) is int and type(a.apparent_side) is float
        detected += len(batched)
        visible += len(visible_tags(tag_map, cam, pose))
    return detected, visible


@pytest.mark.parametrize("z", [0.8, 1.4, 2.0])
def test_hover_frames(pattern_map, z):
    detected, _ = assert_same_detections(pattern_map, default_camera(), DEFAULT_NOISE,
                                         hover_poses(z))
    assert detected > 0


@pytest.mark.parametrize("trajectory", [square_trajectory_t1(), spline_trajectory_t3()],
                         ids=["t1", "t3"])
def test_trajectory_frames(pattern_map, trajectory):
    detected, _ = assert_same_detections(pattern_map, default_camera(), DEFAULT_NOISE,
                                         trajectory_poses(trajectory), first_frame=40)
    assert detected > 0


@pytest.mark.parametrize("noise", [
    NoiseModel(position_sigma_at_ref=0.01, rotation_sigma_at_ref=0.02, size_exponent=1.37,
               outlier_probability=0.3, outlier_position_scale=12.0,
               outlier_rotation_scale=8.0, seed=5),
    NoiseModel.zero(),
], ids=["outliers-exponent-1.37", "zero-noise"])
def test_noise_models(pattern_map, noise):
    poses = hover_poses(0.8, 3) + hover_poses(1.4, 3) + hover_poses(2.0, 3)
    detected, _ = assert_same_detections(pattern_map, default_camera(), noise, poses)
    assert detected > 200


def test_mount_offset_and_large_seed(pattern_map):
    cam = default_camera(mount_offset=np.array([0.05, -0.03, 0.02]))
    noise = NoiseModel(position_sigma_at_ref=0.01, rotation_sigma_at_ref=0.02,
                       outlier_probability=0.05, outlier_position_scale=12.0,
                       outlier_rotation_scale=8.0, seed=2**32 + 7)
    detected, _ = assert_same_detections(pattern_map, cam, noise, hover_poses(1.4),
                                         first_frame=2**31)
    assert detected > 0


def test_empty_view(pattern_map):
    far = [Pose(np.array([1.5, 2.5, 500.0]), quat_from_yaw(0.0))]
    assert assert_same_detections(pattern_map, default_camera(), DEFAULT_NOISE, far) == (0, 0)
    assert detect(pattern_map, default_camera(), DEFAULT_NOISE, far[0], 0) == []


def test_tags_pushed_behind_the_camera_are_skipped(pattern_map):
    # a position sigma of metres at 0.8 m pushes some tags behind the camera:
    # those tags are dropped for the frame and nothing raises
    noise = NoiseModel(position_sigma_at_ref=2.0, rotation_sigma_at_ref=0.02, seed=3)
    detected, visible = assert_same_detections(pattern_map, default_camera(), noise,
                                               hover_poses(0.8))
    assert 0 < detected < visible
