"""The batched simulator against the object-per-tag simulator.

Every comparison is exact (`==`): `detect` keeps each tag's noise stream
and the scalar rounding of every step, so each detection row must equal
`loop_detect`'s detection bit for bit, and the same tags must be skipped.
The batched seeding of the noise streams is checked against one
`default_rng((seed, frame, tag))` per tag, `visible_tags` against an
independent projection of every map tag through homogeneous matrices and
against its own form without the cull by tag centre.
"""

import numpy as np
import pytest

from taglok.camsim import (
    NoiseModel,
    _noise_draws,
    default_camera,
    detect,
    visible_tags,
)
from taglok.geometry import Pose, UnitQuaternion, quat_from_yaw, quat_multiply
from taglok.harness import spline_trajectory_t3, square_trajectory_t1
from taglok.tagmap import TagEntry, TagMap, build_pattern_map

from oracles import (
    _noise_rng,
    _seeded_states,
    entries_of,
    loop_detect,
    pose_to_hmat,
    random_unit_quat,
    rows_from,
    unculled_visible_tags,
)

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


def assert_same_rows(got, want):
    assert got.ids.dtype == np.int64
    assert got.positions.shape == (len(want), 3) and got.quats.shape == (len(want), 4)
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.quats, want.quats)
    assert np.array_equal(got.apparent, want.apparent)


def assert_same_detections(tag_map, cam, noise, poses, first_frame=0):
    """Every frame's detection rows equal the loop form's; returns how many
    detections and how many visible tags the frames had."""
    detected = visible = 0
    for frame, pose in enumerate(poses, start=first_frame):
        batched = detect(tag_map, cam, noise, pose, frame)
        assert_same_rows(batched, rows_from(loop_detect(tag_map, cam, noise, pose, frame)))
        detected += len(batched)
        visible += len(visible_tags(tag_map, cam, pose))
    return detected, visible


def projected_visible_ids(tag_map, cam, body_pose):
    """Ids of the tags in view, one tag at a time through 4x4 matrices: front
    face toward the camera, all four corners in front of it and inside the
    image, mean projected side at least the threshold."""
    world_to_cam = np.linalg.inv(pose_to_hmat(body_pose) @ pose_to_hmat(cam.pose_in_body))
    camera_center = np.linalg.inv(world_to_cam)[:3, 3]
    width, height = cam.image_size
    ids = []
    for entry in entries_of(tag_map):
        tag_to_world = pose_to_hmat(entry.pose_in_world)
        half = 0.5 * entry.size_class.side_length
        corners = [tag_to_world @ (x, y, 0.0, 1.0)
                   for x, y in ((-half, -half), (half, -half), (half, half), (-half, half))]
        if tag_to_world[:3, 2] @ (camera_center - tag_to_world[:3, 3]) <= 0.0:
            continue
        in_cam = [world_to_cam @ c for c in corners]
        if any(c[2] <= 1e-9 for c in in_cam):
            continue
        pixels = [np.array([width / 2.0 + cam.focal_px * c[0] / c[2],
                            height / 2.0 + cam.focal_px * c[1] / c[2]]) for c in in_cam]
        if not all(0 <= u <= width and 0 <= v <= height for u, v in pixels):
            continue
        side = np.mean([np.linalg.norm(pixels[k] - pixels[k - 1]) for k in range(4)])
        if side >= cam.detect_threshold_px:
            ids.append(entry.tag_id)
    return ids


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
    assert len(detect(pattern_map, default_camera(), DEFAULT_NOISE, far[0], 0)) == 0


def test_visible_rows_are_the_tags_in_view_seen_without_noise(pattern_map):
    cam = default_camera(mount_offset=np.array([0.05, -0.03, 0.02]))
    poses = (hover_poses(0.8, 2) + hover_poses(1.4, 2) + hover_poses(2.0, 2)
             + trajectory_poses(spline_trajectory_t3(), 6))
    for k, pose in enumerate(poses):
        visible = visible_tags(pattern_map, cam, pose)
        assert visible.ids.tolist() == projected_visible_ids(pattern_map, cam, pose)
        assert len(visible) == len(visible.ids) > 0
        assert_same_rows(visible, detect(pattern_map, cam, NoiseModel.zero(), pose, k))


def test_tags_pushed_behind_the_camera_are_skipped(pattern_map):
    # a position sigma of metres at 0.8 m pushes some tags behind the camera:
    # those tags are dropped for the frame and nothing raises
    noise = NoiseModel(position_sigma_at_ref=2.0, rotation_sigma_at_ref=0.02, seed=3)
    detected, visible = assert_same_detections(pattern_map, default_camera(), noise,
                                               hover_poses(0.8))
    assert 0 < detected < visible


# --- the batched seeding of the per-tag noise streams ---

def assert_draws_match_streams(seed, frame, ids):
    """`_seeded_states` and `_noise_draws` equal one stream per tag: its
    PCG64 state and increment, `random()`, then `standard_normal(7)`."""
    ids = np.array(ids, dtype=np.int64)
    hi, lo, inc_hi, inc_lo = _seeded_states(seed, frame, ids)
    uniform, normals = _noise_draws(seed, frame, ids)
    assert uniform.shape == (len(ids),) and normals.shape == (len(ids), 7)
    for k, tag_id in enumerate(ids.tolist()):
        rng = _noise_rng(NoiseModel(seed=seed), frame, tag_id)
        pcg = rng.bit_generator.state["state"]
        assert (int(hi[k]) << 64 | int(lo[k]), int(inc_hi[k]) << 64 | int(inc_lo[k])) \
            == (pcg["state"], pcg["inc"]), (seed, frame, tag_id)
        assert uniform[k] == rng.random(), (seed, frame, tag_id)
        assert np.array_equal(normals[k], rng.standard_normal(7)), (seed, frame, tag_id)


# SeedSequence hashes each key as little-endian uint32 words (0 is one word),
# so a frame's keys take 3 to 9 words; past four the pool mixes them in later
WORD_BOUNDARY_IDS = [0, 2**32 - 1, 2**32, 2**63 - 1]


@pytest.mark.parametrize("frame", [0, 2**32, 2**64])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64, 2**96 + 5])
def test_noise_draws_at_word_boundaries(seed, frame):
    assert_draws_match_streams(seed, frame, WORD_BOUNDARY_IDS)


@pytest.mark.parametrize("seed, frame", [(0, 0), (11, 7), (2**96 + 5, 2**64)])
def test_noise_draws_of_no_tags(seed, frame):
    uniform, normals = _noise_draws(seed, frame, np.array([], dtype=np.int64))
    assert uniform.shape == (0,) and normals.shape == (0, 7)


@pytest.mark.parametrize("seed, frame", [(11, 7), (2**32 + 7, 2**31), (2**64, 2**32)])
def test_noise_draws_mix_one_and_two_word_ids(seed, frame):
    ids = [5, 2**40 + 3, 0, 2**32, 114, 2**62 + 2**33 + 9, 2**32 - 1, 77]
    assert_draws_match_streams(seed, frame, ids)


@pytest.mark.parametrize("seed, frame, tag_id", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_negative_stream_key_rejected_like_default_rng(seed, frame, tag_id):
    with pytest.raises(ValueError):
        np.random.default_rng((seed, frame, tag_id))
    with pytest.raises(ValueError, match="non-negative"):
        _noise_draws(seed, frame, np.array([3, tag_id], dtype=np.int64))


def test_wide_map_ids(pattern_map):
    # the same tags under ids of two uint32 words: detect still equals the
    # per-tag streams
    wide = TagMap([TagEntry(2**33 * (entry.tag_id + 1) + entry.tag_id, entry.pose_in_world,
                            entry.size_class) for entry in entries_of(pattern_map)],
                  pattern_map.extent)
    detected, _ = assert_same_detections(wide, default_camera(), DEFAULT_NOISE,
                                         hover_poses(1.4, 3))
    assert detected > 0


def test_noise_draws_match_streams_on_random_keys():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.integers(0, 2**80), st.integers(0, 2**70),
                      st.lists(st.integers(0, 2**63 - 1), max_size=6))
    def check(seed, frame, ids):
        assert_draws_match_streams(seed, frame, ids)

    check()


def _tilted_down(rng) -> UnitQuaternion:
    """A body attitude within about 30 degrees of level, at any yaw."""
    angle, heading = rng.uniform(0.0, 0.5), rng.uniform(0.0, 2.0 * np.pi)
    tilt = UnitQuaternion(np.cos(0.5 * angle), np.sin(0.5 * angle) * np.cos(heading),
                          np.sin(0.5 * angle) * np.sin(heading), 0.0)
    return quat_multiply(quat_from_yaw(rng.uniform(-np.pi, np.pi)), tilt)


CAMERAS = (default_camera(), default_camera(mount_offset=np.array([0.05, -0.03, 0.02])),
           default_camera(focal_px=250.0, image_size=(320, 240), detect_threshold_px=3.0))


def test_visible_tags_cull_keeps_every_visible_tag(pattern_map):
    # any attitude puts tags behind, beside and at grazing angles to the
    # camera; a near-level one puts many in view
    rng = np.random.default_rng(5150)
    for k in range(1500):
        cam = CAMERAS[k % len(CAMERAS)]
        position = np.array([rng.uniform(-1.0, 4.0), rng.uniform(-1.0, 6.0),
                             rng.uniform(0.02, 4.0)])
        attitude = UnitQuaternion(*random_unit_quat(rng)) if k % 2 else _tilted_down(rng)
        pose = Pose(position, attitude)
        assert_same_rows(visible_tags(pattern_map, cam, pose),
                         unculled_visible_tags(pattern_map, cam, pose))


def test_visible_tags_cull_on_the_image_border(pattern_map):
    # level poses that put one corner of a tag on an image edge, and a
    # picometre to either side of it
    rng = np.random.default_rng(5151)
    m = pattern_map.world_frames()
    flips = 0
    for k in range(400):
        cam = CAMERAS[2 * (k % 2)]  # mount without offset: the camera sits at the body
        (width, height), f = cam.image_size, cam.focal_px
        cx, cy = width / 2.0, height / 2.0
        tag = int(rng.integers(len(m.ids)))
        corners, (bx, by) = m.corners[tag], m.positions[tag][:2]
        altitude = rng.uniform(0.3, 3.0)
        edge = k % 4
        if edge == 0:  # u = 0
            bx = corners[:, 0].min() + cx * altitude / f
        elif edge == 1:  # u = width
            bx = corners[:, 0].max() - (width - cx) * altitude / f
        elif edge == 2:  # v = 0 (image v runs against world y)
            by = corners[:, 1].max() - cy * altitude / f
        else:  # v = height
            by = corners[:, 1].min() + (height - cy) * altitude / f
        counts = set()
        for nudge in (-1e-12, 0.0, 1e-12):
            pose = Pose(np.array([bx + nudge, by + nudge, altitude]), UnitQuaternion.identity())
            got = visible_tags(pattern_map, cam, pose)
            assert_same_rows(got, unculled_visible_tags(pattern_map, cam, pose))
            counts.add(len(got))
        flips += len(counts) > 1
    assert flips > 20  # the poses do sit on the edge: a picometre changes what is seen
