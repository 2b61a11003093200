import math

import numpy as np
import pytest

from taglok.camsim import (
    CameraModel,
    Detection,
    NoiseModel,
    default_camera,
    detect,
    down_facing_mount,
    format_detection_line,
    parse_detection_line,
    read_detection_stream,
    visible_tags,
)
from taglok.geometry import Pose, UnitQuaternion, quat_rotation_angle
from taglok.tagmap import SizeClass, TagEntry, TagMap, build_pattern_map

from oracles import hmat, pose_to_hmat


def body_at(x, y, z):
    return Pose(np.array([x, y, z], dtype=float), UnitQuaternion.identity())


def single_tag_map(size_class=SizeClass.XL, position=(0.0, 0.0, 0.0), orientation=None):
    orientation = orientation or UnitQuaternion.identity()
    entry = TagEntry(0, Pose(np.array(position, dtype=float), orientation), size_class)
    return TagMap([entry], (2.0, 2.0))


class TestCameraModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            default_camera(focal_px=-1.0)
        with pytest.raises(ValueError):
            CameraModel(600.0, (0, 0), (0, 720), down_facing_mount())

    def test_down_facing_mount_points_camera_down(self):
        # camera z-axis expressed in body coordinates must be -z
        mount = down_facing_mount()
        T = pose_to_hmat(mount)
        assert np.allclose(T[:3, 2], [0.0, 0.0, -1.0], atol=1e-12)
        assert np.allclose(T[:3, 0], [1.0, 0.0, 0.0], atol=1e-12)


class TestVisibility:
    def test_apparent_side_hand_computed(self):
        # 0.46 m tag seen from 0.8 m with focal 600 px: 600 * 0.46 / 0.8 = 345 px
        cam = default_camera()
        vis = visible_tags(single_tag_map(), cam, body_at(0.0, 0.0, 0.8))
        assert len(vis) == 1
        entry, apparent = vis[0]
        assert entry.tag_id == 0
        assert apparent == pytest.approx(345.0, abs=1e-9)

    def test_corner_outside_image_not_visible(self):
        cam = default_camera()
        # image edge at x = z * (width/2) / focal = 0.8533 m from the axis
        inside = single_tag_map(SizeClass.S, position=(0.80, 0.0, 0.0))
        outside = single_tag_map(SizeClass.S, position=(0.84, 0.0, 0.0))
        assert len(visible_tags(inside, cam, body_at(0, 0, 0.8))) == 1
        assert len(visible_tags(outside, cam, body_at(0, 0, 0.8))) == 0

    def test_below_threshold_not_visible(self):
        cam = default_camera()
        # XL from 30 m: apparent 9.2 px < 12 px
        assert visible_tags(single_tag_map(), cam, body_at(0, 0, 30.0)) == []

    def test_whole_map_too_high_gives_empty_list(self):
        cam = default_camera()
        tag_map = build_pattern_map((3.0, 5.0))
        assert visible_tags(tag_map, cam, body_at(1.5, 2.5, 60.0)) == []

    def test_back_face_not_visible(self):
        cam = default_camera()
        # tag flipped to face the floor: camera sees its back
        flipped = single_tag_map(orientation=UnitQuaternion(0.0, 1.0, 0.0, 0.0))
        assert visible_tags(flipped, cam, body_at(0, 0, 0.8)) == []

    def test_camera_behind_tag_plane_not_visible(self):
        cam = default_camera()
        assert visible_tags(single_tag_map(), cam, body_at(0, 0, -0.8)) == []

    def test_threshold_configurable(self):
        lenient = default_camera(detect_threshold_px=5.0)
        assert len(visible_tags(single_tag_map(), lenient, body_at(0, 0, 30.0))) == 1


class TestDetect:
    def test_zero_noise_matches_homogeneous_chain(self):
        cam = default_camera()
        tag_map = single_tag_map()
        body = body_at(0.1, -0.2, 0.9)
        dets = detect(tag_map, cam, NoiseModel.zero(), body, frame_index=3)
        assert len(dets) == 1
        got = pose_to_hmat(dets[0].pose_tag_in_camera)
        T_cam_world = pose_to_hmat(body) @ pose_to_hmat(cam.pose_in_body)
        expected = np.linalg.inv(T_cam_world) @ hmat((0, 0, 0), (1, 0, 0, 0))
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_zero_noise_straight_down_geometry(self):
        cam = default_camera()
        dets = detect(single_tag_map(), cam, NoiseModel.zero(), body_at(0, 0, 0.8), 0)
        pose = dets[0].pose_tag_in_camera
        assert np.allclose(pose.position, [0.0, 0.0, 0.8], atol=1e-12)
        # down-facing camera sees the up-facing tag rotated half a turn about x
        assert quat_rotation_angle(pose.orientation, UnitQuaternion(0, 1, 0, 0)) < 1e-12

    def test_determinism_byte_identical(self):
        cam = default_camera()
        tag_map = build_pattern_map((3.0, 5.0))
        noise = NoiseModel(0.01, 0.02, 100.0, outlier_probability=0.1,
                           outlier_position_scale=10.0, seed=42)
        streams = []
        for _ in range(2):
            lines = []
            for frame in range(40):
                body = body_at(1.5, 2.5, 0.8 + 0.01 * frame)
                for det in detect(tag_map, cam, noise, body, frame):
                    lines.append(format_detection_line(frame, frame / 20.0, det))
            streams.append("\n".join(lines))
        assert streams[0] == streams[1]
        assert len(streams[0]) > 0

    def test_per_tag_streams_independent_of_other_tags(self):
        # removing one tag must not disturb another tag's noise draw
        cam = default_camera()
        noise = NoiseModel(0.01, 0.02, 100.0, seed=7)
        a = TagEntry(0, Pose(np.array([0.3, 0.0, 0.0]), UnitQuaternion.identity()), SizeClass.L)
        b = TagEntry(1, Pose(np.array([-0.3, 0.0, 0.0]), UnitQuaternion.identity()), SizeClass.L)
        both = TagMap([a, b], (2.0, 2.0))
        only_b = TagMap([b], (2.0, 2.0))
        body = body_at(0, 0, 1.0)
        det_both = [d for d in detect(both, cam, noise, body, 5) if d.tag_id == 1]
        det_only = detect(only_b, cam, noise, body, 5)
        assert np.array_equal(det_both[0].pose_tag_in_camera.position,
                              det_only[0].pose_tag_in_camera.position)

    def test_seed_changes_stream(self):
        cam = default_camera()
        tag_map = single_tag_map()
        body = body_at(0, 0, 0.8)
        d1 = detect(tag_map, cam, NoiseModel(0.01, 0.0, 100.0, seed=1), body, 0)[0]
        d2 = detect(tag_map, cam, NoiseModel(0.01, 0.0, 100.0, seed=2), body, 0)[0]
        assert not np.array_equal(d1.pose_tag_in_camera.position, d2.pose_tag_in_camera.position)


class TestNoiseStatistics:
    # single XL tag seen from 2.76 m: apparent = 600 * 0.46 / 2.76 = 100 px,
    # exactly the reference size, so sigmas apply unscaled
    REF_ALTITUDE = 2.76

    def collect_position_errors(self, noise, frames, altitude=REF_ALTITUDE):
        cam = default_camera()
        tag_map = single_tag_map()
        body = body_at(0, 0, altitude)
        exact = detect(tag_map, cam, NoiseModel.zero(), body, 0)[0].pose_tag_in_camera
        errors = np.empty((frames, 3))
        for frame in range(frames):
            det = detect(tag_map, cam, noise, body, frame)[0]
            errors[frame] = det.pose_tag_in_camera.position - exact.position
        return errors

    def test_position_sigma_at_reference(self):
        sigma = 0.01
        errors = self.collect_position_errors(NoiseModel(sigma, 0.0, 100.0, seed=11), 10_000)
        pooled_std = float(np.std(errors))
        assert abs(pooled_std - sigma) / sigma < 0.05

    def test_outlier_scale_multiplies_sigma(self):
        sigma = 0.01
        noise = NoiseModel(sigma, 0.0, 100.0, outlier_probability=1.0,
                           outlier_position_scale=10.0, seed=13)
        errors = self.collect_position_errors(noise, 10_000)
        pooled_std = float(np.std(errors))
        assert abs(pooled_std - 10.0 * sigma) / (10.0 * sigma) < 0.10

    def test_rotation_noise_mean_angle(self):
        # angle ~ |N(0, sigma)| has mean sigma * sqrt(2 / pi)
        sigma = 0.02
        cam = default_camera()
        tag_map = single_tag_map()
        body = body_at(0, 0, self.REF_ALTITUDE)
        exact = detect(tag_map, cam, NoiseModel.zero(), body, 0)[0].pose_tag_in_camera
        noise = NoiseModel(0.0, sigma, 100.0, seed=17)
        angles = [
            quat_rotation_angle(
                detect(tag_map, cam, noise, body, k)[0].pose_tag_in_camera.orientation,
                exact.orientation,
            )
            for k in range(10_000)
        ]
        expected = sigma * math.sqrt(2.0 / math.pi)
        assert abs(np.mean(angles) - expected) / expected < 0.05

    def test_error_magnitude_monotone_in_apparent_size(self):
        noise = NoiseModel(0.01, 0.0, 100.0, size_exponent=1.0, seed=19)
        mean_errors = []
        for altitude in (1.0, 2.0, 2.76):  # apparent 276, 138, 100 px
            errors = self.collect_position_errors(noise, 10_000, altitude=altitude)
            mean_errors.append(float(np.mean(np.linalg.norm(errors, axis=1))))
        assert mean_errors[0] <= mean_errors[1] <= mean_errors[2]


class TestDetectionInvariants:
    def test_tag_behind_camera_rejected(self):
        with pytest.raises(ValueError):
            Detection(0, Pose(np.array([0.0, 0.0, -1.0]), UnitQuaternion.identity()), 50.0)

    def test_nan_depth_rejected(self):
        with pytest.raises(ValueError, match="in front of the camera"):
            Detection(0, Pose(np.array([0.0, 0.0, math.nan]), UnitQuaternion.identity()), 50.0)

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(position_sigma_at_ref=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(outlier_probability=1.5)
        with pytest.raises(ValueError):
            NoiseModel(seed=-1)


class TestStreamFormat:
    def test_line_round_trip_exact(self):
        pose = Pose(np.array([0.123456789012345, -0.2, 1.5]),
                    UnitQuaternion(0.7071067811865476, 0.0, 0.0, 0.7071067811865476))
        det = Detection(17, pose, 86.5)
        frame, t, back = parse_detection_line(format_detection_line(9, 0.45, det))
        assert frame == 9 and t == 0.45
        assert back.tag_id == 17
        assert np.array_equal(back.pose_tag_in_camera.position, pose.position)
        assert back.pose_tag_in_camera.orientation == pose.orientation
        assert back.apparent_side == det.apparent_side

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_detection_line("1 2 3")

    @pytest.mark.parametrize("column, name", [
        (1, "t"), (3, "px"), (4, "py"), (5, "pz"), (7, "qx"), (10, "apparent_side")])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_field_rejected(self, column, name, bad):
        tokens = "0 0.0 5 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0".split()
        tokens[column] = bad
        with pytest.raises(ValueError, match=f"non-finite {name} '{bad}'"):
            parse_detection_line(" ".join(tokens))

    def test_stream_grouped_by_frame_in_frame_order(self, tmp_path):
        pose = Pose(np.array([0.1, -0.2, 1.5]), UnitQuaternion.identity())
        lines = [format_detection_line(frame, t, Detection(tag, pose, 50.0))
                 for frame, t, tag in ((3, 0.15, 7), (1, 0.05, 2), (3, 0.15, 4))]
        path = tmp_path / "stream.txt"
        path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n", encoding="utf-8")
        frames = read_detection_stream(path)
        assert [(f.index, f.t, f.truth) for f in frames] == [(1, 0.05, None), (3, 0.15, None)]
        assert [[d.tag_id for d in f.detections] for f in frames] == [[2], [7, 4]]
