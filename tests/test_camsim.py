import math

import numpy as np
import pytest

from taglok.camsim import (
    _ZIGGURAT_KI,
    _ZIGGURAT_WI,
    CameraModel,
    DetectionRows,
    NoiseModel,
    _noise_draws,
    default_camera,
    detect,
    down_facing_mount,
    format_detection_lines,
    parse_detection_line,
    read_detection_stream,
    visible_tags,
)
from taglok.geometry import Pose, UnitQuaternion, quat_rotation_angle
from taglok.harness import RunConfig, simulate, spline_trajectory_t3
from taglok.pipeline import PipelineConfig
from taglok.tagmap import SizeClass, TagEntry, TagMap, build_pattern_map

from oracles import hmat, pose_to_hmat, probe_ziggurat_tables


def body_at(x, y, z):
    return Pose(np.array([x, y, z], dtype=float), UnitQuaternion.identity())


def one_row(tag_id=0, position=(0.0, 0.0, 1.0), quat=(1.0, 0.0, 0.0, 0.0), apparent=50.0):
    return DetectionRows(np.array([tag_id]), np.array([position], dtype=float),
                         np.array([quat], dtype=float), np.array([apparent]))


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
        assert vis.ids.tolist() == [0]
        assert vis.apparent[0] == pytest.approx(345.0, abs=1e-9)

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
        assert len(visible_tags(single_tag_map(), cam, body_at(0, 0, 30.0))) == 0

    def test_whole_map_too_high_gives_empty_list(self):
        cam = default_camera()
        tag_map = build_pattern_map((3.0, 5.0))
        empty = visible_tags(tag_map, cam, body_at(1.5, 2.5, 60.0))
        assert len(empty) == 0
        assert empty.positions.shape == (0, 3) and empty.quats.shape == (0, 4)

    def test_back_face_not_visible(self):
        cam = default_camera()
        # tag flipped to face the floor: camera sees its back
        flipped = single_tag_map(orientation=UnitQuaternion(0.0, 1.0, 0.0, 0.0))
        assert len(visible_tags(flipped, cam, body_at(0, 0, 0.8))) == 0

    def test_camera_behind_tag_plane_not_visible(self):
        cam = default_camera()
        assert len(visible_tags(single_tag_map(), cam, body_at(0, 0, -0.8))) == 0

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
        got = hmat(dets.positions[0], dets.quats[0])
        T_cam_world = pose_to_hmat(body) @ pose_to_hmat(cam.pose_in_body)
        expected = np.linalg.inv(T_cam_world) @ hmat((0, 0, 0), (1, 0, 0, 0))
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_zero_noise_straight_down_geometry(self):
        cam = default_camera()
        dets = detect(single_tag_map(), cam, NoiseModel.zero(), body_at(0, 0, 0.8), 0)
        assert np.allclose(dets.positions[0], [0.0, 0.0, 0.8], atol=1e-12)
        # down-facing camera sees the up-facing tag rotated half a turn about x
        q = UnitQuaternion.from_array(dets.quats[0])
        assert quat_rotation_angle(q, UnitQuaternion(0, 1, 0, 0)) < 1e-12

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
                lines += format_detection_lines(frame, frame / 20.0,
                                                detect(tag_map, cam, noise, body, frame))
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
        det_both = detect(both, cam, noise, body, 5)
        det_only = detect(only_b, cam, noise, body, 5)
        assert np.array_equal(det_both.positions[det_both.ids == 1], det_only.positions)

    def test_seed_changes_stream(self):
        cam = default_camera()
        tag_map = single_tag_map()
        body = body_at(0, 0, 0.8)
        d1 = detect(tag_map, cam, NoiseModel(0.01, 0.0, 100.0, seed=1), body, 0).positions[0]
        d2 = detect(tag_map, cam, NoiseModel(0.01, 0.0, 100.0, seed=2), body, 0).positions[0]
        assert not np.array_equal(d1, d2)


@pytest.fixture(scope="module")
def probed_tables():
    return probe_ziggurat_tables()


class TestZigguratFastPath:
    def test_committed_tables_are_numpys(self, probed_tables):
        wi, ki = probed_tables
        assert ki[1] == 0 and np.isnan(wi[1])  # layer 1 never takes the fast path
        read = ~np.isnan(wi)
        assert read.sum() == 255
        assert np.array_equal(_ZIGGURAT_KI, ki)
        assert np.array_equal(_ZIGGURAT_WI[read], wi[read])

    def test_frame_mixing_slow_tags_with_fast_ones(self, probed_tables):
        # a tag whose seven normals all take the ziggurat's fast path is drawn
        # in arrays; one whose first failing draw is in the tail (layer 0), in
        # layer 1 or rejected in another layer goes through numpy's sampler
        ki = probed_tables[1].tolist()
        seed, frame = 11, 7

        def kind(tag_id):
            words = np.random.default_rng((seed, frame, tag_id)).bit_generator.random_raw(8)
            for word in words[1:].tolist():  # words[0] is the uniform
                layer, magnitude = word & 0xFF, word >> 9 & (2**52 - 1)
                if magnitude >= ki[layer]:
                    return "tail" if layer == 0 else "layer 1" if layer == 1 else "rejected"
            return "fast"

        wanted = {"fast": 12, "tail": 2, "layer 1": 2, "rejected": 2}
        found = {name: [] for name in wanted}
        for tag_id in range(20_000):
            name = kind(tag_id)
            if len(found[name]) < wanted[name]:
                found[name].append(tag_id)
            if all(len(found[name]) == count for name, count in wanted.items()):
                break
        assert all(len(found[name]) == count for name, count in wanted.items()), found

        ids = np.random.default_rng(3).permutation(sum(found.values(), []))
        uniform, normals = _noise_draws(seed, frame, ids)
        for k, tag_id in enumerate(ids.tolist()):
            rng = np.random.default_rng((seed, frame, tag_id))
            assert uniform[k] == rng.random(), tag_id
            assert normals[k].tobytes() == rng.standard_normal(7).tobytes(), tag_id


class TestNoiseStatistics:
    # single XL tag seen from 2.76 m: apparent = 600 * 0.46 / 2.76 = 100 px,
    # exactly the reference size, so sigmas apply unscaled
    REF_ALTITUDE = 2.76

    def collect_position_errors(self, noise, frames, altitude=REF_ALTITUDE):
        cam = default_camera()
        tag_map = single_tag_map()
        body = body_at(0, 0, altitude)
        exact = detect(tag_map, cam, NoiseModel.zero(), body, 0).positions[0]
        errors = np.empty((frames, 3))
        for frame in range(frames):
            errors[frame] = detect(tag_map, cam, noise, body, frame).positions[0] - exact
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
        exact = detect(tag_map, cam, NoiseModel.zero(), body, 0).quats[0]
        exact = UnitQuaternion.from_array(exact)
        noise = NoiseModel(0.0, sigma, 100.0, seed=17)
        angles = [
            quat_rotation_angle(
                UnitQuaternion.from_array(detect(tag_map, cam, noise, body, k).quats[0]), exact)
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
        for z in (-1.0, 0.0, -0.0):
            with pytest.raises(ValueError, match="in front of the camera"):
                one_row(position=(0.0, 0.0, z))
        with pytest.raises(ValueError, match="in front of the camera"):  # one bad row of two
            DetectionRows(np.array([1, 2]), np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]),
                          np.array([[1.0, 0.0, 0.0, 0.0]] * 2), np.array([50.0, 50.0]))
        assert len(one_row()) == 1
        assert len(one_row().take(slice(0, 0))) == 0

    def test_nan_depth_rejected(self):
        with pytest.raises(ValueError, match="in front of the camera"):
            one_row(position=(0.0, 0.0, math.nan))

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(position_sigma_at_ref=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(outlier_probability=1.5)
        with pytest.raises(ValueError):
            NoiseModel(seed=-1)


class TestStreamFormat:
    def test_line_round_trip_exact(self):
        rows = one_row(17, (0.123456789012345, -0.2, 1.5),
                       (0.7071067811865476, 0.0, 0.0, 0.7071067811865476), 86.5)
        line, = format_detection_lines(9, 0.45, rows)
        frame, t, tag_id, position, quat, apparent = parse_detection_line(line)
        assert frame == 9 and t == 0.45
        assert tag_id == 17
        assert position == tuple(rows.positions[0].tolist())
        assert quat == tuple(rows.quats[0].tolist())
        assert apparent == 86.5

    def test_quaternion_renormalized_like_unit_quaternion(self):
        for q in ((2.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5000001), (0.1, -0.3, 0.2, 0.9)):
            line = "0 0.0 5 0.0 0.0 1.0 " + " ".join(map(repr, q)) + " 50.0"
            UnitQuaternion(*q)  # accepted, so the line parses to the quaternion as written
            assert parse_detection_line(line)[4] == q
        with pytest.raises(ValueError, match="quaternion norm"):
            parse_detection_line("0 0.0 5 0.0 0.0 1.0 0.0 0.0 0.0 0.0 50.0")

    @pytest.mark.parametrize("line, match", [
        ("0 0.0 5 0.0 0.0 -1.0 1.0 0.0 0.0 0.0 50.0", "in front of the camera"),
        ("0 0.0 5 0.0 0.0 0.0 1.0 0.0 0.0 0.0 50.0", "in front of the camera"),
        (f"0 0.0 {2**63} 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0", "tag id .* out of range"),
        (f"{2**63} 0.0 5 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0", f"frame '{2**63}' out of range"),
        (f"{-2**63 - 1} 0.0 5 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0",
         f"frame '{-2**63 - 1}' out of range"),
        (f"{10**30} 0.0 5 0.0 0.0 1.0 1.0 0.0 0.0 0.0 50.0", f"frame '{10**30}' out of range"),
    ], ids=["behind", "zero-depth", "id-out-of-range", "frame-above-int64", "frame-below-int64",
            "frame-far-out-of-range"])
    def test_line_outside_the_row_form_rejected(self, line, match):
        with pytest.raises(ValueError, match=match):
            parse_detection_line(line)

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
        lines = [format_detection_lines(frame, t, one_row(tag, (0.1, -0.2, 1.5)))[0]
                 for frame, t, tag in ((3, 0.15, 7), (1, 0.05, 2), (3, 0.15, 4))]
        path = tmp_path / "stream.txt"
        path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n", encoding="utf-8")
        frames = read_detection_stream(path)
        assert [(f.index, f.t, f.truth) for f in frames] == [(1, 0.05, None), (3, 0.15, None)]
        assert [f.detections.ids.tolist() for f in frames] == [[2], [7, 4]]

    def test_stream_reads_back_simulated_rows(self, tmp_path):
        noise = NoiseModel(0.01, 0.02, 100.0, outlier_probability=0.1,
                           outlier_position_scale=12.0, outlier_rotation_scale=8.0, seed=7)
        cfg = RunConfig(spline_trajectory_t3(duration=2.0), build_pattern_map((3.0, 5.0)),
                        default_camera(), noise, PipelineConfig(), 20.0)
        simulated = [f for f in simulate(cfg) if len(f.detections)]
        # a frame with repeated ids, and one whose ids are all missing from the map
        last = simulated[-1]
        repeated = last.detections.take(np.array([0, 1, 0, 1]))
        unknown = DetectionRows(np.array([9999, 123456789]), np.array([[0.0, 0.0, 1.0]] * 2),
                                np.array([[1.0, 0.0, 0.0, 0.0]] * 2), np.array([50.0, 60.0]))
        lines = [line for f in simulated
                 for line in format_detection_lines(f.index, f.t, f.detections)]
        lines += format_detection_lines(last.index + 1, 2.05, repeated)
        lines += format_detection_lines(last.index + 2, 2.1, unknown)
        path = tmp_path / "stream.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        frames = read_detection_stream(path)
        expected = [(f.index, f.t, f.detections) for f in simulated]
        expected += [(last.index + 1, 2.05, repeated), (last.index + 2, 2.1, unknown)]
        assert len(frames) == len(expected) > 30
        for frame, (index, t, rows) in zip(frames, expected):
            assert (frame.index, frame.t, frame.truth) == (index, t, None)
            got = frame.detections
            assert got.ids.dtype == np.int64
            assert np.array_equal(got.ids, rows.ids)
            assert np.array_equal(got.positions, rows.positions)
            assert np.array_equal(got.quats, rows.quats)
            assert np.array_equal(got.apparent, rows.apparent)
