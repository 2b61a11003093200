import math

import numpy as np
import pytest

from taglok.camsim import DetectionRows, NoiseModel, default_camera, detect
from taglok.geometry import (
    Pose,
    UnitQuaternion,
    compose,
    inverse,
    quat_from_yaw,
    quat_rotation_angle,
    quat_to_matrix,
)
from taglok.pipeline import (
    EQUAL_SPREAD_TOL,
    PipelineConfig,
    RotMeanMethod,
    ThsMode,
    WeightScheme,
    apply_variant,
    estimate_body_pose_per_tag,
    fir_smooth,
    fuse_positions,
    fuse_rotations_cl2,
    fuse_rotations_ql2,
    remove_outliers,
)
from taglok.tagmap import SizeClass, TagEntry, TagMap, build_pattern_map

from oracles import (
    Detection,
    PerTagEstimate,
    as_bundle,
    brute_force_chordal_mean,
    brute_force_ql2_mean,
    detections_from,
    hmat,
    iqr_bounds,
    naive_iqr_fences,
    naive_outlier_partition,
    entry_of,
    loop_estimate_body_pose_per_tag,
    pose_to_hmat,
    random_quat_cluster,
    riemannian_distance,
    rows_from,
    selected_rows,
    step_detections,
    take,
    unbundle,
    weight_for,
)


def make_map(classes: dict[int, SizeClass]) -> TagMap:
    entries = [
        TagEntry(tag_id, Pose(np.array([i * 1.0, 0.0, 0.0]), UnitQuaternion.identity()), cls)
        for i, (tag_id, cls) in enumerate(sorted(classes.items()))
    ]
    return TagMap(entries, (len(classes) + 1.0, 2.0))


def make_detection(tag_id: int, position=(0.0, 0.0, 1.0), orientation=None, apparent=100.0):
    return Detection(tag_id, Pose(np.array(position, dtype=float),
                                  orientation or UnitQuaternion.identity()), apparent)


def make_estimate(tag_id: int, position, orientation=None, weight=1.0):
    return PerTagEstimate(tag_id, Pose(np.array(position, dtype=float),
                                       orientation or UnitQuaternion.identity()), weight)


def quats_to_estimates(quats, weights=None):
    weights = weights if weights is not None else [1.0] * len(quats)
    return as_bundle([
        make_estimate(i, (0.0, 0.0, 0.0), UnitQuaternion.from_array(q), w)
        for i, (q, w) in enumerate(zip(quats, weights))
    ])


class TestSelectTags:
    def test_tbs_keeps_two_biggest_classes(self):
        tag_map = make_map({1: SizeClass.S, 2: SizeClass.M, 3: SizeClass.L})
        detections = [make_detection(i) for i in (1, 2, 3)]
        selected = selected_rows(rows_from(detections), tag_map, ThsMode.TBS)
        assert selected.ids.tolist() == [2, 3]

    def test_tbs_single_class_keeps_all(self):
        tag_map = make_map({1: SizeClass.M, 2: SizeClass.M, 3: SizeClass.M})
        detections = [make_detection(i) for i in (3, 1, 2)]
        selected = selected_rows(rows_from(detections), tag_map, ThsMode.TBS)
        assert selected.ids.tolist() == [1, 2, 3]

    def test_jbt_takes_maximum_size(self):
        tag_map = make_map({7: SizeClass.XL, 3: SizeClass.L, 4: SizeClass.L})
        detections = [make_detection(i) for i in (3, 7, 4)]
        selected = selected_rows(rows_from(detections), tag_map, ThsMode.JBT)
        assert selected.ids.tolist() == [7]

    def test_jbt_tie_break_smallest_id(self):
        tag_map = make_map({3: SizeClass.L, 4: SizeClass.L})
        selected = selected_rows(rows_from([make_detection(4), make_detection(3)]), tag_map,
                               ThsMode.JBT)
        assert selected.ids.tolist() == [3]

    def test_all_keeps_everything(self):
        tag_map = make_map({1: SizeClass.S, 2: SizeClass.XL})
        detections = [make_detection(2), make_detection(1)]
        assert selected_rows(rows_from(detections), tag_map, ThsMode.ALL).ids.tolist() == [1, 2]

    def test_empty_input(self):
        tag_map = make_map({1: SizeClass.S})
        for mode in ThsMode:
            assert len(selected_rows(rows_from([]), tag_map, mode)) == 0


class TestEstimateBodyPose:
    def test_tag_at_origin_camera_equals_body(self):
        # camera one meter above the tag, looking straight down; mount identity
        tag_map = make_map({0: SizeClass.XL})
        entry_pose = entry_of(tag_map, 0).pose_in_world
        looking_down = UnitQuaternion(0.0, 1.0, 0.0, 0.0)  # half turn about x
        detection = Detection(0, Pose(np.array([0.0, 0.0, 1.0]), looking_down), 300.0)
        est, = unbundle(estimate_body_pose_per_tag(rows_from([detection]), tag_map,
                                                   Pose.identity()))
        # oracle: T_B^W = T_tag^W @ inv(T_tag^C)
        expected = pose_to_hmat(entry_pose) @ np.linalg.inv(
            pose_to_hmat(detection.pose_tag_in_camera))
        assert np.max(np.abs(pose_to_hmat(est.body_pose_est) - expected)) < 1e-12
        assert np.allclose(est.body_pose_est.position, [0.0, 0.0, 1.0], atol=1e-12)
        # body shares the camera's down-looking attitude
        assert quat_rotation_angle(est.body_pose_est.orientation, looking_down) < 1e-12

    def test_zero_noise_detection_recovers_ground_truth(self):
        cam = default_camera()
        tag_map = build_pattern_map((3.0, 5.0))
        truth = Pose(np.array([1.3, 2.2, 1.1]), quat_from_yaw(0.7))
        detections = detect(tag_map, cam, NoiseModel.zero(), truth, 0)
        for est in unbundle(estimate_body_pose_per_tag(detections, tag_map, cam.pose_in_body)):
            assert np.linalg.norm(est.body_pose_est.position - truth.position) < 1e-9
            assert quat_rotation_angle(est.body_pose_est.orientation, truth.orientation) < 1e-9

    def test_camera_lever_arm_shifts_estimate(self):
        tag_map = make_map({0: SizeClass.XL})
        detection = Detection(0, Pose(np.array([0.0, 0.0, 1.0]),
                                      UnitQuaternion(0.0, 1.0, 0.0, 0.0)), 300.0)
        offset = Pose(np.array([0.1, 0.0, 0.0]), UnitQuaternion.identity())
        with_offset, = unbundle(estimate_body_pose_per_tag(rows_from([detection]), tag_map,
                                                           offset))
        # oracle: full chain with the mount inserted
        expected = (
            pose_to_hmat(entry_of(tag_map, 0).pose_in_world)
            @ np.linalg.inv(pose_to_hmat(detection.pose_tag_in_camera))
            @ np.linalg.inv(pose_to_hmat(offset))
        )
        assert np.max(np.abs(pose_to_hmat(with_offset.body_pose_est) - expected)) < 1e-12
        without, = unbundle(estimate_body_pose_per_tag(rows_from([detection]), tag_map,
                                                       Pose.identity()))
        shift = with_offset.body_pose_est.position - without.body_pose_est.position
        # body-frame lever arm expressed in world through the body attitude
        R_body = quat_to_matrix(without.body_pose_est.orientation)
        assert np.allclose(shift, -R_body @ [0.1, 0.0, 0.0], atol=1e-12)

    def test_unknown_id_skipped(self):
        # rows stay aligned with the detections: an unknown id's row is NaN
        tag_map = make_map({0: SizeClass.XL})
        rows = rows_from([make_detection(99), make_detection(0)])
        est = estimate_body_pose_per_tag(rows, tag_map, Pose.identity())
        assert est.ids.tolist() == [99, 0]
        assert np.isnan(est.positions[0]).all() and np.isnan(est.quats[0]).all()
        assert np.isnan(est.weights[0])
        alone = estimate_body_pose_per_tag(take(rows, [1]), tag_map, Pose.identity())
        assert np.array_equal(est.positions[1:], alone.positions)
        assert np.array_equal(est.quats[1:], alone.quats)

    def test_rows_carry_their_tags_relative_size(self):
        # a known tag's row keeps 2**h as its weight even when its pose is
        # NaN (corrupt); an unknown id's row is NaN throughout
        tag_map = make_map({0: SizeClass.L, 1: SizeClass.S, 2: SizeClass.XL})
        identity = [1.0, 0.0, 0.0, 0.0]
        rows = DetectionRows(np.array([0, 1, 99, 2]),
                             np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 1.0], [0.0, 0.0, 1.0],
                                       [0.0, 0.0, 1.0]]),
                             np.array([identity, identity, identity, [0.0, 0.0, 0.0, 0.0]]),
                             np.full(4, 50.0))
        est = estimate_body_pose_per_tag(rows, tag_map, Pose.identity())
        assert est.weights[[0, 1, 3]].tolist() == [4.0, 1.0, 8.0]
        assert not np.isnan(est.positions[0]).any() and not np.isnan(est.quats[0]).any()
        for corrupt in (1, 3):
            assert np.isnan(est.positions[corrupt]).all() and np.isnan(est.quats[corrupt]).all()
        assert np.isnan(est.positions[2]).all() and np.isnan(est.quats[2]).all()
        assert np.isnan(est.weights[2])


class TestWeightScheme:
    def test_weights_table(self):
        # for every class and scheme the array rule over the relative size
        # 2**h, the per-tag rule and the table agree
        classes = [SizeClass.S, SizeClass.M, SizeClass.L, SizeClass.XL]
        sizes = np.array([2.0 ** c.value for c in classes])
        table = {WeightScheme.W1: [1.0, 4.0, 16.0, 64.0], WeightScheme.W2: [1.0, 2.0, 4.0, 8.0],
                 WeightScheme.UNIFORM: [1.0, 1.0, 1.0, 1.0]}
        for scheme, want in table.items():
            assert scheme.weights_of(sizes).tolist() == want
            assert [weight_for(scheme, c) for c in classes] == want


class TestIqrBounds:
    def test_textbook_sample(self):
        assert iqr_bounds([1.0, 2.0, 3.0, 4.0, 100.0]) == pytest.approx((-1.0, 7.0))

    def test_equal_samples_collapse(self):
        assert iqr_bounds([3.0, 3.0, 3.0, 3.0]) == pytest.approx((3.0, 3.0))

    def test_interpolated_quartiles(self):
        lower, upper = iqr_bounds([0.0, 0.0, 0.0, 10.0])
        assert (lower, upper) == pytest.approx((-3.75, 6.25))

    def test_under_three_samples_undefined(self):
        assert iqr_bounds([1.0, 2.0]) is None

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            samples = rng.normal(size=rng.integers(3, 40)).tolist()
            gain = float(rng.uniform(0.5, 3.0))
            assert iqr_bounds(samples, gain) == pytest.approx(naive_iqr_fences(samples, gain))

    @staticmethod
    def percentile_fences(samples, gain):
        q1, q3 = np.percentile(samples, [25.0, 75.0], axis=0)
        return q1 - gain * (q3 - q1), q3 + gain * (q3 - q1)

    @staticmethod
    def low_form_quantile(samples, q):
        # a + (b - a) * t at every t: numpy switches away from it at t >= 0.5
        ordered = np.sort(samples, axis=0)
        index = (len(samples) - 1) * q
        a, b = ordered[int(index)], ordered[min(int(index) + 1, len(samples) - 1)]
        return a + (b - a) * (index - int(index))

    def test_equals_percentile_bit_for_bit(self):
        # n = 3..120 puts each quartile at every fractional index 0, .25, .5
        # and .75; integer grids make ties
        rng = np.random.default_rng(2027)
        switched_form_differs = 0
        for n in range(3, 121):
            for ties in (False, True):
                if ties:
                    samples = rng.integers(-4, 5, size=(n, 3)) * 0.37
                else:
                    samples = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3)
                gain = float(rng.uniform(0.5, 3.0))
                lower, upper = iqr_bounds(samples, gain)
                want_lower, want_upper = self.percentile_fences(samples, gain)
                assert np.array_equal(lower, want_lower) and np.array_equal(upper, want_upper)
                flat = iqr_bounds(samples[:, 0].tolist(), gain)
                assert flat == (want_lower[0], want_upper[0])
                assert all(type(fence) is np.float64 for fence in flat)
                q1, q3 = np.percentile(samples, [25.0, 75.0], axis=0)
                switched_form_differs += (np.any(self.low_form_quantile(samples, 0.25) != q1)
                                          or np.any(self.low_form_quantile(samples, 0.75) != q3))
        assert switched_form_differs > 0  # the t >= 0.5 form was needed, not just taken

    def test_non_finite_columns_match_percentile(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(size=(9, 3))
        samples[4, 0], samples[2, 1] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            got, want = iqr_bounds(samples), self.percentile_fences(samples, 1.5)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[0][0]) and np.isfinite(got[0][2])


class TestRemoveOutliers:
    def test_single_axis_outlier_rejected(self):
        cluster = [make_estimate(i, (0.003 * i, 0.5, 1.0)) for i in range(4)]
        outlier = make_estimate(9, (1.0, 0.5, 1.0))
        kept, rejected = map(unbundle, remove_outliers(as_bundle(cluster + [outlier])))
        assert [e.tag_id for e in rejected] == [9]
        assert [e.tag_id for e in kept] == [0, 1, 2, 3]

    def test_two_estimates_pass_through(self):
        pair = [make_estimate(0, (0, 0, 0)), make_estimate(1, (5, 5, 5))]
        kept, rejected = map(unbundle, remove_outliers(as_bundle(pair)))
        assert len(kept) == 2 and rejected == []

    def test_outlier_on_two_axes_rejected_once(self):
        cluster = [make_estimate(i, (0.002 * i, 0.001 * i, 1.0 + 0.002 * i)) for i in range(5)]
        bad = make_estimate(7, (0.004, 2.0, 3.0))
        kept, rejected = map(unbundle, remove_outliers(as_bundle(cluster + [bad])))
        assert [e.tag_id for e in rejected] == [7]
        assert len(kept) + len(rejected) == 6
        # oracle agrees on the same data
        positions = {e.tag_id: e.body_pose_est.position for e in cluster + [bad]}
        oracle_kept, oracle_rejected = naive_outlier_partition(positions, 1.5, EQUAL_SPREAD_TOL)
        assert oracle_rejected == [7] and [e.tag_id for e in kept] == oracle_kept

    def test_identical_positions_all_kept(self):
        same = [make_estimate(i, (1.0, 2.0, 3.0)) for i in range(5)]
        kept, rejected = map(unbundle, remove_outliers(as_bundle(same)))
        assert len(kept) == 5 and rejected == []

    def test_floating_point_jitter_kept(self):
        base = np.array([0.8, 0.8, 0.8])
        jittered = [make_estimate(i, base + rngless) for i, rngless in enumerate(
            [(0, 0, 0), (1e-16, 0, 0), (0, 1e-16, 0), (2e-16, 0, 1e-16), (0, 0, 0)])]
        kept, rejected = map(unbundle, remove_outliers(as_bundle(jittered)))
        assert len(kept) == 5 and rejected == []

    def test_zero_iqr_with_spread_rejects_everything(self):
        # four identical values pin both quartiles; the strict fences then
        # exclude every sample, the documented single-pass semantics
        estimates = [make_estimate(i, (0.0, 1.0, 1.0)) for i in range(4)]
        estimates.append(make_estimate(9, (5.0, 1.0, 1.0)))
        kept, rejected = map(unbundle, remove_outliers(as_bundle(estimates)))
        assert kept == [] and len(rejected) == 5

    def test_matches_naive_oracle_randomized(self):
        rng = np.random.default_rng(202)
        for _ in range(300):
            n = int(rng.integers(3, 25))
            positions = {}
            for i in range(n):
                p = rng.normal(scale=0.05, size=3)
                if rng.random() < 0.25:
                    p[rng.integers(0, 3)] += rng.uniform(0.5, 3.0) * rng.choice([-1, 1])
                positions[i] = p
            estimates = [make_estimate(i, positions[i]) for i in positions]
            kept, rejected = map(unbundle, remove_outliers(as_bundle(estimates), 1.5))
            oracle_kept, oracle_rejected = naive_outlier_partition(positions, 1.5,
                                                                   EQUAL_SPREAD_TOL)
            assert [e.tag_id for e in kept] == oracle_kept
            assert [e.tag_id for e in rejected] == oracle_rejected

    def test_partition_property(self):
        rng = np.random.default_rng(203)
        estimates = [make_estimate(i, rng.normal(size=3)) for i in range(10)]
        kept, rejected = map(unbundle, remove_outliers(as_bundle(estimates)))
        ids = sorted(e.tag_id for e in kept) + sorted(e.tag_id for e in rejected)
        assert sorted(ids) == list(range(10))


class TestFusePositions:
    def test_uniform_midpoint(self):
        pair = [make_estimate(0, (0, 0, 0)), make_estimate(1, (1, 0, 0))]
        assert np.allclose(fuse_positions(as_bundle(pair)), [0.5, 0.0, 0.0])

    def test_w2_weighted_pair(self):
        # S tag (w = 1) at the origin, XL tag (w = 8) at x = 1
        light = make_estimate(0, (0, 0, 0), weight=weight_for(WeightScheme.W2, SizeClass.S))
        heavy = make_estimate(1, (1, 0, 0), weight=weight_for(WeightScheme.W2, SizeClass.XL))
        assert np.allclose(fuse_positions(as_bundle([light, heavy])), [8.0 / 9.0, 0.0, 0.0])

    def test_single_estimate(self):
        only = make_estimate(3, (0.4, -0.2, 1.0))
        assert np.array_equal(fuse_positions(as_bundle([only])), only.body_pose_est.position)

    def test_uniform_equals_arithmetic_mean(self):
        rng = np.random.default_rng(301)
        estimates = [make_estimate(i, rng.normal(size=3)) for i in range(7)]
        fused = fuse_positions(as_bundle(estimates))
        arithmetic = np.mean([e.body_pose_est.position for e in estimates], axis=0)
        assert np.allclose(fused, arithmetic, atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_positions(as_bundle([]))


class TestFuseRotationsQl2:
    def test_idempotent_on_repeats(self):
        q = quat_from_yaw(0.8)
        result = fuse_rotations_ql2(quats_to_estimates([q.as_array(), q.as_array()]))
        assert quat_rotation_angle(result.quaternion, q) < 1e-12
        assert result.quat is not None and not result.dispersion_warning

    def test_symmetric_pair_averages_to_identity(self):
        plus = quat_from_yaw(math.radians(10)).as_array()
        minus = quat_from_yaw(math.radians(-10)).as_array()
        result = fuse_rotations_ql2(quats_to_estimates([plus, minus]))
        assert quat_rotation_angle(result.quaternion, UnitQuaternion.identity()) < 1e-12

    def test_sign_flip_handled(self):
        q = quat_from_yaw(0.5)
        result = fuse_rotations_ql2(quats_to_estimates([q.as_array(), -q.as_array()]))
        assert quat_rotation_angle(result.quaternion, q) < 1e-12

    def test_orthogonal_pair_warns_but_still_fuses(self):
        a = UnitQuaternion.identity().as_array()
        b = quat_from_yaw(math.pi).as_array()  # 180 degrees apart: orthogonal quats
        result = fuse_rotations_ql2(quats_to_estimates([a, b]))
        assert result.dispersion_warning
        assert result.quaternion is not None and result.quat is not None

    def test_degenerate_sum_detected(self):
        # reference alignment makes the public path non-degenerate (the sum
        # keeps a positive dot with the reference); exercise the guard alone
        from taglok.pipeline import _sign_aligned_weighted_sum

        quats = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]])
        # the second row is flipped onto the first, so both become (0, 1, 0, 0);
        # opposite weights then cancel the sum exactly
        assert _sign_aligned_weighted_sum(quats, np.array([1.0, -1.0]), 0) is None

    def test_weighted_mean_matches_brute_force(self):
        rng = np.random.default_rng(404)
        for _ in range(30):
            quats = random_quat_cluster(rng, int(rng.integers(3, 6)), 20.0)
            weights = rng.uniform(0.5, 8.0, size=len(quats))
            result = fuse_rotations_ql2(quats_to_estimates(quats, weights))
            got = result.quaternion.as_array()
            cost = sum(
                w * min(np.linalg.norm(q - got), np.linalg.norm(q + got)) ** 2
                for q, w in zip(quats, weights)
            )
            _, best_cost = brute_force_ql2_mean(quats, weights, rng, grid_size=2048)
            assert cost <= best_cost + 1e-6

    def test_dispersion_warning_threshold(self):
        tight = quats_to_estimates([quat_from_yaw(0.0).as_array(),
                                    quat_from_yaw(1.0).as_array()])
        assert not fuse_rotations_ql2(tight).dispersion_warning
        wide = quats_to_estimates([quat_from_yaw(0.0).as_array(),
                                   quat_from_yaw(2.0).as_array()])
        assert fuse_rotations_ql2(wide).dispersion_warning

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_rotations_ql2(as_bundle([]))


class TestFuseRotationsCl2:
    def test_rank_one_repeats(self):
        q = quat_from_yaw(-0.6)
        result = fuse_rotations_cl2(quats_to_estimates([q.as_array()] * 3))
        assert quat_rotation_angle(result.quaternion, q) < 1e-9

    def test_sign_invariance_by_construction(self):
        q = quat_from_yaw(0.9)
        result = fuse_rotations_cl2(quats_to_estimates([q.as_array(), -q.as_array()]))
        assert quat_rotation_angle(result.quaternion, q) < 1e-9

    def test_clustered_matches_brute_force(self):
        rng = np.random.default_rng(505)
        for _ in range(30):
            quats = random_quat_cluster(rng, int(rng.integers(3, 6)), 20.0)
            weights = rng.uniform(0.5, 8.0, size=len(quats))
            result = fuse_rotations_cl2(quats_to_estimates(quats, weights))
            R = quat_to_matrix(result.quaternion)
            cost = sum(
                w * np.linalg.norm(quat_to_matrix(UnitQuaternion.from_array(q)) - R) ** 2
                for q, w in zip(quats, weights)
            )
            _, best_cost = brute_force_chordal_mean(quats, weights, rng, grid_size=2048)
            assert cost <= best_cost + 1e-6

    def test_maximally_dispersed_degenerate(self):
        # two orthogonal quaternions with equal weight: top eigenvalue repeats
        a = UnitQuaternion.identity().as_array()
        b = quat_from_yaw(math.pi).as_array()
        result = fuse_rotations_cl2(quats_to_estimates([a, b]))
        assert result.quat is None and result.quaternion is None


class TestFirSmooth:
    def test_constant_signal_reproduced_exactly(self):
        pose = Pose(np.array([0.3, -0.1, 0.9]), quat_from_yaw(0.4))
        history = ()
        for _ in range(8):
            out = fir_smooth(history, pose, 5)
            history = (history + (pose,))[-5:]
            assert np.array_equal(out.position, pose.position)
            assert quat_rotation_angle(out.orientation, pose.orientation) < 1e-15

    def test_unit_step_ramp(self):
        zero = Pose(np.zeros(3), UnitQuaternion.identity())
        one = Pose(np.array([1.0, 0.0, 0.0]), UnitQuaternion.identity())
        history = (zero,) * 5
        expected = [0.2, 0.4, 0.6, 0.8, 1.0, 1.0]
        for k, want in enumerate(expected):
            out = fir_smooth(history, one, 5)
            assert abs(out.position[0] - want) < 1e-12
            history = (history + (one,))[-5:]

    def test_first_frame_passthrough(self):
        pose = Pose(np.array([1.0, 2.0, 3.0]), quat_from_yaw(-0.7))
        out = fir_smooth((), pose, 5)
        assert np.array_equal(out.position, pose.position)
        assert quat_rotation_angle(out.orientation, pose.orientation) < 1e-15

    def test_orientation_average_short_way(self):
        # two yaws straddling the quaternion sign boundary average correctly
        a = quat_from_yaw(math.radians(170))
        b = quat_from_yaw(math.radians(-170)).negate()  # deliberately flipped sign
        out = fir_smooth((Pose(np.zeros(3), a),), Pose(np.zeros(3), b), 5)
        expected = quat_from_yaw(math.pi)
        assert quat_rotation_angle(out.orientation, expected) < 1e-9


class TestStep:
    def test_zero_noise_any_config_recovers_truth(self):
        cam = default_camera()
        tag_map = build_pattern_map((3.0, 5.0))
        truth = Pose(np.array([1.5, 2.5, 1.0]), quat_from_yaw(0.3))
        detections = detect(tag_map, cam, NoiseModel.zero(), truth, 0)
        assert len(detections) >= 3
        for ths in ThsMode:
            for rot in RotMeanMethod:
                for outlier_removal in (False, True):
                    cfg = PipelineConfig(ths=ths, outlier_removal=outlier_removal,
                                         rot_mean=rot)
                    out, _ = step_detections(detections, tag_map, cfg,
                                             camera_in_body=cam.pose_in_body)
                    assert out.pose is not None
                    assert np.linalg.norm(out.pose.position - truth.position) < 1e-9
                    assert quat_rotation_angle(out.pose.orientation, truth.orientation) < 1e-9

    def test_no_detections_gives_reason(self):
        tag_map = make_map({0: SizeClass.L})
        out, state = step_detections(rows_from([]), tag_map, PipelineConfig())
        assert out.pose is None
        assert out.stage_trace.reason == "no-tags"
        assert state.window[:, :3].shape == (0, 3) and state.window[:, 3:].shape == (0, 4)

    def test_unknown_ids_dropped_and_counted(self):
        tag_map = make_map({0: SizeClass.L})
        detections = [make_detection(0), make_detection(99), make_detection(100)]
        out, _ = step_detections(rows_from(detections), tag_map, PipelineConfig())
        assert out.stage_trace.unknown_ids == (99, 100)
        assert out.pose is not None

    def test_only_unknown_ids_no_estimate(self):
        tag_map = make_map({0: SizeClass.L})
        out, _ = step_detections(rows_from([make_detection(99)]), tag_map, PipelineConfig())
        assert out.pose is None and out.stage_trace.reason == "no-tags"

    def test_all_rejected_reason(self):
        tag_map = make_map({i: SizeClass.L for i in range(5)})
        detections = []
        for i in range(5):
            x = 0.0 if i < 4 else 5.0
            # chain such that the recovered body x spreads as {0,0,0,0,5}
            detections.append(Detection(i, Pose(np.array([0.0, 0.0, 1.0]),
                                                UnitQuaternion(0.0, 1.0, 0.0, 0.0)), 50.0))
        # build per-tag x offsets by moving the map entries instead
        entries = [TagEntry(i, Pose(np.array([0.0 if i < 4 else 5.0, 2.0 * i, 0.0]),
                                    UnitQuaternion.identity()), SizeClass.L) for i in range(5)]
        spread_map = TagMap(entries, (10.0, 12.0))
        out, state = step_detections(rows_from(detections), spread_map,
                                     PipelineConfig(ths=ThsMode.ALL))
        assert out.pose is None
        assert out.stage_trace.reason == "all-rejected"
        assert len(out.stage_trace.rejected_ids) == 5
        assert state.window[:, :3].shape == (0, 3) and state.window[:, 3:].shape == (0, 4)

    def test_stage_by_stage_replay_oracle(self):
        cam = default_camera()
        tag_map = build_pattern_map((3.0, 5.0))
        noise = NoiseModel(0.01, 0.02, 100.0, outlier_probability=0.1,
                           outlier_position_scale=10.0, seed=77)
        truth = Pose(np.array([1.5, 2.5, 1.2]), quat_from_yaw(0.1))
        for weights in (WeightScheme.W1, WeightScheme.W2):
            cfg = PipelineConfig(ths=ThsMode.TBS, outlier_removal=True,
                                 weights=weights, rot_mean=RotMeanMethod.QL2)
            state = None
            manual_history: tuple = ()
            for frame in range(8):
                detections = detect(tag_map, cam, noise, truth, frame)
                out, state = step_detections(detections, tag_map, cfg, state, cam.pose_in_body)

                # the per-tag chain with the scheme's weight of each tag's class
                selected = detections_from(selected_rows(detections, tag_map, cfg.ths))
                estimates = as_bundle([
                    loop_estimate_body_pose_per_tag(d, tag_map, cam.pose_in_body, cfg.weights)
                    for d in selected])
                kept, rejected = remove_outliers(estimates, cfg.iqr_gain)
                position = fuse_positions(kept)
                quaternion = fuse_rotations_ql2(kept).quaternion
                raw = Pose(position, quaternion)
                expected = fir_smooth(manual_history, raw, cfg.fir_length)
                manual_history = (manual_history + (raw,))[-cfg.fir_length:]

                assert out.tags_used == tuple(e.tag_id for e in unbundle(kept))
                assert out.stage_trace.rejected_ids == tuple(e.tag_id for e in unbundle(rejected))
                assert np.array_equal(out.pose.position, expected.position)
                assert out.pose.orientation == expected.orientation

    def test_fusion_weight_by_size_class(self):
        # the L tag (h = 2) gives body x = 0, the S tag (h = 0) body x = 1
        tag_map = make_map({0: SizeClass.L, 1: SizeClass.S})
        rows = rows_from([make_detection(0), make_detection(1)])
        for weights, large in ((WeightScheme.W1, 16.0), (WeightScheme.W2, 4.0),
                               (WeightScheme.UNIFORM, 1.0)):
            cfg = PipelineConfig(ths=ThsMode.ALL, outlier_removal=False, weights=weights,
                                 fir_length=1)
            out, _ = step_detections(rows, tag_map, cfg)
            assert out.pose.position[0] == 1.0 / (large + 1.0)

    def test_tags_used_disjoint_from_rejected(self):
        rng = np.random.default_rng(606)
        tag_map = make_map({i: SizeClass.L for i in range(8)})
        for _ in range(50):
            detections = [
                make_detection(i, (rng.normal(scale=0.3), rng.normal(scale=0.3), 1.0))
                for i in range(8)
            ]
            out, _ = step_detections(rows_from(detections), tag_map,
                                     PipelineConfig(ths=ThsMode.ALL))
            assert not set(out.tags_used) & set(out.stage_trace.rejected_ids)

    def test_trace_serializes(self):
        import json
        tag_map = make_map({0: SizeClass.L})
        out, _ = step_detections(rows_from([make_detection(0)]), tag_map, PipelineConfig())
        assert json.dumps(out.stage_trace.to_dict())


class TestPipelineInvariants:
    def test_ths_nesting(self):
        rng = np.random.default_rng(707)
        classes = list(SizeClass)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            mapping = {i: classes[rng.integers(0, 4)] for i in range(n)}
            tag_map = make_map(mapping)
            detections = [make_detection(i) for i in mapping]
            rows = rows_from(detections)
            jbt = set(selected_rows(rows, tag_map, ThsMode.JBT).ids.tolist())
            tbs = set(selected_rows(rows, tag_map, ThsMode.TBS).ids.tolist())
            every = set(selected_rows(rows, tag_map, ThsMode.ALL).ids.tolist())
            assert jbt <= tbs <= every

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(808)
        tag_map = make_map({i: SizeClass.L for i in range(6)})
        detections = [
            make_detection(i, (rng.normal(scale=0.01), rng.normal(scale=0.01), 1.0))
            for i in range(6)
        ]
        cfg = PipelineConfig(ths=ThsMode.ALL)
        baseline, _ = step_detections(rows_from(detections), tag_map, cfg)
        for _ in range(10):
            shuffled = list(detections)
            rng.shuffle(shuffled)
            out, _ = step_detections(rows_from(shuffled), tag_map, cfg)
            assert np.array_equal(out.pose.position, baseline.pose.position)
            assert out.pose.orientation == baseline.pose.orientation
            assert out.tags_used == baseline.tags_used

    def test_weight_positive_homogeneity(self):
        rng = np.random.default_rng(909)
        quats = random_quat_cluster(rng, 5, 15.0)
        weights = rng.uniform(1.0, 8.0, 5)
        base = unbundle(quats_to_estimates(quats, weights))
        scaled = unbundle(quats_to_estimates(quats, weights * 7.3))
        for i, (b, s) in enumerate(zip(base, scaled)):
            base[i] = PerTagEstimate(b.tag_id, Pose(rng.normal(size=3), b.body_pose_est.orientation), b.weight)
            scaled[i] = PerTagEstimate(s.tag_id, base[i].body_pose_est, s.weight)
        base, scaled = as_bundle(base), as_bundle(scaled)
        assert np.allclose(fuse_positions(base), fuse_positions(scaled), atol=1e-12)
        ql2_a = fuse_rotations_ql2(base).quaternion
        ql2_b = fuse_rotations_ql2(scaled).quaternion
        assert quat_rotation_angle(ql2_a, ql2_b) < 1e-12
        cl2_a = fuse_rotations_cl2(base).quaternion
        cl2_b = fuse_rotations_cl2(scaled).quaternion
        assert quat_rotation_angle(cl2_a, cl2_b) < 1e-9

    def test_ql2_cl2_agree_on_clustered_sets(self):
        rng = np.random.default_rng(1010)
        for _ in range(1000):
            quats = random_quat_cluster(rng, int(rng.integers(3, 8)), 10.0)
            weights = rng.uniform(0.5, 8.0, len(quats))
            estimates = quats_to_estimates(quats, weights)
            ql2 = fuse_rotations_ql2(estimates).quaternion
            cl2 = fuse_rotations_cl2(estimates).quaternion
            angle = riemannian_distance(quat_to_matrix(ql2), quat_to_matrix(cl2))
            assert math.degrees(angle) < 0.5

    def test_double_coverage_invariance(self):
        rng = np.random.default_rng(1111)
        for _ in range(50):
            quats = random_quat_cluster(rng, 5, 30.0)
            weights = rng.uniform(0.5, 8.0, 5)
            base = unbundle(quats_to_estimates(quats, weights))
            flips = rng.random(5) < 0.5
            flipped = [
                PerTagEstimate(e.tag_id,
                               Pose(e.body_pose_est.position,
                                    e.body_pose_est.orientation.negate() if f
                                    else e.body_pose_est.orientation),
                               e.weight)
                for e, f in zip(base, flips)
            ]
            for fuse in (fuse_rotations_ql2, fuse_rotations_cl2):
                Ra = quat_to_matrix(fuse(as_bundle(base)).quaternion)
                Rb = quat_to_matrix(fuse(as_bundle(flipped)).quaternion)
                assert np.max(np.abs(Ra - Rb)) < 1e-9


class TestApplyVariant:
    def test_tokens(self):
        cfg = apply_variant(PipelineConfig(), "jbt-noor-uniform-cl2")
        assert cfg.ths is ThsMode.JBT
        assert not cfg.outlier_removal
        assert cfg.weights is WeightScheme.UNIFORM
        assert cfg.rot_mean is RotMeanMethod.CL2

    def test_partial_override(self):
        cfg = apply_variant(PipelineConfig(), "all-notor")
        assert cfg.ths is ThsMode.ALL and not cfg.outlier_removal
        assert cfg.weights is WeightScheme.W2  # untouched default

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="bogus"):
            apply_variant(PipelineConfig(), "tbs-bogus")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(iqr_gain=-1.0)
        with pytest.raises(ValueError):
            PipelineConfig(fir_length=0)

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf])
    def test_non_finite_iqr_gain_rejected(self, gain):
        # a NaN gain used to pass and drop every frame as all-rejected
        with pytest.raises(ValueError, match="iqr_gain"):
            PipelineConfig(iqr_gain=gain)

    @pytest.mark.parametrize("length", [2.5, 5.0, True, np.int64(5), "5"])
    def test_non_int_fir_length_rejected(self, length):
        # 2.5 used to pass and fail the first step on a slice index
        with pytest.raises(ValueError, match="fir_length"):
            PipelineConfig(fir_length=length)
