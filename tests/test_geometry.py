import math

import numpy as np
import pytest

from taglok.geometry import (
    Pose,
    UnitQuaternion,
    compose,
    inverse,
    quat_from_yaw,
    quat_multiply,
    quat_rotation_angle,
    quat_to_matrix,
    rotate_vector,
    wrap_angle,
)

from oracles import (
    EulerZYX,
    chordal_distance,
    euler_zyx_to_matrix,
    is_rotation_matrix,
    matrix_to_euler_zyx,
    matrix_to_quat,
    pose_to_hmat,
    quat_l2_distance,
    riemannian_distance,
)


def rz(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_quat(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return UnitQuaternion(*q)


def random_pose(rng):
    return Pose(rng.uniform(-2, 2, 3), random_quat(rng))


def poses_close(a, b, tol=1e-9):
    return (
        np.linalg.norm(a.position - b.position) < tol
        and quat_rotation_angle(a.orientation, b.orientation) < tol
    )


class TestUnitQuaternion:
    def test_construction_normalizes(self):
        q = UnitQuaternion(2.0, 0.0, 0.0, 0.0)
        assert q.w == 1.0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            UnitQuaternion(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("components", [
        (math.nan, 0.0, 0.0, 0.0),
        (math.inf, 0.0, 0.0, 0.0),
        (1.0, 0.0, -math.inf, 0.0),
        (1.0, 0.0, 0.0, math.nan),
        (1e200, 0.0, 0.0, 0.0),  # finite, but its square overflows
        (1.0, 0.0, 0.0, -1e155),
    ])
    def test_non_finite_rejected(self, components):
        with pytest.raises(ValueError, match="not finite"):
            UnitQuaternion(*components)

    def test_canonical_sign(self):
        assert UnitQuaternion(-1.0, 0.0, 0.0, 0.0).canonical().w == 1.0
        q = UnitQuaternion(0.0, -1.0, 0.0, 0.0).canonical()
        assert q.x == 1.0

    def test_unit_norm_after_construction(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = random_quat(rng)
            assert abs(np.linalg.norm(q.as_array()) - 1.0) < 1e-9


class TestQuatMatrix:
    def test_identity(self):
        assert np.allclose(quat_to_matrix(UnitQuaternion.identity()), np.eye(3))

    def test_quarter_turn_about_z(self):
        q = UnitQuaternion(math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(quat_to_matrix(q), expected, atol=1e-12)

    def test_double_coverage(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            q = random_quat(rng)
            assert np.allclose(quat_to_matrix(q), quat_to_matrix(q.negate()), atol=1e-12)

    def test_output_in_so3(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            R = quat_to_matrix(random_quat(rng))
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(R) - 1.0) < 1e-9

    def test_matrix_to_quat_identity(self):
        q = matrix_to_quat(np.eye(3))
        assert np.allclose(q.as_array(), [1.0, 0.0, 0.0, 0.0])

    def test_matrix_to_quat_rz90(self):
        q = matrix_to_quat(rz(math.pi / 2))
        expected = [math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4)]
        assert np.allclose(q.as_array(), expected, atol=1e-12)

    def test_round_trip_1000_random(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            R = quat_to_matrix(random_quat(rng))
            back = quat_to_matrix(matrix_to_quat(R))
            assert np.max(np.abs(back - R)) < 1e-9

    def test_round_trip_near_pi_rotations(self):
        # exercise all Shepperd branches with rotations close to 180 degrees
        rng = np.random.default_rng(19)
        for _ in range(200):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = math.pi - rng.uniform(0.0, 1e-6)
            q = UnitQuaternion(math.cos(angle / 2), *(math.sin(angle / 2) * axis))
            back = quat_to_matrix(matrix_to_quat(quat_to_matrix(q)))
            assert np.max(np.abs(back - quat_to_matrix(q))) < 1e-9

    def test_matrix_to_quat_canonical_sign(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            q = matrix_to_quat(quat_to_matrix(random_quat(rng)))
            assert q.w >= 0.0

    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError):
            matrix_to_quat(bad)
        with pytest.raises(ValueError):
            matrix_to_quat(-np.eye(3))  # det = -1

    def test_rotate_vector_matches_matrix(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            q = random_quat(rng)
            v = rng.standard_normal(3)
            assert np.allclose(rotate_vector(q, v), quat_to_matrix(q) @ v, atol=1e-12)


class TestPose:
    def test_compose_identity(self):
        rng = np.random.default_rng(31)
        p = random_pose(rng)
        assert poses_close(compose(Pose.identity(), p), p, tol=1e-12)
        assert poses_close(compose(p, Pose.identity()), p, tol=1e-12)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            p = random_pose(rng)
            assert poses_close(compose(p, inverse(p)), Pose.identity())
            assert poses_close(compose(inverse(p), p), Pose.identity())

    def test_inverse_identity(self):
        assert poses_close(inverse(Pose.identity()), Pose.identity(), tol=1e-15)

    def test_translation_then_rotation_against_hmat_oracle(self):
        a = Pose(np.array([1.0, 0.0, 0.0]), UnitQuaternion.identity())
        b = Pose(np.zeros(3), quat_from_yaw(math.pi / 2))
        got = compose(a, b)
        expected = pose_to_hmat(a) @ pose_to_hmat(b)
        assert np.allclose(pose_to_hmat(got), expected, atol=1e-12)

    def test_compose_matches_hmat_oracle_random(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            got = pose_to_hmat(compose(a, b))
            expected = pose_to_hmat(a) @ pose_to_hmat(b)
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_compose_associative(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            assert poses_close(left, right, tol=1e-9)

    def test_position_is_read_only(self):
        p = Pose.identity()
        with pytest.raises(ValueError):
            p.position[0] = 1.0


class TestDistances:
    def test_riemannian_zero(self):
        assert riemannian_distance(np.eye(3), np.eye(3)) == 0.0

    def test_riemannian_quarter_turn(self):
        assert abs(riemannian_distance(rz(math.pi / 2), np.eye(3)) - math.pi / 2) < 1e-12

    def test_riemannian_same_axis(self):
        d = riemannian_distance(rz(math.radians(30)), rz(math.radians(10)))
        assert abs(d - math.radians(20)) < 1e-12

    def test_riemannian_symmetric_and_bounded(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            Ra = quat_to_matrix(random_quat(rng))
            Rb = quat_to_matrix(random_quat(rng))
            d = riemannian_distance(Ra, Rb)
            assert abs(d - riemannian_distance(Rb, Ra)) < 1e-12
            assert 0.0 <= d <= math.pi + 1e-12

    def test_riemannian_triangle_inequality(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            Ra, Rb, Rc = (quat_to_matrix(random_quat(rng)) for _ in range(3))
            assert riemannian_distance(Ra, Rc) <= (
                riemannian_distance(Ra, Rb) + riemannian_distance(Rb, Rc) + 1e-9
            )

    def test_quat_rotation_angle_matches_riemannian(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            qa, qb = random_quat(rng), random_quat(rng)
            d_mat = riemannian_distance(quat_to_matrix(qa), quat_to_matrix(qb))
            assert abs(quat_rotation_angle(qa, qb) - d_mat) < 1e-9

    def test_quat_l2_zero_and_sign_invariance(self):
        rng = np.random.default_rng(61)
        q = random_quat(rng)
        assert quat_l2_distance(q, q) == 0.0
        assert quat_l2_distance(q, q.negate()) == 0.0
        other = random_quat(rng)
        assert abs(quat_l2_distance(q, other) - quat_l2_distance(q.negate(), other)) < 1e-12

    def test_quat_l2_example(self):
        a = UnitQuaternion.identity()
        b = UnitQuaternion(math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))
        expected = math.sqrt((1 - math.cos(math.pi / 4)) ** 2 + math.sin(math.pi / 4) ** 2)
        assert abs(quat_l2_distance(a, b) - expected) < 1e-12
        assert abs(expected - 0.7654) < 1e-4

    def test_chordal_zero_and_max(self):
        assert chordal_distance(np.eye(3), np.eye(3)) == 0.0
        assert abs(chordal_distance(rz(math.pi), np.eye(3)) - 2.0 * math.sqrt(2.0)) < 1e-12

    def test_chordal_riemannian_identity(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            Ra = quat_to_matrix(random_quat(rng))
            Rb = quat_to_matrix(random_quat(rng))
            dc = chordal_distance(Ra, Rb)
            da = riemannian_distance(Ra, Rb)
            assert abs(dc - 2.0 * math.sqrt(2.0) * math.sin(da / 2.0)) < 1e-9


class TestEuler:
    def test_wrap_angle_range(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_round_trip_away_from_gimbal_lock(self):
        rng = np.random.default_rng(71)
        count = 0
        while count < 500:
            e = EulerZYX(
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-math.pi / 2 + 2e-3, math.pi / 2 - 2e-3),
                rng.uniform(-math.pi, math.pi),
            )
            back = matrix_to_euler_zyx(euler_zyx_to_matrix(e))
            assert abs(wrap_angle(back.roll - e.roll)) < 1e-9
            assert abs(back.pitch - e.pitch) < 1e-9
            assert abs(wrap_angle(back.yaw - e.yaw)) < 1e-9
            count += 1

    def test_matrix_agrees_with_axis_rotations(self):
        e = EulerZYX(0.1, -0.2, 0.3)
        rx = np.array([[1, 0, 0], [0, math.cos(0.1), -math.sin(0.1)], [0, math.sin(0.1), math.cos(0.1)]])
        ry = np.array([[math.cos(-0.2), 0, math.sin(-0.2)], [0, 1, 0], [-math.sin(-0.2), 0, math.cos(-0.2)]])
        assert np.allclose(euler_zyx_to_matrix(e), rz(0.3) @ ry @ rx, atol=1e-12)

    def test_euler_matrix_is_rotation(self):
        assert is_rotation_matrix(euler_zyx_to_matrix(EulerZYX(1.0, 0.5, -2.0)))

    def test_quat_from_yaw(self):
        assert np.allclose(quat_to_matrix(quat_from_yaw(0.4)), rz(0.4), atol=1e-12)


class TestHamiltonProduct:
    def test_multiply_matches_matrix_product(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            a, b = random_quat(rng), random_quat(rng)
            got = quat_to_matrix(quat_multiply(a, b))
            assert np.allclose(got, quat_to_matrix(a) @ quat_to_matrix(b), atol=1e-12)
