"""The array forms of the back-end stages against their per-tag loop forms.

Every comparison is exact (`==`): stacking the inputs changes no rounding,
so outlier partitions, rotation means, the dispersion and degeneracy flags
and smoothed poses must match the loop oracles bit for bit. The bundle's
rows are in tag-id order, so the loop forms get the same id-ordered lists.
"""

import math

import numpy as np

from taglok.geometry import Pose, UnitQuaternion, quat_multiply
from taglok.pipeline import (
    _cl2_accumulator,
    fir_smooth,
    fuse_rotations_cl2,
    fuse_rotations_ql2,
    remove_outliers,
)

from oracles import (
    PerTagEstimate,
    as_bundle,
    loop_fir_smooth,
    loop_fuse_rotations_cl2,
    loop_fuse_rotations_ql2,
    loop_remove_outliers,
    random_quat_cluster,
    random_unit_quat,
)


def _random_quats(rng: np.random.Generator, n: int) -> np.ndarray:
    """Tight clusters (no pair at 90 degrees), wide clusters, or uniform draws,
    with random signs."""
    kind = rng.integers(3)
    if kind == 0:
        quats = random_quat_cluster(rng, n, 20.0)
    elif kind == 1:
        quats = random_quat_cluster(rng, n, 150.0)
    else:
        quats = np.stack([random_unit_quat(rng) for _ in range(n)])
    return np.where(rng.random((n, 1)) < 0.5, -quats, quats)


def _random_positions(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian clouds with a few gross outliers, or small integers (ties,
    duplicates, zero-spread axes)."""
    if rng.random() < 0.3:
        return rng.integers(-2, 3, size=(n, 3)).astype(float)
    positions = rng.normal(scale=0.05, size=(n, 3))
    outliers = rng.random(n) < 0.15
    positions[outliers, rng.integers(0, 3)] += rng.uniform(0.5, 3.0, outliers.sum())
    if rng.random() < 0.2:
        positions[:, rng.integers(0, 3)] = 1.25
    return positions


def _random_estimates(rng: np.random.Generator) -> list[PerTagEstimate]:
    n = int(rng.integers(1, 121))
    quats = _random_quats(rng, n)
    positions = _random_positions(rng, n)
    if rng.random() < 0.5:
        weights = rng.choice([1.0, 2.0, 4.0, 8.0], size=n)
    else:
        weights = rng.uniform(0.1, 10.0, size=n)
    ids = rng.permutation(1000)[:n]
    estimates = [PerTagEstimate(int(i), Pose(p, UnitQuaternion.from_array(q)), float(w))
                 for i, p, q, w in zip(ids, positions, quats, weights)]
    return sorted(estimates, key=lambda e: e.tag_id)


def _ids(estimates):
    return [e.tag_id for e in estimates]


def test_stages_bitwise_equal_to_loop_forms():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        estimates = _random_estimates(rng)
        bundle = as_bundle(estimates)

        kept, rejected = remove_outliers(bundle)
        loop_kept, loop_rejected = loop_remove_outliers(estimates)
        assert kept.ids.tolist() == _ids(loop_kept)
        assert rejected.ids.tolist() == _ids(loop_rejected)

        for fuse, loop_fuse in ((fuse_rotations_ql2, loop_fuse_rotations_ql2),
                                (fuse_rotations_cl2, loop_fuse_rotations_cl2)):
            got, want = fuse(bundle), loop_fuse(estimates)
            assert got.quaternion == want.quaternion
            assert got.dispersion_warning == want.dispersion_warning
            assert (got.quat is None) == (want.quat is None)


def test_cl2_accumulator_equals_outer_product_stack_sum():
    # the (n, 4, 4) stack of weighted outer products summed along axis 0 is
    # what cl2 fed to eigh before; its inputs here are C-ordered copies, and
    # the accumulator gets the rows in whatever layout a caller has
    rng = np.random.default_rng(2027)
    for _ in range(1000):
        n = int(rng.integers(1, 121))
        quats = np.ascontiguousarray(_random_quats(rng, n))
        weights = rng.choice([1.0, 2.0, 4.0, 8.0], size=n) if rng.random() < 0.5 else \
            rng.uniform(0.1, 10.0, size=n)
        stack = (weights[:, None, None] * (quats[:, :, None] * quats[:, None, :])).sum(axis=0)
        assert _cl2_accumulator(quats, weights).tobytes() == stack.tobytes()
        layouts = (np.asfortranarray(quats), np.repeat(quats, 2, axis=0)[::2])
        for rows in layouts:
            assert _cl2_accumulator(rows, np.repeat(weights, 2)[::2]).tobytes() == stack.tobytes()


def test_fir_bitwise_equal_to_loop_form():
    rng = np.random.default_rng(2025)
    for _ in range(1000):
        length = int(rng.integers(1, 9))
        poses = [Pose(p, UnitQuaternion.from_array(q)) for p, q in
                 zip(_random_positions(rng, length + 2), _random_quats(rng, length + 2))]
        if rng.random() < 0.2:
            poses = [poses[0]] * len(poses)  # constant window: returned as is
        history, new_pose = tuple(poses[:int(rng.integers(0, length + 2))]), poses[-1]
        got = fir_smooth(history, new_pose, length)
        want = loop_fir_smooth(history, new_pose, length)
        assert np.array_equal(got.position, want.position)
        assert got.orientation == want.orientation


def test_dispersion_flag_pinned_at_quarter_turn():
    # 1e-12 rad either side of pi/2 about random axes; exactly at pi/2 the
    # result depends on rounding and is not pinned
    rng = np.random.default_rng(2026)
    for _ in range(500):
        base = UnitQuaternion.from_array(random_unit_quat(rng))
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        for offset, flagged in ((-1e-12, False), (1e-12, True)):
            half = 0.5 * (math.pi / 2.0 + offset)
            turn = UnitQuaternion(math.cos(half), *(math.sin(half) * axis))
            other = quat_multiply(base, turn)
            if rng.random() < 0.5:
                other = other.negate()
            pair = as_bundle([PerTagEstimate(0, Pose(np.zeros(3), base), 1.0),
                              PerTagEstimate(1, Pose(np.zeros(3), other), 1.0)])
            assert fuse_rotations_ql2(pair).dispersion_warning is flagged
