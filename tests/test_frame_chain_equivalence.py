"""The batched frame chain and tag selection against their object-per-tag
forms.

Every comparison is exact (`==`). The row helpers keep the scalar expression
order and UnitQuaternion's conditional renormalization, so each estimate
row must equal `loop_estimate_body_pose_per_tag` of its detection bit for
bit, its weight the tag's W2 weight 2**h, and a detection whose id is not
in the map must give a NaN row.
Quaternions are drawn with norms up to 1e-12 off unit, so products land on
both sides of the renormalization threshold. `select_tags` must keep the
very rows `loop_select_tags` keeps, in the same order.
"""

import numpy as np

from taglok.camsim import NoiseModel, default_camera
from taglok.geometry import (
    Pose,
    UnitQuaternion,
    quat_multiply,
    quat_multiply_rows,
    rotate_rows,
    rotate_vector,
)
from taglok.harness import RunConfig, hover_trajectory, simulate
from taglok.pipeline import (
    PipelineConfig,
    ThsMode,
    WeightScheme,
    estimate_body_pose_per_tag,
)
from taglok.tagmap import SizeClass, TagEntry, TagMap, build_pattern_map

from oracles import (
    Detection,
    detections_from,
    loop_estimate_body_pose_per_tag,
    loop_select_tags,
    random_unit_quat,
    rows_from,
    selected_rows,
)


def _near_unit_quat(rng: np.random.Generator) -> UnitQuaternion:
    """A quaternion whose norm is off unit by up to 1e-12, stored as drawn
    when within the tolerance (renormalized otherwise)."""
    q = random_unit_quat(rng) * (1.0 + rng.uniform(-1e-12, 1e-12))
    return UnitQuaternion(*q.tolist())


def _rows(quats) -> np.ndarray:
    return np.array([(q.w, q.x, q.y, q.z) for q in quats])


def _components(q: UnitQuaternion) -> tuple:
    return (q.w, q.x, q.y, q.z)


def test_row_helpers_bitwise_equal_to_scalar_forms():
    rng = np.random.default_rng(4040)
    a = [_near_unit_quat(rng) for _ in range(5000)]
    b = [_near_unit_quat(rng) for _ in range(5000)]
    v = rng.normal(scale=3.0, size=(5000, 3))
    products = quat_multiply_rows(_rows(a), _rows(b))
    rotated = rotate_rows(_rows(a), v)
    for i in range(5000):
        assert tuple(products[i].tolist()) == _components(quat_multiply(a[i], b[i]))
        assert np.array_equal(rotated[i], rotate_vector(a[i], v[i]))
    # one operand broadcast as a single row
    single = quat_multiply_rows(_rows(a), _rows(b[:1])[0])
    for i in range(5000):
        assert tuple(single[i].tolist()) == _components(quat_multiply(a[i], b[0]))


def _random_scene(rng: np.random.Generator):
    """A map of tags of mixed classes with random attitudes and the
    detections of some of them, plus repeated and unknown ids."""
    n_tags = int(rng.integers(1, 40))
    entries = [
        TagEntry(i, Pose(np.array([1.0 * i, rng.uniform(0, 5), rng.uniform(-0.1, 0.1)]),
                         _near_unit_quat(rng)), SizeClass(int(rng.integers(0, 4))))
        for i in range(n_tags)
    ]
    tag_map = TagMap(entries, (n_tags + 1.0, 6.0))
    ids = list(rng.choice(n_tags, size=int(rng.integers(0, n_tags + 1)), replace=False))
    ids += list(rng.choice(n_tags, size=int(rng.integers(0, 3))))  # repeated ids
    ids += [n_tags + 7] * int(rng.integers(0, 2))  # not in the map
    rng.shuffle(ids)
    detections = [
        Detection(int(i), Pose(np.array([rng.normal(), rng.normal(), rng.uniform(0.1, 4.0)]),
                               _near_unit_quat(rng)), float(rng.uniform(12.0, 300.0)))
        for i in ids
    ]
    mount = Pose(rng.normal(scale=0.2, size=3), _near_unit_quat(rng))
    return tag_map, detections, mount


def _assert_chain_equal(detections, tag_map, mount):
    got = estimate_body_pose_per_tag(rows_from(detections), tag_map, mount)
    assert got.ids.tolist() == [d.tag_id for d in detections]
    assert got.positions.shape == (len(detections), 3)
    assert got.quats.shape == (len(detections), 4)
    for row, d in enumerate(detections):
        e = loop_estimate_body_pose_per_tag(d, tag_map, mount, WeightScheme.W2)
        if e is None:  # an id not in the map gives a NaN row
            assert np.isnan(got.positions[row]).all() and np.isnan(got.quats[row]).all()
            assert np.isnan(got.weights[row])
            continue
        assert got.weights[row] == e.weight  # the tag's relative size 2**h
        assert np.array_equal(got.positions[row], e.body_pose_est.position)
        assert tuple(got.quats[row].tolist()) == _components(e.body_pose_est.orientation)


def test_chain_bitwise_equal_on_random_scenes():
    rng = np.random.default_rng(4041)
    for _ in range(300):
        tag_map, detections, mount = _random_scene(rng)
        _assert_chain_equal(detections, tag_map, mount)


def test_chain_bitwise_equal_on_every_frame_of_a_hover_at_two_meters():
    camera = default_camera(mount_offset=np.array([0.05, -0.02, 0.03]))
    noise = NoiseModel(0.01, 0.02, 100.0, outlier_probability=0.05,
                       outlier_position_scale=12.0, outlier_rotation_scale=8.0, seed=3)
    cfg = RunConfig(hover_trajectory((1.5, 2.5, 2.0), duration=3.0),
                    build_pattern_map((3.0, 5.0)), camera, noise, PipelineConfig(), 20.0)
    frames = list(simulate(cfg))
    assert len(frames) == 60 and min(len(f.detections) for f in frames) > 100
    for frame in frames:
        _assert_chain_equal(detections_from(frame.detections), cfg.tag_map,
                            camera.pose_in_body)
    # the same frames seen through an identity mount
    for frame in frames[:5]:
        _assert_chain_equal(detections_from(frame.detections), cfg.tag_map, Pose.identity())
        for mode in ThsMode:
            _assert_selection_equal(detections_from(frame.detections), cfg.tag_map, mode)


def test_chain_of_no_detections_is_empty():
    tag_map = build_pattern_map((1.0, 1.0))
    empty = estimate_body_pose_per_tag(rows_from([]), tag_map, Pose.identity())
    assert len(empty) == 0
    assert empty.positions.shape == (0, 3) and empty.quats.shape == (0, 4)
    unknown = [Detection(999, Pose(np.array([0.0, 0.0, 1.0]), UnitQuaternion.identity()), 50.0)]
    only_unknown = estimate_body_pose_per_tag(rows_from(unknown), tag_map, Pose.identity())
    assert len(only_unknown) == 1 and np.isnan(only_unknown.positions).all()


def _assert_selection_equal(detections, tag_map, mode):
    got = selected_rows(rows_from(detections), tag_map, mode)
    want = rows_from(loop_select_tags(detections, tag_map, mode))
    for field in ("ids", "positions", "quats", "apparent"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def test_selection_equal_to_object_form_on_random_scenes():
    rng = np.random.default_rng(4042)
    for _ in range(300):
        tag_map, detections, _ = _random_scene(rng)
        known = [d for d in detections if d.tag_id < len(tag_map)]  # input ids must resolve
        for mode in ThsMode:
            _assert_selection_equal(known, tag_map, mode)
