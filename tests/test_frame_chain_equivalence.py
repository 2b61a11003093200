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

The chain is the one judge of a detection's quaternion: a row must come out
corrupt (a NaN pose) exactly when `UnitQuaternion` of it raises, also at the
edges of its norm limits, where numpy's sum of squares and the scalar one
can round to different sides.
"""

import math

import numpy as np
import pytest

from taglok.camsim import DetectionRows, NoiseModel, default_camera
from taglok.geometry import (
    Pose,
    UnitQuaternion,
    _hamilton,
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

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


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
    # the other broadcast forms the callers use: a single a with (n, 4) b
    # and a single q with (n, 3) vectors (visible_tags), (n, 4) quaternions
    # with a single vector (the frame chain's mount)
    single_a = quat_multiply_rows(_rows(a[:1])[0], _rows(b))
    single_q = rotate_rows(_rows(a[:1])[0], v)
    single_v = rotate_rows(_rows(a), v[0])
    for i in range(5000):
        assert tuple(single_a[i].tolist()) == _components(quat_multiply(a[0], b[i]))
        assert np.array_equal(single_q[i], rotate_vector(a[0], v[i]))
        assert np.array_equal(single_v[i], rotate_vector(a[i], v[0]))
    # no rows and one row, in every form
    for n in (0, 1):
        qa, qb, vn = _rows(a[:n]).reshape(n, 4), _rows(b[:n]).reshape(n, 4), v[:n]
        for got, want in ((quat_multiply_rows(qa, qb), [_components(quat_multiply(x, y))
                                                        for x, y in zip(a[:n], b[:n])]),
                          (quat_multiply_rows(qa, _rows(b[:1])[0]),
                           [_components(quat_multiply(x, b[0])) for x in a[:n]]),
                          (quat_multiply_rows(_rows(a[:1])[0], qb),
                           [_components(quat_multiply(a[0], y)) for y in b[:n]])):
            assert got.shape == (n, 4) and got.tolist() == [list(w) for w in want]
        for got, want in ((rotate_rows(qa, vn), [rotate_vector(x, y) for x, y in zip(a, vn)]),
                          (rotate_rows(qa, v[0]), [rotate_vector(x, v[0]) for x in a[:n]]),
                          (rotate_rows(_rows(a[:1])[0], vn), [rotate_vector(a[0], y) for y in vn])):
            assert got.shape == (n, 3) and np.array_equal(got, np.array(want).reshape(n, 3))
    # products UnitQuaternion rescales (norms off one) or refuses (a zero, a
    # tiny or a NaN norm) come out rescaled like it, or as NaN rows
    raw_a = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [1e-13, 0.0, 0.0, 0.0],
                      [1.0, 1e-6, 0.0, 0.0], [3.0, -4.0, 1.0, 0.5], [np.nan, 1.0, 0.0, 0.0]])
    raw_b = np.array([[0.6, 0.8, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, -0.5, 0.5], [1.0, 0.0, 0.0, 0.0]])
    for got, pairs in ((quat_multiply_rows(raw_a, raw_b), zip(raw_a, raw_b)),
                       (quat_multiply_rows(raw_a, raw_b[0]), ((x, raw_b[0]) for x in raw_a)),
                       (quat_multiply_rows(raw_b[0], raw_a), ((raw_b[0], y) for y in raw_a))):
        for row, (x, y) in zip(got, pairs):
            try:
                want = _components(UnitQuaternion(*_hamilton(*x.tolist(), *y.tolist())))
            except ValueError:
                assert np.isnan(row).all()
            else:
                assert tuple(row.tolist()) == want


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


def test_chain_blocks_leave_every_row_bit_identical(monkeypatch):
    # a multi-frame stack, one unknown id and corrupt rows among its rows (a
    # zero quaternion, and positions whose squared norm overflows, one of
    # them first in its block), in blocks of 7 rows against the default
    # single pass
    camera = default_camera(mount_offset=np.array([0.05, -0.02, 0.03]))
    cfg = RunConfig(hover_trajectory((1.5, 2.5, 0.8), duration=0.25), build_pattern_map((3.0, 5.0)),
                    camera, NoiseModel(0.01, 0.02, 100.0, seed=5), PipelineConfig(), 20.0)
    frames = [f.detections for f in simulate(cfg)]
    ids, positions, quats, apparent = (np.concatenate([getattr(d, name) for d in frames])
                                       for name in ("ids", "positions", "quats", "apparent"))
    ids[3] = 10**9
    quats[11] = 0.0
    positions[20, 0], positions[30, 1], positions[35, 2] = 1e200, 1e155, 1e200
    stack = DetectionRows(ids, positions, quats, apparent)
    assert len(stack) > 7 * 10
    default = estimate_body_pose_per_tag(stack, cfg.tag_map, camera.pose_in_body)
    monkeypatch.setattr("taglok.pipeline._CHAIN_BLOCK_ROWS", 7)
    blocked = estimate_body_pose_per_tag(stack, cfg.tag_map, camera.pose_in_body)
    assert np.isnan(default.positions[[3, 11]]).all() and np.isnan(default.weights[3])
    corrupt = [11, 20, 30, 35]
    assert np.isnan(default.positions[corrupt]).all() and np.isnan(default.quats[corrupt]).all()
    assert not np.isnan(default.weights[corrupt]).any()
    usable = np.setdiff1d(np.arange(len(stack)), [3, *corrupt])
    assert not np.isnan(default.positions[usable]).any()
    for name in ("ids", "positions", "quats", "weights"):
        assert getattr(blocked, name).tobytes() == getattr(default, name).tobytes()


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


# a unit norm, the smallest norm UnitQuaternion normalizes and the norm whose
# square is the largest finite float
EDGE_NORMS = [1.0, 1e-12, 1.3407807929942596e154]
DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: math.hypot(*q) > 1e-3)


@st.composite
def edge_quat_rows(draw) -> list:
    """A quaternion row within a few ulps of an edge norm, some of its
    components then set to NaN, an infinity or zero."""
    q = draw(DIRECTIONS)
    scale = draw(st.sampled_from(EDGE_NORMS)) / math.hypot(*q)
    scale *= 1.0 + draw(st.integers(-8, 8)) * 2.0**-52
    row = [c * scale for c in q]
    for i in draw(st.lists(st.integers(0, 3), max_size=4)):
        row[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0]))
    return row


EDGE_MAP = build_pattern_map((1.0, 1.0))
EDGE_MOUNT = Pose(np.array([0.04, -0.02, 0.03]), UnitQuaternion(0.9, 0.1, -0.3, 0.2))
EDGE_DETECTIONS = st.tuples(st.sampled_from([e.tag_id for e in EDGE_MAP.entries]),
                            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                                      st.floats(0.1, 4.0)),
                            edge_quat_rows())
# random draws seldom land on a row where the two sums disagree; these do
TINY_EDGE_ROW = [-5.702926334611485e-13, -2.385554529540518e-13, 6.728617090432125e-13,
                 -4.0634311682281816e-13]
HUGE_EDGE_ROW = [-9.669695485068191e+153, 4.944549658390998e+153, 5.289236495228492e+152,
                 -7.844614149909753e+153]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(detections=st.lists(EDGE_DETECTIONS, min_size=1, max_size=8))
@hypothesis.example(detections=[(0, (0.1, 0.2, 1.0), q) for q in
                                ([1.0, 0.0, 0.0, 0.0], TINY_EDGE_ROW, HUGE_EDGE_ROW)])
def test_row_corrupt_exactly_when_unit_quaternion_refuses_it(detections):
    ids, positions, quats = zip(*detections)
    rows = DetectionRows(np.array(ids, dtype=np.int64), np.array(positions), np.array(quats),
                         np.full(len(ids), 50.0))
    got = estimate_body_pose_per_tag(rows, EDGE_MAP, EDGE_MOUNT)
    for i, (tag_id, p, q) in enumerate(detections):
        try:
            unit = UnitQuaternion(*q)
        except ValueError:
            unit = None
        e = loop_estimate_body_pose_per_tag(
            Detection(tag_id, Pose(np.array(p), unit or UnitQuaternion.identity()), 50.0),
            EDGE_MAP, EDGE_MOUNT, WeightScheme.W2)
        assert got.weights[i] == e.weight  # a corrupt row keeps its tag's weight
        if unit is None:
            assert np.isnan(got.positions[i]).all() and np.isnan(got.quats[i]).all()
            continue
        assert np.array_equal(got.positions[i], e.body_pose_est.position)
        assert tuple(got.quats[i].tolist()) == _components(e.body_pose_est.orientation)
