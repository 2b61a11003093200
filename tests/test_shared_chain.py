"""The frame chain run once per frame stream against the chain run per frame.

`run` computes the body pose of every detection of its frames in one
`estimate_body_pose_per_tag` pass and hands each `step` its rows;
`compare_matrix` shares that pass between all variants of a scenario.
Running the chain on each frame's detections alone before its `step` must
give the same records, compared exactly (`==`), over frames with unknown,
repeated and corrupt rows and over empty frames. A corrupt row (a
position whose squared norm is not finite, or a quaternion that
`UnitQuaternion` refuses: its norm not finite or too close to zero to
normalize) may cost that row only.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from taglok.camsim import DetectionRows, Frame, NoiseModel, default_camera
from taglok.harness import RunConfig, body_poses_of, compare_matrix, hover_trajectory, run, simulate
from taglok.pipeline import (
    PipelineConfig,
    RotMeanMethod,
    StageTrace,
    ThsMode,
    WeightScheme,
    apply_variant,
    estimate_body_pose_per_tag,
)
from taglok.tagmap import build_pattern_map

from oracles import step_detections, take

UNKNOWN_ID = 100_000
NOISE = NoiseModel(0.01, 0.02, 100.0, outlier_probability=0.1, outlier_position_scale=10.0,
                   outlier_rotation_scale=6.0, seed=21)


def _rows(ids, positions, quats, apparent) -> DetectionRows:
    return DetectionRows(np.asarray(ids, dtype=np.int64), np.asarray(positions, dtype=float),
                         np.asarray(quats, dtype=float), np.asarray(apparent, dtype=float))


def _with(rows: DetectionRows, **columns) -> DetectionRows:
    fields = {"ids": rows.ids, "positions": rows.positions, "quats": rows.quats,
              "apparent": rows.apparent}
    return _rows(**{**fields, **columns})


def _spoiled(rows: DetectionRows, row: int, column: str, index: int | None, value: float):
    """`rows` with one component of a row set to `value`; all of its
    quaternion when `index` is None."""
    array = getattr(rows, column).copy()
    array[row, slice(None) if index is None else index] = value
    return _with(rows, **{column: array})


@pytest.fixture(scope="module")
def base():
    return RunConfig(hover_trajectory((1.5, 2.5, 1.4), duration=0.6), build_pattern_map((3.0, 5.0)),
                     default_camera(mount_offset=np.array([0.04, -0.02, 0.03])), NOISE,
                     PipelineConfig(), 20.0)


@pytest.fixture(scope="module")
def frames(base):
    """Simulated frames, then frames with unknown and repeated ids, an empty
    frame, an all-unknown frame and frames with corrupt rows, one of them
    also of an unknown id."""
    sim = list(simulate(base))
    d0, d1, d2 = (f.detections for f in sim[:3])
    extra = _rows([UNKNOWN_ID, UNKNOWN_ID + 1], d0.positions[:2], d0.quats[:2], d0.apparent[:2])
    mixed = _rows(np.concatenate([d1.ids, extra.ids, d1.ids[:5]]),
                  np.concatenate([d1.positions, extra.positions, d1.positions[5:10]]),
                  np.concatenate([d1.quats, extra.quats, d1.quats[5:10]]),
                  np.concatenate([d1.apparent, extra.apparent, d1.apparent[:5]]))
    empty = _rows(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 4)), np.zeros(0))
    all_unknown = _with(d2, ids=d2.ids + UNKNOWN_ID)
    middle = len(d2) // 2
    crafted = [
        mixed,
        empty,
        all_unknown,
        _spoiled(d2, middle, "quats", 1, np.nan),
        _spoiled(d2, middle, "positions", 0, np.inf),
        _spoiled(_spoiled(d0, 0, "quats", 2, -np.inf), 3, "positions", 1, np.nan),
        _spoiled(d1, 4, "quats", 0, 1e200),  # its square overflows
        _spoiled(d1, 6, "quats", None, 0.0),
        # a row both unknown and corrupt counts as unknown only
        _spoiled(_with(d2, ids=np.where(np.arange(len(d2)) == 1, UNKNOWN_ID + 2, d2.ids)),
                 1, "quats", 0, np.nan),
    ]
    tail = sim[-1]
    stream = sim + [Frame(tail.index + 1 + k, tail.t + 0.05 * (k + 1), tail.truth, rows)
                    for k, rows in enumerate(crafted)]
    return stream + sim[:3]


def _assert_same_output(got, want):
    assert got.tags_used == want.tags_used
    assert got.stage_trace == want.stage_trace
    if want.pose is None:
        assert got.pose is None
    else:
        assert np.array_equal(got.pose.position, want.pose.position)
        assert got.pose.orientation == want.pose.orientation


def _frame_by_frame(cfg, frames):
    state, outputs = None, []
    for frame in frames:
        output, state = step_detections(frame.detections, cfg.tag_map, cfg.pipeline, state,
                                        cfg.camera.pose_in_body)
        outputs.append(output)
    return outputs


CONFIGS = [PipelineConfig(ths=ths, rot_mean=rot, outlier_removal=outliers, weights=weights)
           for (ths, rot, outliers), weights in zip(
               itertools.product(ThsMode, RotMeanMethod, (True, False)),
               itertools.cycle(WeightScheme))]


@pytest.mark.parametrize("pipeline", CONFIGS,
                         ids=[f"{c.ths.value}-{c.rot_mean.value}-{'or' if c.outlier_removal else 'noor'}"
                              f"-{c.weights.value}" for c in CONFIGS])
def test_run_equals_step_frame_by_frame(base, frames, pipeline):
    cfg = replace(base, pipeline=pipeline)
    result = run(cfg, frames)
    want = _frame_by_frame(cfg, frames)
    assert len(result.frames) == len(want) == len(frames)
    assert [r.t for r in result.frames] == [f.t for f in frames]
    for record, output in zip(result.frames, want):
        _assert_same_output(record.output, output)
    traces = [r.output.stage_trace for r in result.frames]
    assert [t.reason for t in traces].count("no-tags") == 2  # the empty and all-unknown frames
    assert sum(len(t.corrupt_ids) for t in traces) == 6
    assert any(len(t.unknown_ids) == 2 for t in traces)
    assert [t.unknown_ids for t in traces].count((UNKNOWN_ID + 2,)) == 1


def test_compare_matrix_rows_equal_independent_runs(base):
    scenarios = [("h08", hover_trajectory((1.5, 2.5, 0.8), duration=0.4)),
                 ("h20", hover_trajectory((1.5, 2.5, 2.0), duration=0.4))]
    variants = ["jbt", "all-noor-cl2", "all-or-w1", "tbs-noor-uniform", "tbs-or-ql2-w2"]
    rows = compare_matrix(base, variants, scenarios)
    assert [(r.scenario, r.variant) for r in rows] == list(itertools.product(
        [name for name, _ in scenarios], variants))
    for row, ((_, trajectory), variant) in zip(rows, itertools.product(scenarios, variants)):
        cfg = replace(base, trajectory=trajectory, pipeline=apply_variant(base.pipeline, variant))
        assert row.stats == run(cfg).stats
        records = run(cfg).frames
        for record, output in zip(records, _frame_by_frame(cfg, list(simulate(cfg)))):
            _assert_same_output(record.output, output)


def test_stream_chain_rows_equal_frame_chains(base, frames):
    poses = body_poses_of(base, frames)
    assert len(poses) == sum(len(f.detections) for f in frames)
    end = 0
    for frame in frames:
        start, end = end, end + len(frame.detections)
        own = estimate_body_pose_per_tag(frame.detections, base.tag_map, base.camera.pose_in_body)
        for name in ("ids", "positions", "quats", "weights"):
            assert np.array_equal(getattr(poses, name)[start:end], getattr(own, name),
                                  equal_nan=True)


SPOILS = [("quats", 1, np.nan), ("quats", 0, np.inf), ("quats", 3, 1e200),
          ("quats", None, 0.0), ("quats", None, 1e-13), ("positions", 0, np.inf),
          ("positions", 1, -np.inf), ("positions", 2, np.inf), ("positions", 0, np.nan),
          ("positions", 0, 1.7e308), ("positions", 2, 1e200),  # these two: squares overflow
          # whole rows on either edge of UnitQuaternion's norm limits, which numpy's sum of
          # squares alone would let through
          pytest.param("quats", None, [-5.702926334611485e-13, -2.385554529540518e-13,
                                       6.728617090432125e-13, -4.0634311682281816e-13],
                       id="quats-None-norm-just-under-1e-12"),
          pytest.param("quats", None, [-9.669695485068191e+153, 4.944549658390998e+153,
                                       5.289236495228492e+152, -7.844614149909753e+153],
                       id="quats-None-norm-squared-at-overflow")]


@pytest.mark.parametrize("fused", [True, False], ids=["fused-row", "unselected-row"])
@pytest.mark.parametrize("column, index, value", SPOILS)
def test_corrupt_row_costs_only_that_row(base, column, index, value, fused):
    frames = list(simulate(replace(base, trajectory=hover_trajectory((1.5, 2.5, 2.0),
                                                                     duration=0.2))))
    clean = run(base, frames).frames
    bad_frame = frames[1]
    rows = bad_frame.detections
    trace = clean[1].output.stage_trace
    if fused:
        row = int(np.flatnonzero(rows.ids == clean[1].output.tags_used[0])[0])
    else:  # a tag of a class TBS passes over
        row = int(np.flatnonzero(~np.isin(rows.ids, trace.selected_ids))[0])
    spoiled = bad_frame._replace(detections=_spoiled(rows, row, column, index, value))
    without = bad_frame._replace(detections=take(rows, np.arange(len(rows)) != row))
    got = run(base, [frames[0], spoiled, *frames[2:]]).frames
    want = run(base, [frames[0], without, *frames[2:]]).frames
    bad_id = int(rows.ids[row])
    assert bad_id not in got[1].output.tags_used
    # the spoiled frame differs from the one without the row in its trace only
    want[1] = want[1]._replace(output=want[1].output._replace(
        stage_trace=want[1].output.stage_trace._replace(n_detections=len(rows),
                                                         corrupt_ids=(bad_id,))))
    for record, reference in zip(got, want):
        assert record.ep_cm == reference.ep_cm and record.eo_deg == reference.eo_deg
        _assert_same_output(record.output, reference.output)
    if not fused:
        _assert_same_output(got[1].output, clean[1].output._replace(
            stage_trace=trace._replace(corrupt_ids=(bad_id,))))


def test_off_unit_quaternion_row_is_normalized(base):
    # all tags fused without outlier removal, so the scaled row counts
    cfg = replace(base, trajectory=hover_trajectory((1.5, 2.5, 1.4), duration=0.15),
                  noise=replace(NOISE, seed=3), pipeline=apply_variant(base.pipeline, "all-noor"))
    frames = list(simulate(cfg))
    want = run(cfg, frames).frames
    rows = frames[1].detections
    for scale in (3.0, 1e150, 1e-100):
        scaled = _with(rows, quats=np.vstack([rows.quats[:1] * scale, rows.quats[1:]]))
        got = run(cfg, [frames[0], frames[1]._replace(detections=scaled), *frames[2:]]).frames
        if scale == 1e-100:  # too small to normalize: corrupt, as before
            assert got[1].output.stage_trace.corrupt_ids == (int(rows.ids[0]),)
            continue
        for record, reference in zip(got, want):
            assert record.output.stage_trace == reference.output.stage_trace
            assert record.output.tags_used == reference.output.tags_used
            assert np.allclose(record.output.pose.position, reference.output.pose.position,
                               rtol=0.0, atol=1e-12)
            assert np.allclose(record.output.pose.orientation.as_array(),
                               reference.output.pose.orientation.as_array(), rtol=0.0, atol=1e-12)


def test_corrupt_ids_logged_only_when_present():
    assert "corrupt_ids" not in StageTrace().to_dict()
    assert list(StageTrace().to_dict()) == list(StageTrace(corrupt_ids=()).to_dict())
    logged = StageTrace(unknown_ids=(4,), corrupt_ids=(7, 9)).to_dict()
    assert logged["corrupt_ids"] == [7, 9]
    assert list(logged)[:3] == ["n_detections", "unknown_ids", "corrupt_ids"]
