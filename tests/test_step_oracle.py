"""`step` against `oracles.loop_step`, the whole frame from the loop forms.

`step` carries its FIR window as position and quaternion rows and builds
its trace once per frame; `loop_step` carries a tuple of raw `Pose`s and
runs the per-tag loop form of every stage. Over multi-frame streams, for
every pipeline configuration of `test_shared_chain.CONFIGS` and FIR lengths
1, 2 and 5, the outputs, the traces and the carried window must be equal bit
for bit (`==`). The stream mixes simulated frames with crafted ones: unknown
ids, corrupt rows, an empty frame, a frame whose outlier removal rejects
everything, and frames with antipodal and orthogonal quaternions.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from taglok.camsim import NoiseModel, default_camera
from taglok.geometry import quat_from_yaw
from taglok.harness import RunConfig, body_poses_of, hover_trajectory, simulate
from taglok.pipeline import PipelineConfig, TagEstimates, step
from taglok.tagmap import build_pattern_map

from oracles import loop_step
from test_shared_chain import CONFIGS

NAN4 = [math.nan] * 4


def _estimates(ids, positions, quats, sizes) -> TagEstimates:
    return TagEstimates(np.asarray(ids, dtype=np.int64), np.asarray(positions, dtype=float),
                        np.asarray(quats, dtype=float), np.asarray(sizes, dtype=float))


def _crafted_frames() -> list[TagEstimates]:
    identity = [1.0, 0.0, 0.0, 0.0]
    half_turn = quat_from_yaw(math.pi).as_array().tolist()  # orthogonal to identity
    tilted = quat_from_yaw(0.4).as_array()
    return [
        # two unknown ids (all-NaN rows) and a corrupt row among usable ones
        _estimates([7, 900, 3, 901, 5], [[0.1, 0.2, 1.0], [math.nan] * 3, [0.0, 0.1, 1.1],
                                         [math.nan] * 3, [math.nan] * 3],
                   [identity, NAN4, tilted, NAN4, NAN4], [4.0, math.nan, 2.0, math.nan, 4.0]),
        _estimates([], np.zeros((0, 3)), np.zeros((0, 4)), []),  # empty
        _estimates([8], [[math.nan] * 3], [NAN4], [math.nan]),  # only an unknown id
        # x spreads as {0, 0, 0, 0, 5}: its fences are [0, 0] and reject every row
        _estimates([10, 11, 12, 13, 14], [[0.0, 0.0, 1.0], [0.0, 2.0, 1.0], [0.0, 4.0, 1.0],
                                          [0.0, 6.0, 1.0], [5.0, 8.0, 1.0]],
                   [identity] * 5, [4.0] * 5),
        # the same rotation with both signs, and a pair half a turn apart:
        # ql2 aligns the signs and warns, cl2 finds a repeated eigenvalue
        _estimates([20, 21], [[0.5, 0.5, 1.0], [0.5, 0.5, 1.0]], [identity, half_turn],
                   [8.0, 8.0]),
        _estimates([22, 23, 24], [[0.2, 0.3, 1.0], [0.2, 0.3, 1.0], [0.2, 0.3, 1.0]],
                   [tilted, -tilted, tilted], [2.0, 2.0, 2.0]),
        _estimates([25, 26, 27, 28], [[0.5, 0.5, 1.0]] * 4,
                   [identity, half_turn, [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], [1.0] * 4),
        # one tag at one position, turned: a window of equal positions only
        _estimates([30], [[0.3, 0.1, 1.2]], [identity], [4.0]),
        _estimates([30], [[0.3, 0.1, 1.2]], [tilted], [4.0]),
    ]


@pytest.fixture(scope="module")
def stream() -> list[TagEstimates]:
    noise = NoiseModel(0.01, 0.02, 100.0, outlier_probability=0.1, outlier_position_scale=10.0,
                       outlier_rotation_scale=6.0, seed=33)
    cfg = RunConfig(hover_trajectory((1.5, 2.5, 1.4), duration=0.4),
                    build_pattern_map((3.0, 5.0)), default_camera(), noise, PipelineConfig(), 20.0)
    frames = list(simulate(cfg))
    poses = body_poses_of(cfg, frames)
    simulated, end = [], 0
    for frame in frames:
        start, end = end, end + len(frame.detections)
        simulated.append(poses.take(slice(start, end)))
    crafted = _crafted_frames()
    # constant stretches too: a repeated frame makes a window of equal poses
    return (simulated[:3] + crafted[:4] + [simulated[3]] * 3 + crafted[4:] + simulated[4:]
            + [crafted[0]] * 2)


def _assert_same(got, want):
    assert got.tags_used == want.tags_used
    assert got.stage_trace == want.stage_trace
    if want.pose is None:
        assert got.pose is None
    else:
        assert np.array_equal(got.pose.position, want.pose.position)
        assert got.pose.orientation == want.pose.orientation


@pytest.mark.parametrize("fir_length", [1, 2, 5])
@pytest.mark.parametrize("pipeline", CONFIGS,
                         ids=[f"{c.ths.value}-{c.rot_mean.value}-{'or' if c.outlier_removal else 'noor'}"
                              f"-{c.weights.value}" for c in CONFIGS])
def test_step_equals_loop_step(stream, pipeline, fir_length):
    config = replace(pipeline, fir_length=fir_length)
    state, history = None, ()
    reasons, flags = set(), set()
    for rows in stream:
        got, state = step(rows, config, state)
        want, history = loop_step(rows, config, history)
        _assert_same(got, want)
        trace = got.stage_trace
        reasons.add(trace.reason)
        flags.add((trace.dispersion_warning, trace.fusion_degenerate))
        assert np.array_equal(state.window[:, :3],
                              np.array([p.position for p in history]).reshape(-1, 3))
        assert np.array_equal(state.window[:, 3:],
                              np.array([p.orientation.as_array() for p in history]).reshape(-1, 4))
    assert {None, "no-tags"} <= reasons
    if pipeline.ths.value != "jbt":  # the crafted frames reach every fallback
        assert "all-rejected" in reasons or not pipeline.outlier_removal
        assert (True, False) in flags if pipeline.rot_mean.value == "ql2" else (False, True) in flags
