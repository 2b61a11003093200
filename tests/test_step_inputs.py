"""`step` leaves its inputs as it found them.

`compare_matrix` hands one frame chain's arrays to every variant, and
`run` hands each frame's state to the next frame, so a stage that wrote
into its input (a flipped quaternion row, a window shifted in place) would
change what a later cell or frame sees. Here `test_step_oracle`'s stream
runs through every configuration of `test_shared_chain.CONFIGS` with every
`TagEstimates` array and every state's FIR window set read-only, so a write
raises. Afterwards each frame is run again from the state it first started
from, and must give the same output and the same new window, bit for bit.
"""

import numpy as np
import pytest

from taglok.pipeline import PipelineState, step

from test_shared_chain import CONFIGS
from test_step_oracle import stream  # noqa: F401  (the fixture)


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.setflags(write=False)


def _bits(output) -> tuple:
    pose = output.pose
    pose_bits = None if pose is None else (pose.position.tobytes(),
                                           pose.orientation.as_array().tobytes())
    return pose_bits, output.tags_used, output.stage_trace


@pytest.mark.parametrize("config", CONFIGS, ids=[
    f"{c.ths.value}-{c.rot_mean.value}-{'or' if c.outlier_removal else 'noor'}-{c.weights.value}"
    for c in CONFIGS])
def test_step_writes_to_no_input(stream, config):  # noqa: F811
    for rows in stream:
        _read_only(rows.ids, rows.positions, rows.quats, rows.weights)
    state = PipelineState()
    _read_only(state.window)
    runs = []
    for rows in stream:
        output, new_state = step(rows, config, state)
        _read_only(new_state.window)
        runs.append((rows, state, _bits(output), new_state.window.tobytes()))
        state = new_state
    for rows, earlier, first_bits, first_window in runs:
        output, new_state = step(rows, config, earlier)
        assert _bits(output) == first_bits
        assert new_state.window.tobytes() == first_window
