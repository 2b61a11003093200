"""What the benchmark needs from the program.

perfbench (read here, never changed) wraps taglok functions by module and
attribute name and reads `len()` of some results. A refactor that renames a
traced function, or changes what `len()` counts, would blind the benchmark
without failing it (a missing target is only reported absent, and a count
of the wrong thing is just a number); these tests fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import taglok.cli  # noqa: F401  (the tracer wraps targets in loaded modules only)
from taglok.camsim import NoiseModel, default_camera, detect, visible_tags
from taglok.geometry import Pose, quat_from_yaw
from taglok.harness import RunConfig, hover_trajectory, run
from taglok.pipeline import PipelineConfig
from taglok.tagmap import MapArrays, build_pattern_map

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_is_a_taglok_callable(spans):
    assert spans.TARGETS
    for name, module_name, path in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *owner_path, leaf = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(leaf)), f"{name}: {module_name}.{path}"


def test_world_frames_can_be_called():
    arrays = build_pattern_map((3.0, 5.0)).world_frames()
    assert isinstance(arrays, MapArrays) and len(arrays.ids) == 255


def test_len_of_detect_and_visible_tags_counts_rows(spans):
    tag_map, cam = build_pattern_map((3.0, 5.0)), default_camera()
    noise = NoiseModel(0.01, 0.02, 100.0, seed=1)
    body = Pose(np.array([1.5, 2.5, 2.0]), quat_from_yaw(0.0))
    visible = visible_tags(tag_map, cam, body)
    detected = detect(tag_map, cam, noise, body, 0)
    assert len(visible) == len(visible.ids) == 114
    assert len(detected) == len(detected.ids) > 100
    # the summaries the traced run records for these two spans
    assert spans._INFO["camsim.visible_tags"]((tag_map, cam, body), {}, visible) == 114
    detect_args = (tag_map, cam, noise, body, 0)
    assert spans._INFO["camsim.detect"](detect_args, {}, detected)[0] == len(detected.ids)


def test_traced_run_records_the_expected_spans(spans):
    cfg = RunConfig(hover_trajectory((1.5, 2.5, 2.0), duration=0.15),
                    build_pattern_map((3.0, 5.0)), default_camera(),
                    NoiseModel(0.01, 0.02, 100.0, seed=1), PipelineConfig(), 20.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run(cfg)
    finally:
        tracer.uninstall()
    assert tracer.absent == [] and tracer.leftover_wrappers() == []
    by_name = {}
    for name, *_, info in tracer.spans:
        by_name.setdefault(name, []).append(info)
    assert len(by_name["pipeline.step"]) == len(result.frames) == 3
    assert by_name["camsim.visible_tags"] == [114, 114, 114]
    assert [info[0] for info in by_name["camsim.detect"]] == [
        f.output.stage_trace.n_detections for f in result.frames]
