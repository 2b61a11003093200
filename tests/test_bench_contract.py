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
import taglok.harness as harness
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


def _traced(spans, call):
    """What `call` returns, and the span names it records with their counts.
    `call` must reach taglok through its modules' attributes, which the
    tracer replaces. No frame chain may run inside a `step`, where its time
    would count as the step's."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = call()
    finally:
        tracer.uninstall()
    assert tracer.absent == [] and tracer.leftover_wrappers() == []
    counts = {}
    for name, _, _, parent, *_ in tracer.spans:
        counts[name] = counts.get(name, 0) + 1
        if name == "pipeline.frame_chain":
            while parent >= 0:
                assert tracer.spans[parent][0] != "pipeline.step"
                parent = tracer.spans[parent][3]
    return result, counts


def test_traced_compare_records_per_frame_spans(spans):
    # the per-frame spans must see every frame of every variant
    base = RunConfig(hover_trajectory((1.5, 2.5, 1.4), duration=0.2),
                     build_pattern_map((3.0, 5.0)), default_camera(),
                     NoiseModel(0.01, 0.02, 100.0, seed=1), PipelineConfig(), 20.0)
    scenarios = [("h08", hover_trajectory((1.5, 2.5, 0.8), duration=0.2)),
                 ("h20", hover_trajectory((1.5, 2.5, 2.0), duration=0.15))]
    variants = ["jbt", "all-noor", "tbs-or-cl2"]
    rows, counts = _traced(spans, lambda: harness.compare_matrix(base, variants, scenarios))
    frames = sum(r.stats.frames + r.stats.dropped for r in rows)
    assert frames == len(variants) * (4 + 3)
    assert counts["pipeline.step"] == counts["pipeline.fuse_rotations"] == frames
    assert counts["pipeline.select_tags"] == counts["pipeline.fuse_positions"] == frames
    assert counts["pipeline.fir_smooth"] == frames
    assert counts["pipeline.remove_outliers"] == 2 * (4 + 3)  # jbt and tbs-or-cl2 only
    assert counts["harness.run"] == len(rows)
    # one frame chain per scenario, shared by its variants
    assert counts["harness.compare_matrix"] == 1
    assert counts["pipeline.frame_chain"] == len(scenarios)


def test_traced_replay_records_per_frame_spans(spans, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("[trajectory]\nkind = hover\nz = 1.4\nduration = 0.3\n\n[run]\nseed = 2\n",
                      encoding="utf-8")
    stream, out = tmp_path / "stream.txt", tmp_path / "replay.csv"
    assert taglok.cli.main(["dump-detections", "--config", str(config), "--out", str(stream)]) == 0
    argv = ["replay", "--config", str(config), "--detections", str(stream), "--out", str(out),
            "--variant", "cl2"]
    code, counts = _traced(spans, lambda: taglok.cli.main(argv))
    assert code == 0
    frames = len(out.read_text(encoding="utf-8").splitlines()) - 1
    assert frames == 6
    assert counts["pipeline.step"] == counts["pipeline.fuse_rotations"] == frames
    assert counts["pipeline.frame_chain"] == counts["cli.replay"] == 1
    assert counts["camsim.parse_detection_line"] == len(stream.read_text().splitlines())
