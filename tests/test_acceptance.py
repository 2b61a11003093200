"""Acceptance gate: one test per criterion, each printing a PASS line.

The expensive runs (zero-noise round trips, the paired-seed hover
comparison) live in module-scoped fixtures so the statistics criterion can
audit every run the gate produced. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from taglok.camsim import NoiseModel, default_camera
from taglok.cli import main
from taglok.geometry import Pose, UnitQuaternion, quat_to_matrix
from taglok.harness import (
    HOVER_ALTITUDE_PRESETS,
    RunConfig,
    hover_trajectory,
    run,
    simulate,
    spline_trajectory_t3,
    square_trajectory_t1,
    steps_trajectory_t2,
)
from taglok.pipeline import (
    EQUAL_SPREAD_TOL,
    PipelineConfig,
    ThsMode,
    apply_variant,
    fir_smooth,
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
    make_search_grid,
    naive_outlier_partition,
    random_quat_cluster,
    rows_from,
    selected_rows,
    two_pass_mean_std,
    unbundle,
)

HOVER_XY = (1.5, 2.5)
RUNS_PER_ALTITUDE = 20
COMPARISON_NOISE = NoiseModel(
    position_sigma_at_ref=0.01,
    rotation_sigma_at_ref=0.02,
    reference_apparent_size=100.0,
    size_exponent=1.0,
    outlier_probability=0.05,
    outlier_position_scale=12.0,
    outlier_rotation_scale=8.0,
)


def announce(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS: {text}")


@pytest.fixture(scope="module")
def default_map():
    return build_pattern_map((3.0, 5.0))


@pytest.fixture(scope="module")
def zero_noise_results(default_map):
    """Zero-noise end-to-end runs on all four trajectory shapes.

    fir_length = 1 isolates the frame chain: the moving-average FIR lags by
    design on moving trajectories and is covered by its own criterion.
    """
    cam = default_camera()
    pipe = PipelineConfig(fir_length=1)
    trajectories = {
        "hover": hover_trajectory((*HOVER_XY, 0.8), duration=5.0),
        "t1": square_trajectory_t1(),
        "t2": steps_trajectory_t2(),
        "t3": spline_trajectory_t3(),
    }
    return {
        label: run(RunConfig(traj, default_map, cam, NoiseModel.zero(), pipe, 20.0))
        for label, traj in trajectories.items()
    }


@pytest.fixture(scope="module")
def comparison_results(default_map):
    """Paired-seed hover runs at the three altitudes for NEW / JBT / ALL-notOR.

    Each (altitude, seed) is simulated once and every variant runs over
    those frames, as compare_matrix does."""
    cam = default_camera()
    variants = {
        "new": PipelineConfig(),
        "jbt": apply_variant(PipelineConfig(), "jbt-noor"),
        "all-notor": apply_variant(PipelineConfig(), "all-noor"),
    }
    records = []
    started = time.monotonic()
    for altitude_index, altitude in enumerate(HOVER_ALTITUDE_PRESETS):
        trajectory = hover_trajectory((*HOVER_XY, altitude), duration=5.0)
        for i in range(RUNS_PER_ALTITUDE):
            seed = 1000 * altitude_index + i
            noise = replace(COMPARISON_NOISE, seed=seed)
            cfg = RunConfig(trajectory, default_map, cam, noise, PipelineConfig(), 20.0)
            frames = list(simulate(cfg))
            for name, pipe in variants.items():
                records.append((altitude, seed, name, run(replace(cfg, pipeline=pipe), frames)))
    return records, time.monotonic() - started


def test_criterion_01_ql2_optimality():
    rng = np.random.default_rng(20250809)
    grid = make_search_grid(np.random.default_rng(1), 4096)
    started = time.monotonic()
    worst = 0.0
    for _ in range(500):
        quats = random_quat_cluster(rng, int(rng.integers(3, 9)), 60.0)
        weights = rng.uniform(0.5, 8.0, len(quats))
        estimates = [
            PerTagEstimate(i, Pose(np.zeros(3), UnitQuaternion.from_array(q)), w)
            for i, (q, w) in enumerate(zip(quats, weights))
        ]
        got = fuse_rotations_ql2(as_bundle(estimates)).quaternion.as_array()
        cost = float(sum(
            w * min(np.linalg.norm(q - got), np.linalg.norm(q + got)) ** 2
            for q, w in zip(quats, weights)
        ))
        _, brute_cost = brute_force_ql2_mean(quats, weights, rng, grid=grid)
        worst = max(worst, abs(cost - brute_cost))
        assert abs(cost - brute_cost) <= 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    announce(1, f"QL2 closed form within 1e-6 of brute force on 500 sets "
                f"(worst gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_cl2_optimality():
    rng = np.random.default_rng(20250810)
    grid = make_search_grid(np.random.default_rng(2), 4096)
    started = time.monotonic()
    worst = 0.0
    for _ in range(500):
        quats = random_quat_cluster(rng, int(rng.integers(3, 9)), 60.0)
        weights = rng.uniform(0.5, 8.0, len(quats))
        estimates = [
            PerTagEstimate(i, Pose(np.zeros(3), UnitQuaternion.from_array(q)), w)
            for i, (q, w) in enumerate(zip(quats, weights))
        ]
        R = quat_to_matrix(fuse_rotations_cl2(as_bundle(estimates)).quaternion)
        cost = float(sum(
            w * np.linalg.norm(quat_to_matrix(UnitQuaternion.from_array(q)) - R) ** 2
            for q, w in zip(quats, weights)
        ))
        _, brute_cost = brute_force_chordal_mean(quats, weights, rng, grid=grid)
        worst = max(worst, abs(cost - brute_cost))
        assert abs(cost - brute_cost) <= 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    announce(2, f"CL2 eigenvector within 1e-6 of brute force on 500 sets "
                f"(worst gap {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_03_iqr_oracle_equivalence():
    rng = np.random.default_rng(20250811)
    for _ in range(1000):
        n = int(rng.integers(3, 31))
        positions = {}
        for i in range(n):
            p = rng.normal(scale=0.05, size=3)
            if rng.random() < 0.3:
                axes = rng.random(3) < 0.5
                p[axes] += rng.uniform(0.5, 3.0, size=int(axes.sum())) * rng.choice([-1, 1])
            positions[i] = p
        estimates = [
            PerTagEstimate(i, Pose(positions[i], UnitQuaternion.identity()), 1.0)
            for i in positions
        ]
        kept, rejected = map(unbundle, remove_outliers(as_bundle(estimates), 1.5))
        oracle_kept, oracle_rejected = naive_outlier_partition(
            positions, 1.5, EQUAL_SPREAD_TOL)
        assert [e.tag_id for e in kept] == oracle_kept
        assert [e.tag_id for e in rejected] == oracle_rejected
    announce(3, "outlier removal matches the naive per-axis quartile oracle "
                "exactly on 1000 random sets")


def test_criterion_04_noiseless_round_trip(zero_noise_results):
    for label, result in zero_noise_results.items():
        # a pose must appear on exactly the frames that saw at least one tag
        for record in result.frames:
            has_tags = record.output.stage_trace.n_detections > 0
            assert (record.output.pose is not None) == has_tags, (label, record.frame)
        assert result.stats.frames > 0, label
        assert result.stats.ep_mnv_cm < 1e-7, (label, result.stats)
        assert result.stats.eo_mnv_deg < 1e-7, (label, result.stats)
    summary = ", ".join(
        f"{label}: ep {result.stats.ep_mnv_cm:.1e} cm / eo {result.stats.eo_mnv_deg:.1e} deg"
        for label, result in zero_noise_results.items()
    )
    announce(4, f"noiseless frame chain exact on all trajectories ({summary})")


def test_criterion_05_directional_table_finding(comparison_results):
    records, elapsed = comparison_results
    by_run: dict[tuple, dict[str, float]] = {}
    for altitude, seed, name, result in records:
        by_run.setdefault((altitude, seed), {})[name] = result.stats.ep_mnv_cm
    total = len(by_run)
    assert total == RUNS_PER_ALTITUDE * len(HOVER_ALTITUDE_PRESETS)
    wins_vs_jbt = sum(cell["new"] < cell["jbt"] for cell in by_run.values())
    wins_vs_all = sum(cell["new"] < cell["all-notor"] for cell in by_run.values())
    assert wins_vs_jbt >= math.ceil(0.9 * total), f"{wins_vs_jbt}/{total} vs JBT"
    assert wins_vs_all == total, f"{wins_vs_all}/{total} vs ALL-notOR"
    assert elapsed < 300.0
    announce(5, f"NEW beats JBT in {wins_vs_jbt}/{total} runs and ALL-notOR in "
                f"{wins_vs_all}/{total} ({elapsed:.0f}s)")


def test_criterion_06_double_coverage_invariance():
    rng = np.random.default_rng(20250812)
    for _ in range(500):
        quats = random_quat_cluster(rng, int(rng.integers(3, 8)), 60.0)
        weights = rng.uniform(0.5, 8.0, len(quats))
        flips = rng.random(len(quats)) < 0.5
        base, flipped = [], []
        for i, (q, w, flip) in enumerate(zip(quats, weights, flips)):
            quat = UnitQuaternion.from_array(q)
            base.append(PerTagEstimate(i, Pose(np.zeros(3), quat), w))
            flipped.append(PerTagEstimate(
                i, Pose(np.zeros(3), quat.negate() if flip else quat), w))
        for fuse in (fuse_rotations_ql2, fuse_rotations_cl2):
            difference = np.abs(
                quat_to_matrix(fuse(as_bundle(base)).quaternion)
                - quat_to_matrix(fuse(as_bundle(flipped)).quaternion)
            ).max()
            assert difference < 1e-9
    announce(6, "random sign flips leave QL2/CL2 rotation matrices unchanged "
                "within 1e-9 (500 trials)")


def test_criterion_07_fir_contract():
    length = PipelineConfig().fir_length
    assert length == 5
    constant = Pose(np.array([0.7, -0.3, 1.1]), UnitQuaternion(0.9, 0.1, 0.2, 0.3))
    history: tuple = ()
    for _ in range(10):
        out = fir_smooth(history, constant, length)
        assert np.array_equal(out.position, constant.position)
        assert out.orientation == constant.orientation
        history = (history + (constant,))[-length:]

    zero = Pose(np.zeros(3), UnitQuaternion.identity())
    one = Pose(np.array([1.0, 0.0, 0.0]), UnitQuaternion.identity())
    history = (zero,) * length
    outputs = []
    for _ in range(length + 2):
        out = fir_smooth(history, one, length)
        outputs.append(float(out.position[0]))
        history = (history + (one,))[-length:]
    for k, value in enumerate(outputs, start=1):
        expected = min(k, length) / length
        assert abs(value - expected) < 1e-12
    assert outputs[length - 2] != 1.0 and outputs[length - 1] == 1.0
    announce(7, "FIR reproduces constants exactly and ramps a unit step in "
                "exactly 5 frames with k/5 intermediates")


def test_criterion_08_ths_nesting():
    rng = np.random.default_rng(20250813)
    classes = list(SizeClass)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        entries = [
            TagEntry(i, Pose(np.array([2.0 * i, 0.0, 0.0]), UnitQuaternion.identity()),
                     classes[rng.integers(0, 4)])
            for i in range(n)
        ]
        tag_map = TagMap(entries, (2.0 * n + 2.0, 2.0))
        detections = rows_from([
            Detection(i, Pose(np.array([0.0, 0.0, 1.0]), UnitQuaternion.identity()), 50.0)
            for i in range(n)
        ])
        jbt = set(selected_rows(detections, tag_map, ThsMode.JBT).ids.tolist())
        tbs = set(selected_rows(detections, tag_map, ThsMode.TBS).ids.tolist())
        full = set(selected_rows(detections, tag_map, ThsMode.ALL).ids.tolist())
        assert jbt <= tbs <= full
    announce(8, "JBT subset of TBS subset of ALL on 1000 random detection sets")


COMPARE_CONFIG = """
[trajectory]
duration = 0.5

[noise]
position_sigma = 0.008
rotation_sigma = 0.015
outlier_probability = 0.05

[compare]
variants = jbt all-noor all-or tbs-noor tbs-or
scenarios = hover:1.5:2.5:0.8 hover:1.5:2.5:1.4 hover:1.5:2.5:2.0

[run]
seed = 21
"""


def test_criterion_09_cli_determinism(tmp_path):
    config = tmp_path / "table1.cfg"
    config.write_text(COMPARE_CONFIG, encoding="utf-8")
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["compare", "--config", str(config), "--out", str(first)]) == 0
    assert main(["compare", "--config", str(config), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 5  # header + scenarios x variants
    announce(9, "two identical `taglok compare` invocations emit byte-identical CSVs")


def test_criterion_10_statistics_correctness(zero_noise_results, comparison_results):
    audited = 0
    results = list(zero_noise_results.values())
    results.extend(result for _, _, _, result in comparison_results[0])
    for result in results:
        ep = [f.ep_cm for f in result.frames if f.ep_cm is not None]
        eo = [f.eo_deg for f in result.frames if f.eo_deg is not None]
        if not ep:
            continue
        mean_ep, std_ep = two_pass_mean_std(ep)
        mean_eo, std_eo = two_pass_mean_std(eo)
        stats = result.stats
        for got, want in ((stats.ep_mnv_cm, mean_ep), (stats.ep_std_cm, std_ep),
                          (stats.eo_mnv_deg, mean_eo), (stats.eo_std_deg, std_eo)):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), (got, want)
        assert stats.frames == len(ep)
        assert stats.frames + stats.dropped == len(result.frames)
        audited += 1
    assert audited >= 4 + 3 * RUNS_PER_ALTITUDE * 3 - 1
    announce(10, f"mnv/std match an independent two-pass computation within "
                 f"1e-12 relative on all {audited} acceptance runs")
