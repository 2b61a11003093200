import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from taglok.camsim import (
    CameraModel,
    DetectionRows,
    NoiseModel,
    default_camera,
    down_facing_mount,
)
from taglok.harness import (
    DEFAULT_T3_WAYPOINTS,
    HOVER_ALTITUDE_PRESETS,
    CompareRow,
    ErrorStats,
    RunConfig,
    _natural_spline,
    _spline_at,
    compare_matrix,
    format_compare_csv,
    format_timeseries_csv,
    frame_to_json,
    hover_trajectory,
    run,
    simulate,
    spline_trajectory_t3,
    square_trajectory_t1,
    steps_trajectory_t2,
)
from taglok.pipeline import PipelineConfig, RotationFusion, ThsMode, apply_variant
from taglok.tagmap import build_pattern_map

from oracles import two_pass_mean_std


@pytest.fixture(scope="module")
def default_map():
    return build_pattern_map((3.0, 5.0))


def quick_config(default_map, trajectory, noise=None, seed=0, pipeline=None, sample_rate=20.0):
    return RunConfig(
        trajectory=trajectory,
        tag_map=default_map,
        camera=default_camera(),
        noise=replace(noise or NoiseModel.zero(), seed=seed),
        pipeline=pipeline or PipelineConfig(),
        sample_rate=sample_rate,
    )


def save_waypoints(waypoints, path):
    """Write waypoints in the format parse_waypoints reads, floats by repr."""
    lines = ["# x y z yaw  (meters, radians)"]
    for (x, y, z), yaw in waypoints:
        lines.append(f"{float(x)!r} {float(y)!r} {float(z)!r} {float(yaw)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestHoverTrajectory:
    def test_constant_samples(self):
        traj = hover_trajectory((0.0, 0.0, 0.8), duration=10.0)
        samples = [traj.sample(k / 20.0) for k in range(200)]
        assert len(samples) == 200
        for position, yaw in samples:
            assert np.array_equal(position, [0.0, 0.0, 0.8])
            assert yaw == 0.0

    def test_the_shared_position_is_read_only(self):
        traj = hover_trajectory((1.5, 2.5, 0.8))
        with pytest.raises(ValueError, match="read-only"):
            traj.at(0.0)[0][0] = 99.0
        assert traj.at(1.0)[0].tolist() == traj.sample(2.0)[0].tolist() == [1.5, 2.5, 0.8]

    def test_altitude_presets(self):
        assert HOVER_ALTITUDE_PRESETS == (0.8, 1.4, 2.0)

    def test_constant_yaw(self):
        traj = hover_trajectory((1.0, 1.0, 1.4), yaw=math.pi / 4)
        for t in (0.0, 1.3, 9.9):
            assert traj.sample(t)[1] == math.pi / 4

    @pytest.mark.parametrize("field", ["x", "y", "z", "yaw", "duration"])
    def test_each_field_refuses_a_bad_value_and_names_it(self, field):
        bad = {"z": (0.0, -1.0), "duration": (0.0, -1.0)}.get(field, ())
        for value in (math.nan, math.inf, -math.inf, *bad, "1"):
            values = {"x": 1.5, "y": 2.5, "z": 1.0, "yaw": 0.0, "duration": 1.0, field: value}
            with pytest.raises(ValueError, match=f"^{field} "):
                hover_trajectory((values["x"], values["y"], values["z"]), values["yaw"],
                                 values["duration"])


class TestSquareTrajectoryT1:
    def test_path_length(self):
        traj = square_trajectory_t1()
        ts = np.linspace(0.0, traj.duration, 4001)
        points = np.array([traj.sample(t)[0] for t in ts])
        length = float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())
        assert length == pytest.approx(7.2, abs=1e-6)

    def test_constant_altitude(self):
        traj = square_trajectory_t1()
        for t in np.linspace(0.0, traj.duration, 101):
            assert traj.sample(t)[0][2] == pytest.approx(0.8)

    def test_forward_phase_strictly_decreasing_y(self):
        traj = square_trajectory_t1()
        leg_duration = traj.duration / 4.0
        ts = np.linspace(0.0, leg_duration * 0.999, 50)
        ys = [traj.sample(t)[0][1] for t in ts]
        assert all(traj.at(t)[2] == "F" for t in ts)
        assert all(a > b for a, b in zip(ys, ys[1:]))

    def test_phase_sequence_and_axes(self):
        traj = square_trajectory_t1()
        leg = traj.duration / 4.0
        mid = leg / 2.0
        assert [traj.at(mid + k * leg)[2] for k in range(4)] == ["F", "R", "B", "L"]
        # R moves along -x, B along +y, L along +x
        for k, axis, sign in ((1, 0, -1.0), (2, 1, 1.0), (3, 0, 1.0)):
            before = traj.sample(k * leg + 0.2)[0][axis]
            after = traj.sample(k * leg + 0.8)[0][axis]
            assert (after - before) * sign > 0

    def test_closed_loop(self):
        traj = square_trajectory_t1()
        start, _ = traj.sample(0.0)
        end, _ = traj.sample(traj.duration)
        assert np.allclose(start, end, atol=1e-9)


class TestStepsTrajectoryT2:
    def test_altitude_after_third_ascent(self):
        traj = steps_trajectory_t2()
        hold, transit = 4.0, 0.6
        end_a3 = hold + 3 * (transit + hold) - 1e-6
        assert traj.sample(end_a3)[0][2] == pytest.approx(1.6)
        assert traj.at(end_a3)[2] == "A3"

    def test_hold_altitude_sequence(self):
        traj = steps_trajectory_t2()
        hold, transit = 4.0, 0.6
        segment = hold + transit
        hold_times = [hold / 2] + [hold + k * segment + transit + hold / 2 for k in range(6)]
        altitudes = [traj.sample(t)[0][2] for t in hold_times]
        assert altitudes == pytest.approx([0.7, 1.0, 1.3, 1.6, 1.3, 1.0, 0.7])
        steps = np.abs(np.diff(altitudes))
        assert np.allclose(steps, 0.3)

    def test_phase_labels(self):
        traj = steps_trajectory_t2()
        hold, transit = 4.0, 0.6
        segment = hold + transit
        labels = [traj.at(hold + k * segment + 0.1)[2] for k in range(6)]
        assert labels == ["A1", "A2", "A3", "D1", "D2", "D3"]
        assert traj.at(0.5)[2] == "S0"

    def test_xy_constant(self):
        traj = steps_trajectory_t2(xy=(1.2, 3.4))
        for t in np.linspace(0.0, traj.duration, 57):
            position, _ = traj.sample(t)
            assert position[0] == 1.2 and position[1] == 3.4

    def test_transitions_have_finite_rate(self):
        traj = steps_trajectory_t2()
        hold, transit = 4.0, 0.6
        mid_ramp = hold + transit / 2.0
        z = traj.sample(mid_ramp)[0][2]
        assert 0.7 < z < 1.0  # strictly between the two step levels


class TestSplineTrajectoryT3:
    def test_passes_through_waypoints(self):
        traj = spline_trajectory_t3()
        times = np.linspace(0.0, traj.duration, len(DEFAULT_T3_WAYPOINTS))
        for t, (expected, yaw) in zip(times, DEFAULT_T3_WAYPOINTS):
            position, got_yaw = traj.sample(t)
            assert np.allclose(position, expected, atol=1e-9)

    def test_collinear_waypoints_give_straight_line(self):
        waypoints = tuple(((k * 1.0, k * 1.0, 1.0), 0.0) for k in range(5))
        traj = spline_trajectory_t3(waypoints)
        for t in np.linspace(0.0, traj.duration, 40):
            position, _ = traj.sample(t)
            assert abs(position[0] - position[1]) < 1e-9
            assert position[2] == pytest.approx(1.0, abs=1e-9)

    def test_yaw_wraps_the_short_way(self):
        waypoints = (
            ((0.0, 0.0, 1.0), math.radians(160.0)),
            ((1.0, 0.0, 1.0), math.radians(170.0)),
            ((2.0, 0.0, 1.0), math.radians(-170.0)),
            ((3.0, 0.0, 1.0), math.radians(-160.0)),
        )
        traj = spline_trajectory_t3(waypoints)
        knot = traj.duration / 3.0
        _, yaw_mid = traj.sample(1.5 * knot)  # midway between 170 and -170 degrees
        assert abs(abs(yaw_mid) - math.pi) < 1e-9
        # never passes near zero yaw
        for t in np.linspace(0.0, traj.duration, 60):
            assert abs(traj.sample(t)[1]) > math.radians(150.0)

    def test_too_few_waypoints_rejected(self):
        with pytest.raises(ValueError):
            spline_trajectory_t3(DEFAULT_T3_WAYPOINTS[:3])

    def test_default_waypoints_span(self):
        altitudes = [w[0][2] for w in DEFAULT_T3_WAYPOINTS]
        assert len(DEFAULT_T3_WAYPOINTS) == 8
        assert min(altitudes) == 0.6 and max(altitudes) == 2.0
        total_sweep = DEFAULT_T3_WAYPOINTS[-1][1] - DEFAULT_T3_WAYPOINTS[0][1]
        assert total_sweep == pytest.approx(2.0 * math.pi)

    def test_waypoint_fixture_file_matches_default(self):
        from taglok.harness import parse_waypoints
        fixture = Path(__file__).parent / "data" / "t3_default_waypoints.txt"
        assert parse_waypoints(fixture.read_text(encoding="utf-8")) == DEFAULT_T3_WAYPOINTS

    def test_waypoint_file_round_trip(self, tmp_path):
        from taglok.harness import parse_waypoints
        path = tmp_path / "wp.txt"
        save_waypoints(DEFAULT_T3_WAYPOINTS, path)
        assert parse_waypoints(path.read_text(encoding="utf-8")) == DEFAULT_T3_WAYPOINTS

    def test_waypoint_file_errors_name_line(self):
        from taglok.harness import parse_waypoints
        with pytest.raises(ValueError, match="line 2"):
            parse_waypoints("0 0 1 0\n1 1\n")


def spline_cases():
    """(waypoints, duration) pairs: the defaults, two with a constant
    coordinate, and 200 random sets of 4-11 waypoints, half of them at their
    chord-length duration."""
    rng = np.random.default_rng(2023)
    cases = [pytest.param(DEFAULT_T3_WAYPOINTS, None, id="default"),
             pytest.param(tuple(((k * 1.0, k * 1.0, 1.0), 0.0) for k in range(5)), None,
                          id="diagonal"),
             pytest.param(tuple(((0.0, (-1.0) ** k, 1.0), 0.0) for k in range(6)), 7.0,
                          id="zigzag")]
    for k in range(200):
        points = rng.uniform(-4.0, 4.0, (int(rng.integers(4, 12)), 3))
        waypoints = tuple((tuple(p), 0.0) for p in points.tolist())
        duration = None if k % 2 else float(rng.uniform(0.5, 90.0))
        cases.append(pytest.param(waypoints, duration, id=f"random-{k}"))
    return cases


def assert_same_floats(ours, reference):
    assert ours.dtype == reference.dtype and ours.shape == reference.shape
    assert np.array_equal(ours, reference)
    assert ours.tobytes() == reference.tobytes()  # signed zeros too


class TestNaturalSplineMatchesCubicSpline:
    """The numpy natural spline of t3 gives the same floats as
    scipy.interpolate.CubicSpline(..., bc_type="natural"), bit for bit."""

    @pytest.mark.parametrize("waypoints, duration", spline_cases())
    def test_coefficients_and_values(self, waypoints, duration):
        # at the chord-length duration the trajectory itself is checked too
        traj = spline_trajectory_t3(waypoints) if duration is None else None
        duration = traj.duration if traj is not None else duration
        positions = np.array([w[0] for w in waypoints])
        times = np.linspace(0.0, duration, len(waypoints))
        reference = CubicSpline(times, positions, axis=0, bc_type="natural")
        coeffs = _natural_spline(times, positions)
        assert_same_floats(coeffs, reference.c)
        rng = np.random.default_rng(len(waypoints))
        inside = [*times, 0.0, duration, np.nextafter(duration, 0.0),
                  *rng.uniform(0.0, duration, 40)]
        outside = [-1e-9, -0.5 * duration, np.nextafter(duration, np.inf), 1.5 * duration]
        for t in map(float, inside + outside):
            assert_same_floats(_spline_at(times, coeffs, t), reference(t))
            if traj is not None:
                clipped = min(max(t, 0.0), duration)
                assert_same_floats(traj.sample(t)[0], reference(clipped))

    @pytest.mark.parametrize("waypoints, message", [
        # the coefficients overflow
        pytest.param(tuple((tuple(1e-160 * v for v in p), yaw) for p, yaw in DEFAULT_T3_WAYPOINTS),
                     "is not finite", id="scaled-1e-160"),
        # the end condition's 0 * dx**2 is 0 * inf, NaN, as in CubicSpline,
        # which rejects those slopes
        pytest.param(tuple(((k * 1.2e154, 0.0, 1.0), 0.0) for k in range(8)),
                     "is not finite", id="collinear-1.2e154"),
        # the squares of subnormal steps underflow: a chord, and a duration, of 0
        pytest.param(tuple(((k * 5e-324, 0.0, 1.0), 0.0) for k in range(8)),
                     "positive finite duration", id="subnormal-apart"),
    ])
    def test_a_spline_that_is_not_finite_is_rejected(self, waypoints, message):
        with pytest.raises(ValueError, match=message):
            spline_trajectory_t3(waypoints)


HOVER = hover_trajectory((1.5, 2.5, 1.0), duration=0.15)

# Each value that `run` used to take and then fail on inside `detect`, or run
# to the end with every frame dropped as no-tags: the part of the RunConfig
# that holds it, that part built with the value, and the field to be named.
BAD_PARTS = [
    ("noise", lambda: NoiseModel(size_exponent=math.nan), "size_exponent"),
    ("noise", lambda: NoiseModel(position_sigma_at_ref=math.inf), "position_sigma_at_ref"),
    ("noise", lambda: NoiseModel(outlier_position_scale=-1.0), "outlier_position_scale"),
    ("noise", lambda: NoiseModel(outlier_rotation_scale=0.0), "outlier_rotation_scale"),
    ("noise", lambda: NoiseModel(seed=True), "seed"),
    ("noise", lambda: NoiseModel(seed=1.5), "seed"),
    ("camera", lambda: default_camera(image_size=(10**400, 720)), "image_size"),
    ("camera", lambda: CameraModel(600.0, (1280.5, 720), down_facing_mount()), "image_size"),
    ("camera", lambda: default_camera(focal_px=math.inf), "focal_px"),
    ("camera", lambda: default_camera(detect_threshold_px=math.nan), "detect_threshold_px"),
    ("trajectory", lambda: hover_trajectory((1.5, 2.5, -1.0)), "z"),
    ("trajectory", lambda: hover_trajectory((1.5, 2.5, 1.0), duration=-1.0), "duration"),
    ("pipeline", lambda: PipelineConfig(iqr_gain=math.inf), "iqr_gain"),
    ("sample_rate", lambda: math.nan, "sample_rate"),
]


class TestRunConfigValidation:
    @pytest.mark.parametrize("part, build, field", BAD_PARTS,
                             ids=[f"{field}-{k}" for k, (_, _, field) in enumerate(BAD_PARTS)])
    def test_a_bad_field_fails_at_construction(self, default_map, part, build, field):
        base = quick_config(default_map, HOVER)
        with pytest.raises(ValueError, match=f"^{field} ") as caught:
            run(replace(base, **{part: build()}))
        names = {entry.name for entry in caught.traceback}
        assert not names & {"run", "simulate", "detect"}, names

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -20.0])
    def test_sample_rate_refuses_a_bad_value_and_names_it(self, default_map, rate):
        with pytest.raises(ValueError, match="^sample_rate "):
            quick_config(default_map, HOVER, sample_rate=rate)

    def test_a_noise_scale_that_overflows_is_refused_for_library_callers(self, default_map):
        with pytest.raises(ValueError, match="the noise scale overflows at an apparent size of "
                                             "12 px"):
            quick_config(default_map, HOVER, noise=NoiseModel(0.01, size_exponent=1000.0))
        with pytest.raises(ValueError, match="^noise.position_sigma: the noise sigma overflows"):
            quick_config(default_map, HOVER, noise=NoiseModel(1e307, size_exponent=2.0))


class TestRun:
    def test_zero_noise_hover_recovers_truth(self, default_map):
        cfg = quick_config(default_map, hover_trajectory((1.5, 2.5, 0.8), duration=2.0))
        result = run(cfg)
        assert result.stats.dropped == 0
        assert result.stats.frames == 40
        assert result.stats.ep_mnv_cm < 1e-7
        assert result.stats.eo_mnv_deg < 1e-7

    def test_rerun_identical(self, default_map):
        noise = NoiseModel(0.01, 0.02, 100.0, outlier_probability=0.05,
                           outlier_position_scale=10.0)
        cfg = quick_config(default_map, hover_trajectory((1.5, 2.5, 1.4), duration=2.0),
                           noise=noise, seed=31)
        assert run(cfg).stats == run(cfg).stats

    def test_noise_seed_changes_stats(self, default_map):
        noise = NoiseModel(0.01, 0.0, 100.0)
        traj = hover_trajectory((1.5, 2.5, 1.4), duration=1.0)
        a = run(quick_config(default_map, traj, noise=noise, seed=1)).stats
        b = run(quick_config(default_map, traj, noise=noise, seed=2)).stats
        assert a != b

    def test_stats_match_independent_two_pass(self, default_map):
        noise = NoiseModel(0.01, 0.02, 100.0)
        cfg = quick_config(default_map, hover_trajectory((1.5, 2.5, 1.4), duration=2.0),
                           noise=noise, seed=5)
        result = run(cfg)
        ep = [f.ep_cm for f in result.frames if f.ep_cm is not None]
        eo = [f.eo_deg for f in result.frames if f.eo_deg is not None]
        mean_ep, std_ep = two_pass_mean_std(ep)
        mean_eo, std_eo = two_pass_mean_std(eo)
        assert result.stats.ep_mnv_cm == pytest.approx(mean_ep, rel=1e-12)
        assert result.stats.ep_std_cm == pytest.approx(std_ep, rel=1e-12)
        assert result.stats.eo_mnv_deg == pytest.approx(mean_eo, rel=1e-12)
        assert result.stats.eo_std_deg == pytest.approx(std_eo, rel=1e-12)

    def test_dropped_frames_counted_and_excluded(self, default_map):
        # hovering far off the map: no tags, every frame dropped
        cfg = quick_config(default_map, hover_trajectory((50.0, 50.0, 1.0), duration=1.0))
        result = run(cfg)
        assert result.stats.dropped == 20
        assert result.stats.frames == 0
        assert math.isnan(result.stats.ep_mnv_cm)

    def test_dropped_frames_counted_per_reason(self, default_map):
        # frames 1 and 3 of five lose their detections; the others are scored
        cfg = quick_config(default_map, hover_trajectory((1.5, 2.5, 1.4), duration=0.25))
        frames = list(simulate(cfg))
        empty = DetectionRows(np.empty(0, dtype=np.int64), np.empty((0, 3)), np.empty((0, 4)),
                              np.empty(0))
        frames[1:4:2] = [f._replace(detections=empty) for f in frames[1:4:2]]
        stats = run(cfg, frames).stats
        assert (stats.frames, stats.dropped, stats.drop_reasons) == (3, 2, (("no-tags", 2),))
        off_map = quick_config(default_map, hover_trajectory((50.0, 50.0, 1.0), duration=1.0))
        assert run(off_map).stats.drop_reasons == (("no-tags", 20),)
        assert ErrorStats(0.0, 0.0, 0.0, 0.0, 1).drop_reasons == ()

    def test_phase_stats_partition_samples(self, default_map):
        # 72 frames at 2.5 Hz, 18 a leg
        cfg = quick_config(default_map, square_trajectory_t1(), sample_rate=2.5)
        result = run(cfg)
        assert set(result.phase_stats) == {"F", "R", "B", "L"}
        assert list(result.phase_stats) == ["F", "R", "B", "L"]  # in first-seen order
        total = sum(s.frames + s.dropped for s in result.phase_stats.values())
        assert total == len(result.frames)

    def test_t2_phase_stats_present(self, default_map):
        result = run(quick_config(default_map, steps_trajectory_t2(), sample_rate=2.5))
        assert set(result.phase_stats) == {"S0", "A1", "A2", "A3", "D1", "D2", "D3"}

    def test_each_simulated_frame_samples_its_trajectory_once(self, default_map):
        calls = []
        t1 = square_trajectory_t1()

        def counted(t):
            calls.append(t)
            return t1.at(t)

        cfg = quick_config(default_map, replace(t1, at=counted), sample_rate=2.5)
        result = run(cfg)
        assert len(calls) == len(result.frames) == 72
        assert [r.phase for r in result.frames] == [t1.at(r.t)[2] for r in result.frames]
        calls.clear()
        rows = compare_matrix(cfg, ["jbt", "tbs-or"], [("t1", cfg.trajectory)])
        assert len(calls) == 72 and [r.stats.frames + r.stats.dropped for r in rows] == [72, 72]

    def test_per_frame_records_are_immutable(self, default_map):
        # a simulated frame, its record, estimate and stage trace, and a rotation mean
        cfg = quick_config(default_map, hover_trajectory((1.5, 2.5, 1.4), duration=0.05))
        frame = next(simulate(cfg))
        record = run(cfg, [frame]).frames[0]
        fusion = RotationFusion(np.array([1.0, 0.0, 0.0, 0.0]))
        for value, name in [(frame, "detections"), (record, "ep_cm"), (record.output, "pose"),
                            (record.output.stage_trace, "reason"), (fusion, "quat")]:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))


class TestCompareMatrix:
    def test_row_and_column_counts(self, default_map):
        base = quick_config(default_map, hover_trajectory((1.5, 2.5, 0.8), duration=0.5),
                            noise=NoiseModel(0.005, 0.01, 100.0), seed=3)
        scenarios = [
            ("h08", hover_trajectory((1.5, 2.5, 0.8), duration=0.5)),
            ("h14", hover_trajectory((1.5, 2.5, 1.4), duration=0.5)),
        ]
        variants = ["jbt", "all-noor", "tbs-or"]
        rows = compare_matrix(base, variants, scenarios)
        assert len(rows) == 6
        assert sorted({r.scenario for r in rows}) == ["h08", "h14"]
        assert sorted({r.variant for r in rows}) == sorted(variants)

    def test_empty_variants_single_column(self, default_map):
        base = quick_config(default_map, hover_trajectory((1.5, 2.5, 0.8), duration=0.5))
        rows = compare_matrix(base, [])
        assert len(rows) == 1 and rows[0].variant == "base"
        assert rows[0].scenario == "hover"

    def test_cells_match_manual_runs(self, default_map):
        # compare_matrix simulates each scenario once; every cell must equal
        # a run that simulates on its own
        noise = NoiseModel(0.01, 0.02, 100.0, outlier_probability=0.05,
                           outlier_position_scale=10.0)
        base = quick_config(default_map, hover_trajectory((1.5, 2.5, 1.4), duration=1.0),
                            noise=noise, seed=17)
        scenarios = [
            ("h14", hover_trajectory((1.5, 2.5, 1.4), duration=1.0)),
            ("h20", hover_trajectory((1.5, 2.5, 2.0), duration=0.5)),
        ]
        variants = ["jbt", "all-noor", "all-or", "tbs-noor", "tbs-or"]
        rows = compare_matrix(base, variants, scenarios)
        manual = [
            CompareRow(name, variant, run(replace(
                base, trajectory=trajectory,
                pipeline=apply_variant(base.pipeline, variant))).stats)
            for name, trajectory in scenarios for variant in variants
        ]
        assert [r.stats for r in rows] == [r.stats for r in manual]
        assert format_compare_csv(rows) == format_compare_csv(manual)


class TestEmission:
    def test_compare_csv_layout(self, default_map):
        base = quick_config(default_map, hover_trajectory((1.5, 2.5, 0.8), duration=0.5),
                            noise=NoiseModel(0.005, 0.01, 100.0), seed=3)
        rows = compare_matrix(base, ["jbt", "tbs-or"])
        text = format_compare_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "scenario,variant,ep_mnv_cm,ep_std_cm,eo_mnv_deg,eo_std_deg,frames,dropped"
        assert len(lines) == 3

    def test_timeseries_csv(self, default_map):
        cfg = quick_config(default_map, hover_trajectory((1.5, 2.5, 0.8), duration=0.5))
        result = run(cfg)
        lines = format_timeseries_csv(result.frames).strip().split("\n")
        assert lines[0] == "t,ep_cm,eo_deg,tags_used"
        assert len(lines) == len(result.frames) + 1

    def test_frame_json_round_trips(self, default_map):
        import json
        cfg = quick_config(default_map, hover_trajectory((1.5, 2.5, 0.8), duration=0.5))
        result = run(cfg)
        payload = json.loads(json.dumps(frame_to_json(result.frames[0])))
        assert payload["frame"] == 0
        assert payload["pose_est"] is not None
        assert len(payload["pose_est"]["q"]) == 4

    def test_a_cell_without_estimates_has_empty_error_fields(self):
        nan = float("nan")
        row = CompareRow("empty", "base", ErrorStats(nan, nan, nan, nan, 0, (("no-tags", 5),)))
        assert format_compare_csv([row]).splitlines()[1] == "empty,base,,,,,0,5"
