"""One benchmark process: set taglok up, run one workload for a time budget.

Started by run.py in a fresh interpreter, so that set-up time and peak RSS
are those a `taglok` command pays. Arguments come as `--key value` pairs:

    --src DIR --workload NAME --config FILE --t0 NS --seconds S --trace 0|1
        --scratch DIR [--stream FILE] [--ref-config FILE [--ref-stream FILE]]

A replay stream that does not exist yet is written with `taglok
dump-detections` before timing starts. With `--ref-config` the process
also scores the workload's accuracy on that reference input, after timing.

`--t0` is the parent's CLOCK_MONOTONIC reading just before it started this
process; set-up time runs from there to a ready RunConfig (import, config
parse, map build, first `TagMap.world_frames()`). The last stdout line is
one JSON object with the timings, output digests, checks and, when traced,
the per-layer metrics.
"""

import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from probe import REFERENCE_S, probe
from spans import Tracer


@dataclass
class Call:
    """One entry call of a workload and what its output shows."""

    wall_ns: int
    text: str
    attempted: int
    produced: int
    dropped: int
    errors: list = field(default_factory=list)  # (ep_cm, eo_deg) per estimate
    problems: list = field(default_factory=list)


def _n_frames(cfg):
    return max(1, int(round(cfg.trajectory.duration * cfg.sample_rate)))


def _finite(*values):
    return all(math.isfinite(float(v)) for v in values)


def hover_dense(cli, cfg, opts):
    import taglok.harness as harness

    expected = _n_frames(cfg)

    def call():
        start = time.perf_counter_ns()
        result = harness.run(cfg)
        wall = time.perf_counter_ns() - start
        frames, stats = result.frames, result.stats
        c = Call(wall, harness.format_timeseries_csv(frames), len(frames),
                 stats.frames, stats.dropped)
        for f in frames:
            pose = f.output.pose
            if pose is None:
                continue
            if not _finite(*pose.position, *pose.orientation.as_array()):
                c.problems.append(f"frame {f.frame}: non-finite pose")
            c.errors.append((f.ep_cm, f.eo_deg))
        if len(frames) != expected or stats.frames + stats.dropped != expected:
            c.problems.append(f"frames {stats.frames} + dropped {stats.dropped} != attempted {expected}")
        return c

    return call, expected


def compare_table(cli, cfg, opts):
    import taglok.harness as harness

    settings = cli.load_settings(opts["--config"])
    scenarios = [cli.parse_scenario(token, settings)
                 for token in settings.get("compare", "scenarios")]
    variants = list(settings.get("compare", "variants"))
    expected = len(scenarios) * len(variants) * _n_frames(cfg)

    def call():
        start = time.perf_counter_ns()
        rows = harness.compare_matrix(cfg, variants, scenarios)
        wall = time.perf_counter_ns() - start
        produced = sum(r.stats.frames for r in rows)
        dropped = sum(r.stats.dropped for r in rows)
        c = Call(wall, harness.format_compare_csv(rows), produced + dropped, produced, dropped)
        for r in rows:
            s = r.stats
            if s.frames and not _finite(s.ep_mnv_cm, s.ep_std_cm, s.eo_mnv_deg, s.eo_std_deg):
                c.problems.append(f"{r.scenario} {r.variant}: non-finite statistics")
            # the mean over all estimates weights each cell by its frame count
            c.errors += [(s.ep_mnv_cm, s.eo_mnv_deg)] * s.frames
        if produced + dropped != expected:
            c.problems.append(f"frames {produced} + dropped {dropped} != attempted {expected}")
        return c

    return call, expected


def _angle_to_yaw_deg(q, yaw):
    """Rotation angle between unit quaternion q = (w, x, y, z) and a pure yaw."""
    w, x, y, z = q
    c, s = math.cos(0.5 * yaw), math.sin(0.5 * yaw)
    rw, rx, ry, rz = c * w + s * z, c * x + s * y, c * y - s * x, c * z - s * w
    return math.degrees(2.0 * math.atan2(math.sqrt(rx * rx + ry * ry + rz * rz), abs(rw)))


def replay_t3(cli, cfg, opts):
    stream = opts["--stream"]
    if not Path(stream).exists():  # the first process of a run writes the input stream
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["dump-detections", "--config", opts["--config"], "--out", stream]):
                raise RuntimeError("taglok dump-detections failed")
    out_csv = Path(opts["--scratch"]) / "replay.csv"
    argv = ["replay", "--config", opts["--config"], "--detections", stream,
            "--out", str(out_csv), "--variant", "cl2"]
    expected = len({line.split(None, 1)[0] for line in
                    Path(stream).read_text(encoding="utf-8").splitlines() if line.strip()})

    def call():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter_ns()
            code = cli.main(argv)
            wall = time.perf_counter_ns() - start
        text = out_csv.read_text(encoding="utf-8") if code == 0 else ""
        rows = [line.split(",") for line in text.splitlines()[1:]]
        produced = sum(1 for r in rows if r[2])
        c = Call(wall, text, len(rows), produced, len(rows) - produced)
        if code != 0:
            c.problems.append(f"taglok replay exited {code}")
        for r in rows:
            if not r[2]:
                continue
            frame, t, values = r[0], float(r[1]), [float(v) for v in r[2:9]]
            if not _finite(*values):
                c.problems.append(f"frame {frame}: non-finite pose")
                continue
            position, yaw = cfg.trajectory.sample(t)
            ep = 100.0 * math.dist(values[:3], [float(v) for v in position])
            c.errors.append((ep, _angle_to_yaw_deg(values[3:], yaw)))
        if len(rows) != expected or produced + c.dropped != expected:
            c.problems.append(f"frames {produced} + dropped {c.dropped} != attempted {expected}")
        return c

    return call, expected


def _accuracy(call):
    """Mean position [cm] and orientation [deg] error over a call's estimates."""
    if not call.errors:
        return {"ep_mnv_cm": float("nan"), "eo_mnv_deg": float("nan")}
    return {"ep_mnv_cm": statistics.fmean(e[0] for e in call.errors),
            "eo_mnv_deg": statistics.fmean(e[1] for e in call.errors)}


WORKLOADS = {"hover_dense": hover_dense, "compare_table": compare_table, "replay_t3": replay_t3}


def _percentile(values, pct):
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _tail(samples):
    """(pct, value): the highest of p50/p90/p99/p99.9 with ten samples beyond it."""
    best = (50.0, _percentile(samples, 50.0)) if samples else (0.0, 0.0)
    for pct in (90.0, 99.0, 99.9):
        if len(samples) * (1.0 - pct / 100.0) >= 10:
            best = (pct, _percentile(samples, pct))
    return best


def layer_metrics(tracer, traced_calls, untraced_calls, n_tags):
    """Per-layer metrics from the spans of the traced calls and of set-up."""
    total, own, count = defaultdict(int), defaultdict(int), Counter()
    setup_total, setup_count = defaultdict(int), Counter()
    top_level = 0
    steps_us, detect_keys, detections, visible = [], set(), [], []
    step_infos = []
    for name, start, end, parent, workload, child, info in tracer.spans:
        duration = end - start
        if workload == "setup":
            setup_total[name] += duration
            setup_count[name] += 1
            continue
        total[name] += duration
        own[name] += duration - child
        count[name] += 1
        if parent < 0:
            top_level += duration
        if name == "pipeline.step":
            steps_us.append(duration / 1e3)
        if info is None:
            continue
        if name == "pipeline.step":
            step_infos.append(info)
        elif name == "camsim.detect":
            detections.append(info[0])
            detect_keys.add((workload, info[1]))
        elif name == "camsim.visible_tags":
            visible.append(info)

    def per(value, n):
        return value / n if n else 0.0

    n_calls = len(traced_calls)
    frames = count["pipeline.step"]
    detects = count["camsim.detect"]
    traced_wall = sum(c.wall_ns for c in traced_calls)
    tail_pct, tail_us = _tail(steps_us)
    reasons = Counter(info[5] for info in step_infos if info[4])
    selected = sum(info[0] for info in step_infos)
    metrics = {
        "camsim.detect_us_per_frame": per(total["camsim.detect"] / 1e3, detects),
        "camsim.detect_self_us_per_frame": per(own["camsim.detect"] / 1e3, detects),
        "camsim.visible_tags_us_per_frame": per(total["camsim.visible_tags"] / 1e3, detects),
        "camsim.parse_detection_line_us_per_line": per(
            total["camsim.parse_detection_line"] / 1e3, count["camsim.parse_detection_line"]),
        "camsim.visible_per_frame": per(sum(visible), len(visible)),
        "camsim.detections_per_frame": per(sum(detections), len(detections)),
        "camsim.detect_calls_per_frame_index": per(detects, len(detect_keys)),
        "pipeline.step_us_p50": _percentile(steps_us, 50.0) if steps_us else 0.0,
        "pipeline.step_us_tail": tail_us,
        "pipeline.step_tail_pct": tail_pct,
        "pipeline.step_samples": len(steps_us),
        "pipeline.step_self_us_per_frame": per(own["pipeline.step"] / 1e3, frames),
        "pipeline.select_tags_us_per_frame": per(total["pipeline.select_tags"] / 1e3, frames),
        "pipeline.frame_chain_us_per_frame": per(total["pipeline.frame_chain"] / 1e3, frames),
        "pipeline.frame_chain_calls_per_frame": per(count["pipeline.frame_chain"], frames),
        "pipeline.remove_outliers_us_per_frame": per(total["pipeline.remove_outliers"] / 1e3, frames),
        "pipeline.fuse_positions_us_per_frame": per(total["pipeline.fuse_positions"] / 1e3, frames),
        "pipeline.fuse_rotations_us_per_frame": per(total["pipeline.fuse_rotations"] / 1e3, frames),
        "pipeline.fir_smooth_us_per_frame": per(total["pipeline.fir_smooth"] / 1e3, frames),
        "pipeline.selected_per_frame": per(selected, len(step_infos)),
        "pipeline.kept_ratio": per(sum(info[1] for info in step_infos), selected),
        "pipeline.dispersion_warnings": per(sum(info[2] for info in step_infos), n_calls),
        "pipeline.degenerate_fusions": per(sum(info[3] for info in step_infos), n_calls),
        "pipeline.dropped_frames.no-tags": per(reasons.pop("no-tags", 0), n_calls),
        "pipeline.dropped_frames.all-rejected": per(reasons.pop("all-rejected", 0), n_calls),
        "pipeline.dropped_frames.other": per(sum(reasons.values()), n_calls),
        "harness.run_self_ms": per(own["harness.run"] / 1e6, count["harness.run"]),
        "harness.compare_matrix_self_ms": per(own["harness.compare_matrix"] / 1e6,
                                              count["harness.compare_matrix"]),
        "cli.load_run_config_ms": per(setup_total["cli.load_run_config"] / 1e6,
                                      setup_count["cli.load_run_config"]),
        "cli.replay_self_ms": per(own["cli.replay"] / 1e6, count["cli.replay"]),
        "tagmap.build_pattern_map_ms": per(setup_total["tagmap.build_pattern_map"] / 1e6,
                                           setup_count["tagmap.build_pattern_map"]),
        "tagmap.world_frames_ms": per(setup_total["tagmap.world_frames"] / 1e6,
                                      setup_count["cli.load_run_config"]),
        "tagmap.tags": n_tags,
        "trace.overhead_frac": (statistics.median(c.wall_ns for c in traced_calls)
                                / statistics.median(c.wall_ns for c in untraced_calls) - 1.0),
        "trace.uncovered_frac": 1.0 - per(top_level, traced_wall),
        "trace.absent_targets": len(tracer.absent),
    }
    dominant = max(own, key=own.get) if own else None
    share = per(own[dominant], traced_wall) if dominant else 0.0
    metrics["trace.dominant_self_frac"] = share
    shares = {name: per(own[name], traced_wall) for name in count}
    return metrics, dominant, dict(count), shares


def machine():
    import numpy
    import scipy
    import ctypes

    blas_threads, libs = None, set()
    try:  # the BLAS numpy loaded, to ask it how many threads it runs
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        pass
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                blas_threads = getter()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads}


def setup(opts):
    """Import taglok and build a ready RunConfig; traced when --trace is 1."""
    sys.path.insert(0, opts["--src"])
    import taglok.cli as cli

    tracer = None
    if opts.get("--trace") == "1":
        tracer = Tracer()
        tracer.workload = "setup"
        tracer.install()
    cfg = cli.load_run_config(opts["--config"])
    cfg.tag_map.world_frames()
    ready = time.monotonic_ns()
    if tracer is not None:
        tracer.uninstall()
    return cli, cfg, tracer, (ready - int(opts["--t0"])) / 1e9


def main(argv):
    opts = dict(zip(argv[0::2], argv[1::2]))
    cli, cfg, tracer, setup_s = setup(opts)
    call, expected = WORKLOADS[opts["--workload"]](cli, cfg, opts)
    budget_ns = float(opts["--seconds"]) * 1e9
    traced = tracer is not None
    calls, untraced, traced_calls = [], [], []
    begin = time.perf_counter_ns()
    before = probe()
    while len(calls) < (2 if traced else 1) or time.perf_counter_ns() - begin < budget_ns:
        on = traced and len(calls) % 2 == 1
        if on:
            tracer.workload = len(calls)
            tracer.install()
        try:
            c = call()
        except Exception:  # a raising entry call is a counted failure, not a crash
            traceback.print_exc()
            c = Call(0, "", expected, 0, expected, problems=["entry call raised"])
        finally:
            if on:
                tracer.uninstall()
        after = probe()
        # the machine's speed during the call, from the probes on either side
        calls.append((on, c, 0.5 * (before + after) / REFERENCE_S))
        before = after
        (traced_calls if on else untraced).append(c)

    problems = sorted({p for _, c, _ in calls for p in c.problems})
    digests = sorted({hashlib.sha256(c.text.encode()).hexdigest() for _, c, _ in calls})
    if len(digests) != 1:
        problems.append(f"outputs differ between calls ({len(digests)} digests)")
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": [[on, c.wall_ns, c.attempted, c.produced, c.dropped, slowdown]
                  for on, c, slowdown in calls],
        "digests": digests,
        "accuracy": _accuracy(calls[0][1]),
        "problems": problems,
        "machine": machine(),
    }
    if "--ref-config" in opts:
        ref_cfg = cli.load_run_config(opts["--ref-config"])
        ref_opts = {**opts, "--config": opts["--ref-config"], "--stream": opts.get("--ref-stream")}
        ref = WORKLOADS[opts["--workload"]](cli, ref_cfg, ref_opts)[0]()
        problems += ref.problems
        result["reference"] = _accuracy(ref)
    if traced:
        metrics, dominant, counts, shares = layer_metrics(tracer, traced_calls, untraced,
                                                          len(cfg.tag_map))
        result.update(layers=metrics, dominant=dominant, span_calls=counts, self_share=shares,
                      absent=tracer.absent, installed=sorted(tracer.installed),
                      leftover=tracer.leftover_wrappers())
        tracer.write(Path(opts["--scratch"]) / f"spans-{opts['--workload']}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
