"""Time taglok's layers in one process: a base tree against a changed one.

    python3 tools/abbench.py [--base REV | --base-tree DIR] [--tree DIR]
                             [--small]

The base is `src/taglok` of the git revision REV (default HEAD), taken with
`git archive` into a temporary directory, or the package directory DIR. The
change is the package directory `--tree` (default: `src/taglok` of this
checkout). The two load side by side as the packages `taglok_a` (base) and
`taglok_b` (change); taglok's modules import each other relatively, so a
tree loads as it is under another name.

Each layer first runs once on each side, on the same inputs, and the two
outputs must be equal byte for byte. A layer whose outputs differ is
reported and not timed, and the script then exits 1. A layer that passes
is timed in PAIRS (15) pairs of samples, the side that runs first
alternating from pair to pair; a sample repeats the call until it has run
for at least 20 ms, with the same repeat count on both sides. Each layer
prints the median time per call (or per line) of each side, and the median,
first and third quartile of the change/base ratios of its pairs.

The layers:
- parse_detection_stream: the lines of a dumped t3 stream, per line;
- build_pattern_map on the 3 x 5 m map and on the 40 m square, and
  parse_map of the 40 m square's map file and of a file of FAR_TAGS
  class-S tags near 1e149 m, beyond 2**51 side lengths from the origin but
  inside the largest extent a map file may give;
- replay: `cli.main(["replay", ...])` of that stream with `--variant cl2`;
- step per variant (STEP_VARIANTS): `pipeline.step` on the frame-chain
  rows of the last frame of the 40-frame hover at 2.0 m (114 detections),
  with the FIR state its variant leaves after the frames before it;
- harness.run: the 40-frame hover at 2.0 m (perfbench's hover_dense);
- compare_matrix: the default variants x hover at 0.8 / 1.4 / 2.0 m, 10
  frames each (perfbench's compare_table).
`--small` shrinks every input (5 stream frames, a 5 m square, 300 far tags,
5 hover frames, 2 frames per compare cell) and times 2 pairs per layer, for
a quick check that the script runs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import math
import os
import statistics
import struct
import subprocess
import sys
import tarfile
import tempfile
import time
from itertools import accumulate
from pathlib import Path

# numpy's BLAS must not start threads of its own (as in perfbench/run.py)
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_NS = 20_000_000  # a sample runs its call at least this long
PAIRS = 15  # timed pairs per layer; --small times 2
FAR_TAGS = 30_000  # the far map's tags, as many as the 40 m square's; --small has 300
STEP_VARIANTS = ("jbt", "tbs-or", "tbs-or-cl2")

T3_CONFIG = "[trajectory]\nkind = t3\n\n[run]\nseed = 1\n"
HOVER_CONFIG = ("[trajectory]\nkind = hover\nx = 1.5\ny = 2.5\nz = 2.0\nduration = {duration}\n\n"
                "[run]\nseed = 1\n")
COMPARE_CONFIG = "[trajectory]\nduration = {duration}\n\n[run]\nseed = 1\n"


def load_tree(name: str, tree: Path):
    """The package directory `tree` imported as the package `name`."""
    spec = importlib.util.spec_from_file_location(name, tree / "__init__.py",
                                                  submodule_search_locations=[str(tree)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("camsim", "cli", "harness", "pipeline", "tagmap"):
        importlib.import_module(f"{name}.{module}")  # and so an attribute of `package`
    return package


def archived_tree(rev: str, into: Path) -> Path:
    """`src/taglok` of the git revision `rev`, extracted under `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src/taglok"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src" / "taglok"


def frames_bytes(frames) -> bytes:
    """A parsed stream's frames as bytes: index, time and every column."""
    parts = []
    for f in frames:
        parts.append(struct.pack("=qd", f.index, f.t))
        d = f.detections
        parts += [d.ids.tobytes(), d.positions.tobytes(), d.quats.tobytes(), d.apparent.tobytes()]
    return b"".join(parts)


def map_bytes(tag_map) -> bytes:
    m = tag_map.world_frames()
    return struct.pack("=2d", *tag_map.extent) + b"".join(
        getattr(m, name).tobytes()
        for name in ("ids", "classes", "positions", "quats", "normals", "corners"))


def stepped_bytes(result) -> bytes:
    """`step`'s output and new state as bytes: the fused pose, the tags
    used, the stage trace and the FIR window."""
    output, state = result
    pose = output.pose
    head = b"" if pose is None else pose.position.tobytes() + pose.orientation.as_array().tobytes()
    return head + repr((output.tags_used, output.stage_trace)).encode() + state.window.tobytes()


def warmed_steps(side, cfg) -> list[tuple]:
    """(variant, the last frame's chain rows, its config, the FIR state the
    frames before it leave) of `cfg`'s simulated frames, per STEP_VARIANTS."""
    harness, pipeline = side.harness, side.pipeline
    frames = list(harness.simulate(cfg))
    body_poses = harness.body_poses_of(cfg, frames)
    ends = [0, *accumulate(len(frame.detections) for frame in frames)]
    rows = [body_poses.take(slice(start, end)) for start, end in zip(ends, ends[1:])]
    steps = []
    for variant in STEP_VARIANTS:
        config, state = pipeline.apply_variant(cfg.pipeline, variant), None
        for frame_rows in rows[:-1]:
            state = pipeline.step(frame_rows, config, state)[1]
        steps.append((variant, rows[-1], config, state))
    return steps


def quiet_main(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def big_side(small: bool) -> float:
    """The side of the big square map [m]."""
    return 5.0 if small else 40.0


def layers(side, work: Path, small: bool) -> list[tuple[str, str, int, object, object]]:
    """(layer, unit, items per call, call, its result as bytes) for one side;
    the inputs are written under `work` before any layer runs."""
    cli, harness, pipeline, tagmap = side.cli, side.harness, side.pipeline, side.tagmap
    stream = work / "stream.txt"
    lines = stream.read_text(encoding="utf-8").splitlines()
    big = (big_side(small),) * 2
    map_text = (work / "map.txt").read_text(encoding="utf-8")
    far_text = (work / "far.txt").read_text(encoding="utf-8")
    out = work / f"replay-{side.__name__}.csv"
    argv = ["replay", "--config", str(work / "t3.cfg"), "--detections", str(stream),
            "--out", str(out), "--variant", "cl2"]

    def replay() -> int:
        out.unlink(missing_ok=True)
        return quiet_main(cli, argv)

    def replayed(code: int) -> bytes:
        return str(code).encode() + (out.read_bytes() if out.exists() else b"")

    hover = cli.load_run_config(work / "hover.cfg")
    settings = cli.load_settings(work / "compare.cfg")
    base = cli.load_run_config(work / "compare.cfg")
    scenarios = [cli.parse_scenario(token, settings)
                 for token in settings.get("compare", "scenarios")]
    variants = list(settings.get("compare", "variants"))
    return [
        ("parse_detection_stream", "us/line", len(lines),
         lambda: side.camsim.parse_detection_stream(lines), frames_bytes),
        ("build_pattern_map 3x5", "ms", 1, lambda: tagmap.build_pattern_map((3.0, 5.0)),
         map_bytes),
        (f"build_pattern_map {big[0]:g}x{big[1]:g}", "ms", 1,
         lambda: tagmap.build_pattern_map(big), map_bytes),
        (f"parse_map {big[0]:g}x{big[1]:g}", "ms", 1, lambda: tagmap.parse_map(map_text),
         map_bytes),
        ("parse_map far", "ms", 1, lambda: tagmap.parse_map(far_text), map_bytes),
        ("replay", "ms", 1, replay, replayed),
        *((f"step {variant}", "us", 1,
           lambda rows=rows, config=config, state=state: pipeline.step(rows, config, state),
           stepped_bytes)
          for variant, rows, config, state in warmed_steps(side, hover)),
        ("harness.run", "ms", 1, lambda: harness.run(hover),
         lambda result: (harness.format_timeseries_csv(result.frames)
                         + repr(result.stats)).encode()),
        ("compare_matrix", "ms", 1, lambda: harness.compare_matrix(base, variants, scenarios),
         lambda rows: harness.format_compare_csv(rows).encode()),
    ]


def far_map(count: int) -> str:
    """A map file of `count` clear class-S tags near x = 1e149 m, rows of
    100 tags on floats 1e136 m apart, the rows 0.1 m apart in y."""
    lines = ["tagmap v1 1e+149 1e+149"]
    for k in range(count):
        lines.append(f"{k} S {1e149 + k % 100 * 1e136!r} {k // 100 * 0.1!r} 0.0 1.0 0.0 0.0 0.0")
    return "\n".join(lines) + "\n"


def write_inputs(side, work: Path, small: bool) -> None:
    """The configs, the t3 stream and the two maps' files; `side` writes the
    stream and the big square's map."""
    (work / "far.txt").write_text(far_map(300 if small else FAR_TAGS), encoding="utf-8")
    (work / "t3.cfg").write_text(T3_CONFIG, encoding="utf-8")
    (work / "hover.cfg").write_text(HOVER_CONFIG.format(duration=0.25 if small else 2.0),
                                    encoding="utf-8")
    (work / "compare.cfg").write_text(COMPARE_CONFIG.format(duration=0.1 if small else 0.5),
                                      encoding="utf-8")
    dump = ["dump-detections", "--config", str(work / "t3.cfg"), "--out", str(work / "stream.txt")]
    side_m = repr(big_side(small))
    build = ["map-build", "--out", str(work / "map.txt"), "--width", side_m, "--height", side_m]
    for argv in (dump + (["--frames", "5"] if small else []), build):
        if quiet_main(side.cli, argv):
            raise SystemExit(f"abbench: taglok {argv[0]} failed")


def sample(call, number: int) -> int:
    start = time.perf_counter_ns()
    for _ in range(number):
        call()
    return time.perf_counter_ns() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--base", default="HEAD", help="git revision of the base tree")
    source.add_argument("--base-tree", type=Path, help="package directory of the base tree")
    parser.add_argument("--tree", type=Path, default=ROOT / "src" / "taglok",
                        help="package directory of the changed tree")
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs and 2 pairs, for a quick check")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="abbench-") as scratch:
        work = Path(scratch)
        base_tree = args.base_tree or archived_tree(args.base, work / "base")
        a, b = load_tree("taglok_a", base_tree.resolve()), load_tree("taglok_b", args.tree.resolve())
        write_inputs(b, work, args.small)
        failed = 0
        print(f"{'layer':24} {'unit':8} {'base':>10} {'change':>10} {'ratio':>7} "
              f"{'q1':>7} {'q3':>7}")
        for (name, unit, items, call_a, bytes_a), (*_, call_b, bytes_b) in zip(
                layers(a, work, args.small), layers(b, work, args.small)):
            if bytes_a(call_a()) != bytes_b(call_b()):
                print(f"{name:24} outputs differ between the trees: not timed")
                failed += 1
                continue
            number = max(1, math.ceil(SAMPLE_NS / max(sample(call_a, 1), 1)))
            times_a, times_b = [], []
            for pair in range(2 if args.small else PAIRS):
                order = [(call_a, times_a), (call_b, times_b)]
                for call, times in order[::-1] if pair % 2 else order:
                    times.append(sample(call, number) / number)
            ratios = [tb / ta for ta, tb in zip(times_a, times_b)]
            q1, ratio, q3 = quartiles(ratios)
            scale = (1e3 if unit.startswith("us") else 1e6) * items  # from ns
            print(f"{name:24} {unit:8} {statistics.median(times_a) / scale:10.3f} "
                  f"{statistics.median(times_b) / scale:10.3f} {ratio:7.3f} {q1:7.3f} {q3:7.3f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
