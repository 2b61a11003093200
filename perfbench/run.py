"""taglok benchmark: time one workload end to end, or trace it per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from `src/` next to this
directory, and scratch files go to `.perfbench/` at the checkout root.
Workloads and their inputs are described in `workloads.json`; metric names
and units come from `BENCHMARK.json`.

The time budget is split over PROCESSES fresh worker processes, run one
after another. Each one pays set-up like a `taglok` command does, then
calls the workload's entry point until its share of the budget is spent.
Timings are medians: set-up time and peak RSS over the processes,
frames_per_s over every entry call. Each call's rate is scaled to the
machine's usual speed by probe.py, timed right before and after the call;
the unscaled median is printed beside it. With `--trace 1` each process
alternates untraced and traced calls, so the trace overhead is measured in
the same process, and the per-layer metrics are medians over processes.

Every output is checked: byte-identical across calls, processes and the
traced and untraced calls; finite poses; frames + dropped == attempted. A
failed check makes the result incorrect and the exit code 1. The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
PROCESSES = 4
# Accuracy is scored on the workload's input at this seed: across seeds the
# mean errors of these input sizes spread by 15-40% (quartile distance over
# median), so only a fixed input lets their bound catch a changed estimator.
REFERENCE_SEED = 0
WORKER_TIMEOUT_S = 150
# numpy's BLAS must not start threads of its own: cl2's eigh would then
# compete with the single-threaded program for the machine's cores.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker(args: list[str], env: dict) -> dict:
    """Run one worker process and return its JSON result."""
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--t0", str(start), "--src", str(SRC), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def write_input(workload: str, spec: dict, seed: int, tag: str) -> list[str]:
    """Write the workload's config for a seed; return the worker flags naming its input."""
    config = SCRATCH / f"{workload}-{tag}.cfg"
    config.write_text(spec["config"].format(seed=seed), encoding="utf-8")
    flags = ["--config", str(config)]
    if workload == "replay_t3":
        stream = SCRATCH / f"{workload}-{tag}.stream"
        stream.unlink(missing_ok=True)  # written afresh by the first worker
        flags += ["--stream", str(stream)]
    return flags


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "taglok" / "__init__.py").is_file():
        print(f"perfbench: no taglok sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in specs:
        print(f"perfbench: unknown workload {args.workload!r} (known: {', '.join(specs)})",
              file=sys.stderr)
        return 2
    spec = specs[args.workload]
    seed = args.seed % 2**32  # the program takes non-negative seeds

    SCRATCH.mkdir(exist_ok=True)
    env = {**os.environ, **PINNED_THREADS}
    config = write_input(args.workload, spec, seed, "run")
    common = ["--workload", args.workload, "--scratch", str(SCRATCH),
              "--seconds", repr(args.seconds / PROCESSES), "--trace", str(args.trace), *config]
    reference = [] if args.trace else \
        ["--ref-" + a[2:] if a.startswith("--") else a
         for a in write_input(args.workload, spec, REFERENCE_SEED, "reference")]
    results = [worker(common + (reference if k == 0 else []), env) for k in range(PROCESSES)]

    problems = sorted({p for r in results for p in r["problems"]})
    digests = sorted({d for r in results for d in r["digests"]})
    if len(digests) != 1:
        problems.append(f"outputs differ between processes ({len(digests)} digests)")
    if len({json.dumps(r["accuracy"]) for r in results}) != 1:
        problems.append("accuracy differs between processes")
    calls = [c for r in results for c in r["calls"]]
    attempted = sum(c[2] for c in calls)
    dropped = sum(c[4] for c in calls)
    untraced = [c for c in calls if not c[0] and c[1] > 0]
    raw_rates = [c[3] / (c[1] / 1e9) for c in untraced]
    rates = [rate * c[5] for rate, c in zip(raw_rates, untraced)]
    setups = [r["setup_s"] for r in results]

    if args.trace:
        for r in results:
            if r["leftover"]:
                problems.append(f"wrappers left installed: {', '.join(r['leftover'])}")
            for name in spec["expected_spans"]:
                if name in r["installed"] and not r["span_calls"].get(name):
                    problems.append(f"expected span {name} recorded no calls")
        declared = [m["name"] for m in bench["per_layer"]]
        values = {name: statistics.median(r["layers"][name] for r in results) for name in declared}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "frames_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            **results[0]["reference"],
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}

    problems += [f"{name} is not finite" for name, v in values.items() if not math.isfinite(v)]
    failed = dropped + len(problems)
    first = results[0]
    print(f"workload {args.workload}, seed {seed}, trace {args.trace}: {spec['input']}")
    print(f"  {PROCESSES} processes, {len(calls)} entry calls ({len(untraced)} untraced), "
          f"{attempted} frames attempted")
    if args.trace:
        for name, value in values.items():
            print(f"  {name:42s} {value:12.4f} {units[name]}")
        dominant = statistics.mode(r["dominant"] for r in results)
        verdict = "as predicted" if dominant == spec["dominant_layer"] else \
            f"MISMATCH, predicted {spec['dominant_layer']}"
        print(f"  dominant layer by self time: {dominant} ({verdict})")
        shares = {n: statistics.median(r["self_share"].get(n, 0.0) for r in results)
                  for n in first["self_share"]}
        print("  self time / traced wall: " + ", ".join(
            f"{n} {v:.3f}" for n, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        absent = sorted({a for r in results for a in r["absent"]})
        print(f"  absent targets (zero calls): {', '.join(absent) or 'none'}")
    else:
        q1, _, q3 = quartiles(rates) if rates else (0.0, 0.0, 0.0)
        print(f"  setup_s      {values['setup_s']:.4f} s   median of {len(setups)} fresh processes "
              f"(min {min(setups):.4f}, max {max(setups):.4f})")
        print(f"  frames_per_s {values['frames_per_s']:.2f} 1/s   median of {len(rates)} calls "
              f"(q1 {q1:.2f}, q3 {q3:.2f}; unscaled median {statistics.median(raw_rates):.2f}); "
              f"estimates per call {untraced[0][3] if untraced else 0}")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.2f} MiB   median of {len(results)} processes")
        print(f"  ep_mnv_cm    {values['ep_mnv_cm']:.6f} cm   eo_mnv_deg {values['eo_mnv_deg']:.6f} deg"
              f"   on the reference input (seed {REFERENCE_SEED})")
        acc = first["accuracy"]
        print(f"  on this seed's input: ep_mnv_cm {acc['ep_mnv_cm']:.6f} cm, "
              f"eo_mnv_deg {acc['eo_mnv_deg']:.6f} deg")
    print(f"  failed_frac  {failed / attempted if attempted else 1.0:.6f}  "
          f"({dropped} dropped frames + {len(problems)} failed checks of {attempted})")
    print(f"  output sha256 {' '.join(digests)}")
    print(f"  machine: {os.cpu_count()} cpus, python {first['machine']['python']}, "
          f"numpy {first['machine']['numpy']}, scipy {first['machine']['scipy']}, "
          f"blas threads {first['machine']['blas_threads']}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
