"""Run the benchmark over several seeds and record the baseline.

    python3 perfbench/record.py [--seeds 10] [--workloads a,b] [--out FILE]

For seeds 1..N it runs every workload once per seed with tracing off,
interleaving the workloads, then one traced run per workload at seed 1.
It writes (default `perfbench/baseline.json`): the machine, the BLAS
thread pinning, per workload and end-to-end metric the ten values with
their median, quartiles and spread (quartile distance over median, as the
bounds in BENCHMARK.json are read), and the traced run's per-layer metrics.
The per-frame counts among them repeat exactly for a given seed and serve
as the workload's fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import PINNED_THREADS, PROCESSES, REFERENCE_SEED  # noqa: E402

# per-layer metrics that are counts of work, identical on every run of a seed
FINGERPRINT = (
    "camsim.visible_per_frame", "camsim.detections_per_frame",
    "camsim.detect_calls_per_frame_index", "pipeline.frame_chain_calls_per_frame",
    "pipeline.selected_per_frame", "pipeline.kept_ratio", "pipeline.dispersion_warnings",
    "pipeline.degenerate_fusions", "pipeline.dropped_frames.no-tags",
    "pipeline.dropped_frames.all-rejected", "pipeline.dropped_frames.other", "tagmap.tags",
)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    code = "import json, worker; print(json.dumps(worker.machine()))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=HERE, env={**os.environ, **PINNED_THREADS}, check=True).stdout
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
            **json.loads(out), "pinned_env": PINNED_THREADS}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in range(1, args.seeds + 1):
        for w in workloads:
            runs[w].append(bench_run(w, seed, seconds, 0))
    record = {"machine": machine(), "run_seconds": seconds, "processes_per_run": PROCESSES,
              "reference_seed": REFERENCE_SEED, "seeds": list(range(1, args.seeds + 1)),
              "workloads": {}}
    print("\nspread = (q3 - q1) / median over seeds; target below bound / 3")
    for w in workloads:
        e2e = {}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs[w]])
            e2e[name] = {**stats, "bound": bound}
            flag = "" if name == "setup_s" or stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{w:14s} {name:13s} median {stats['median']:12.5f} "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}")
        traced = bench_run(w, 1, seconds, 1)["metrics"]
        record["workloads"][w] = {
            "end_to_end": e2e,
            "failed": sum(r["failed"] for r in runs[w]),
            "attempted": sum(r["attempted"] for r in runs[w]),
            "fingerprint_seed_1": {k: traced[k]["value"] for k in FINGERPRINT},
            "per_layer_seed_1": {k: v["value"] for k, v in traced.items()},
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
