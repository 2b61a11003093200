"""perfbench's outputs pinned at the top of its seed range.

perfbench runs its workloads at `seed % 2**32`, so the largest seed it can
run is 2**32 - 1, the last seed of one SeedSequence word. Each workload's
entry call (`perfbench/worker.py`, loaded as `test_bench_contract` loads it)
runs here on the small inputs of `test_bench_contract.SMALL_WORKLOADS` at
that seed; its output text and dropped-frame count are pinned. A change to
the noise stream's arithmetic that holds at small seeds but not at this one
fails here, as does one that drops a frame.
"""

import hashlib

import pytest

import taglok.cli
from test_bench_contract import SMALL_WORKLOADS, worker  # noqa: F401  (a fixture)

TOP_SEED = 2**32 - 1

PINNED = {
    "hover_dense": "79ddd589b7e99a97c282f4e696af31d431114c821afe404f54610947b6b37fb2",
    "compare_table": "6d8833b06fd157d6e9b3c0cfad382a8a0851f3078583b20abe1560e519f4c497",
    "replay_t3": "d28614238fc581a5d182046dd078ca17d14a4444257de1d44fc99aabccbe758e",
}


@pytest.mark.parametrize("workload", list(SMALL_WORKLOADS))
def test_entry_call_output_at_the_top_seed(worker, tmp_path, workload):  # noqa: F811
    text = SMALL_WORKLOADS[workload]
    assert text.count("seed = 1\n") == 1
    config = tmp_path / "run.cfg"
    config.write_text(text.replace("seed = 1\n", f"seed = {TOP_SEED}\n"), encoding="utf-8")
    opts = {"--config": str(config), "--stream": str(tmp_path / "stream.txt"),
            "--scratch": str(tmp_path)}
    cfg = taglok.cli.load_run_config(config)
    assert cfg.noise.seed == TOP_SEED
    call, expected = worker.WORKLOADS[workload](taglok.cli, cfg, opts)
    c = call()
    assert c.problems == [] and c.attempted == expected
    assert c.dropped == 0
    assert hashlib.sha256(c.text.encode()).hexdigest() == PINNED[workload]
