"""`tools/abbench.py` on tiny inputs: the same tree on both sides passes
every output check and gives a finite ratio per layer; a tree with one
patched layer fails that layer's output check."""

import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ROOT / "src" / "taglok"


def abbench(base_tree: Path, tree: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "abbench.py"), "--base-tree",
                           str(base_tree), "--tree", str(tree), "--small"],
                          capture_output=True, text=True, timeout=300)


def test_the_same_tree_on_both_sides_passes_with_finite_ratios():
    done = abbench(TREE, TREE)
    assert done.returncode == 0, done.stdout + done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["layer", "unit", "base", "change", "ratio", "q1", "q3"]
    assert [row.rsplit(None, 6)[0] for row in rows] == [
        "parse_detection_stream", "build_pattern_map 3x5", "build_pattern_map 5x5",
        "parse_map 5x5", "parse_map far", "replay", "harness.run", "compare_matrix"]
    for row in rows:
        values = [float(v) for v in row.split()[-5:]]
        assert all(math.isfinite(v) and v > 0 for v in values), row


def test_a_patched_layer_fails_its_output_check(tmp_path):
    patched = tmp_path / "taglok"
    shutil.copytree(TREE, patched, ignore=shutil.ignore_patterns("__pycache__"))
    camsim = patched / "camsim.py"
    source = camsim.read_text(encoding="utf-8")
    assert source.count("first_t[index] = t\n") == 1
    camsim.write_text(source.replace("first_t[index] = t\n", "first_t[index] = t + 1.0\n"),
                      encoding="utf-8")
    done = abbench(TREE, patched)
    assert done.returncode == 1, done.stdout + done.stderr
    rows = {row.split("  ")[0]: row for row in done.stdout.splitlines()[1:]}
    assert rows["parse_detection_stream"].endswith("outputs differ between the trees: not timed")
    # the patch reaches replay's CSV through the frame times, and no other layer
    assert {name for name, row in rows.items() if "outputs differ" in row} == {
        "parse_detection_stream", "replay"}
