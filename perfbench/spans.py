"""Timing wrappers around taglok's public functions, for the traced run.

`Tracer.install` replaces every attribute of every loaded `taglok.*` module
(and, for methods, the owning class) that is bound to a traced function
object with a wrapper that records one span per call; `Tracer.uninstall`
puts the originals back. A target that does not exist is reported as
absent and simply records no calls, so a stage removed by a later refactor
shows as zero instead of breaking the benchmark.

A span is a list `[name, start_ns, end_ns, parent_index, workload_id,
child_ns, info]`. The parent comes from a stack (the program is single
threaded), `child_ns` accumulates the durations of direct children, so a
span's self time is `end - start - child_ns`. `info` holds a small summary
of the call's arguments or result, taken by the functions in `_INFO`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (span name, module, attribute path). Two targets may share a span name:
# both rotation means count as `pipeline.fuse_rotations`.
TARGETS = (
    ("cli.load_run_config", "taglok.cli", "load_run_config"),
    ("cli.replay", "taglok.cli", "cmd_replay"),
    ("tagmap.build_pattern_map", "taglok.tagmap", "build_pattern_map"),
    ("tagmap.world_frames", "taglok.tagmap", "TagMap.world_frames"),
    ("harness.compare_matrix", "taglok.harness", "compare_matrix"),
    ("harness.run", "taglok.harness", "run"),
    ("camsim.detect", "taglok.camsim", "detect"),
    ("camsim.visible_tags", "taglok.camsim", "visible_tags"),
    ("camsim.parse_detection_line", "taglok.camsim", "parse_detection_line"),
    ("pipeline.step", "taglok.pipeline", "step"),
    ("pipeline.select_tags", "taglok.pipeline", "select_tags"),
    ("pipeline.frame_chain", "taglok.pipeline", "estimate_body_pose_per_tag"),
    ("pipeline.remove_outliers", "taglok.pipeline", "remove_outliers"),
    ("pipeline.fuse_positions", "taglok.pipeline", "fuse_positions"),
    ("pipeline.fuse_rotations", "taglok.pipeline", "fuse_rotations_ql2"),
    ("pipeline.fuse_rotations", "taglok.pipeline", "fuse_rotations_cl2"),
    ("pipeline.fir_smooth", "taglok.pipeline", "fir_smooth"),
)

_MARK = "_perfbench_span"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _detect_info(args, kwargs, result):
    # detections, and the (seed, frame, body position) the frame was simulated for
    noise = _arg(args, kwargs, 2, "noise")
    pose = _arg(args, kwargs, 3, "body_pose_true")
    frame = _arg(args, kwargs, 4, "frame_index")
    return len(result), (noise.seed, int(frame), tuple(float(v) for v in pose.position))


def _step_info(args, kwargs, result):
    output = result[0]
    trace = output.stage_trace
    return (len(trace.selected_ids), len(output.tags_used), trace.dispersion_warning,
            trace.fusion_degenerate, output.pose is None, trace.reason)


_INFO = {
    "camsim.detect": _detect_info,
    "camsim.visible_tags": lambda args, kwargs, result: len(result),
    "pipeline.step": _step_info,
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.workload = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []  # targets that do not exist
        self.installed: set[str] = set()  # span names with at least one wrapped target

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        summarize = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0, 0, parent, self.workload, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]
            if summarize is not None:
                try:
                    span[6] = summarize(args, kwargs, result)
                except (LookupError, AttributeError, TypeError, ValueError):
                    span[6] = None
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.absent, self.installed = [], set()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "taglok" or n.startswith("taglok."))]
        for name, module_name, path in TARGETS:
            owner = sys.modules.get(module_name)
            *owner_path, leaf = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original)
            self.installed.add(name)
            holders = [owner] if owner_path else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    def leftover_wrappers(self) -> list[str]:
        """Attributes of taglok modules or their classes still bound to a wrapper."""
        found = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "taglok" or module_name.startswith("taglok.")):
                continue
            for attr, value in vars(module).items():
                if hasattr(value, _MARK):
                    found.append(f"{module_name}.{attr}")
                elif isinstance(value, type) and value.__module__ == module_name:
                    found += [f"{module_name}.{attr}.{a}" for a, v in vars(value).items()
                              if hasattr(v, _MARK)]
        return found

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, workload, child, _ in self.spans:
                handle.write(json.dumps([name, start, end, parent, workload, child]) + "\n")
