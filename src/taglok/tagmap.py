"""Size-heterogeneous fiducial-marker map: per-tag world pose, size and class.

The map lies on the floor (all tags at z = 0, z-axis pointing up) and is
generated by tiling a base pattern over a rectangular extent, mirroring the
pattern on odd columns. Tag ids are abstract integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .geometry import Pose, UnitQuaternion, quat_from_yaw, quat_to_matrix

_BASE_SIDE = 0.0575  # class S side length [m]; each class doubles the previous
# a tag's corners in its own plane per unit side, counterclockwise
_UNIT_SQUARE = np.array([[-0.5, -0.5, 0.0], [0.5, -0.5, 0.0], [0.5, 0.5, 0.0], [-0.5, 0.5, 0.0]])


class SizeClass(Enum):
    S = 0
    M = 1
    L = 2
    XL = 3

    @property
    def class_index(self) -> int:
        return self.value

    @property
    def side_length(self) -> float:
        return _BASE_SIDE * (2 ** self.value)

    @property
    def label(self) -> str:
        return self.name

    @classmethod
    def from_label(cls, label: str) -> "SizeClass":
        try:
            return cls[label]
        except KeyError:
            raise ValueError(f"unknown size class {label!r}") from None


@dataclass(frozen=True)
class PatternTag:
    """One tag of the base tile, center in tile-local coordinates."""

    size_class: SizeClass
    x: float
    y: float
    yaw: float = 0.0


@dataclass(frozen=True)
class PatternSpec:
    """Base tile replicated over the map extent."""

    tile_width: float
    tile_height: float
    tags: tuple[PatternTag, ...]

    def __post_init__(self) -> None:
        if self.tile_width <= 0 or self.tile_height <= 0:
            raise ValueError("tile dimensions must be positive")
        present = {t.size_class for t in self.tags}
        if present != set(SizeClass):
            missing = sorted(c.label for c in set(SizeClass) - present)
            raise ValueError(f"pattern tile must contain every size class, missing {missing}")


def default_pattern() -> PatternSpec:
    """0.94 m square tile: XL centered, L at the corners, M at the edge
    midpoints, S filling the gaps along each edge. Margins >= 1 cm."""
    s = SizeClass.S.side_length
    near = s  # center inset of the edge-hugging S and M tags
    gap_lo = 0.32125  # midpoint between an L corner and the M edge tag
    gap_hi = 0.61875
    tags = [
        PatternTag(SizeClass.XL, 0.47, 0.47),
        PatternTag(SizeClass.L, 0.115, 0.115),
        PatternTag(SizeClass.L, 0.825, 0.115),
        PatternTag(SizeClass.L, 0.115, 0.825),
        PatternTag(SizeClass.L, 0.825, 0.825),
        PatternTag(SizeClass.M, 0.47, near),
        PatternTag(SizeClass.M, 0.47, 0.94 - near),
        PatternTag(SizeClass.M, near, 0.47),
        PatternTag(SizeClass.M, 0.94 - near, 0.47),
        PatternTag(SizeClass.S, gap_lo, near),
        PatternTag(SizeClass.S, gap_hi, near),
        PatternTag(SizeClass.S, gap_lo, 0.94 - near),
        PatternTag(SizeClass.S, gap_hi, 0.94 - near),
        PatternTag(SizeClass.S, near, gap_lo),
        PatternTag(SizeClass.S, near, gap_hi),
        PatternTag(SizeClass.S, 0.94 - near, gap_lo),
        PatternTag(SizeClass.S, 0.94 - near, gap_hi),
    ]
    return PatternSpec(0.94, 0.94, tuple(tags))


@dataclass(frozen=True)
class TagEntry:
    tag_id: int
    pose_in_world: Pose
    size_class: SizeClass


@dataclass(frozen=True)
class MapArrays:
    """A map's tags as arrays, one row per tag in tag-id order: ids (n,)
    int64, size-class indices (n,), positions (n, 3), unit quaternions
    (n, 4) as (w, x, y, z) rows, face normals (n, 3) and corners (n, 4, 3),
    counterclockwise in the tag plane."""

    ids: np.ndarray
    classes: np.ndarray
    positions: np.ndarray
    quats: np.ndarray
    normals: np.ndarray
    corners: np.ndarray

    def rows_of(self, ids) -> np.ndarray:
        """The row of each tag id, -1 for an id not in the map."""
        rows = np.searchsorted(self.ids, ids)
        found = rows < len(self.ids)
        found[found] = self.ids[rows[found]] == ids[found]
        return np.where(found, rows, -1)


class FootprintOverlapError(ValueError):
    """Two tags of one size class overlap; `tag_id` is the later one."""

    def __init__(self, message: str, tag_id: int):
        super().__init__(message)
        self.tag_id = tag_id


class TagMap:
    """Immutable collection of tags with unique ids over a rectangular extent."""

    def __init__(self, entries: Iterable[TagEntry], extent: tuple[float, float]):
        self._by_id: dict[int, TagEntry] = {}
        for entry in entries:
            if entry.tag_id in self._by_id:
                raise ValueError(f"duplicate tag id {entry.tag_id}")
            self._by_id[entry.tag_id] = entry
        self.extent = (float(extent[0]), float(extent[1]))
        self._check_no_same_class_overlap()
        self._arrays: MapArrays | None = None  # lazy array view

    def _check_no_same_class_overlap(self) -> None:
        by_class: dict[SizeClass, list[TagEntry]] = {}
        for entry in self._by_id.values():
            by_class.setdefault(entry.size_class, []).append(entry)
        for cls, members in by_class.items():
            side = cls.side_length
            centers = np.array([e.pose_in_world.position[:2] for e in members])
            with np.errstate(over="ignore"):  # an infinite delta is no clash
                for i in range(len(members)):
                    deltas = np.abs(centers[i + 1:] - centers[i])
                    clash = np.all(deltas < side - 1e-12, axis=1)
                    if np.any(clash):
                        j = i + 1 + int(np.argmax(clash))
                        raise FootprintOverlapError(
                            f"tags {members[i].tag_id} and {members[j].tag_id} (class "
                            f"{cls.label}) have overlapping footprints", members[j].tag_id)

    def __len__(self) -> int:
        return len(self._by_id)

    @property
    def entries(self) -> list[TagEntry]:
        return [self._by_id[i] for i in sorted(self._by_id)]

    def world_frames(self) -> MapArrays:
        """The map stacked as arrays, rows in tag-id order; built once."""
        if self._arrays is None:
            entries = self.entries
            sides = np.array([e.size_class.side_length for e in entries])
            positions = np.array([e.pose_in_world.position for e in entries]).reshape(-1, 3)
            rots = np.array([quat_to_matrix(e.pose_in_world.orientation)
                             for e in entries]).reshape(-1, 3, 3)
            self._arrays = MapArrays(
                np.array([e.tag_id for e in entries], dtype=np.int64),
                np.array([e.size_class.class_index for e in entries], dtype=np.intp),
                positions,
                np.array([e.pose_in_world.orientation.as_array() for e in entries]).reshape(-1, 4),
                rots[:, :, 2],
                positions[:, None, :] + np.einsum("nij,kj,n->nki", rots, _UNIT_SQUARE, sides),
            )
        return self._arrays


def build_pattern_map(extent: tuple[float, float],
                      pattern: PatternSpec | None = None) -> TagMap:
    """Tile the extent with the pattern, mirroring odd columns about the tile
    x-axis (mirrored tags flip yaw sign). Tag ids run sequentially in
    row-major tile order, pattern order within a tile."""
    if pattern is None:
        pattern = default_pattern()
    width, height = float(extent[0]), float(extent[1])
    if width <= 0 or height <= 0:
        raise ValueError("extent must be positive")
    cols = int(math.floor(width / pattern.tile_width + 1e-9))
    rows = int(math.floor(height / pattern.tile_height + 1e-9))
    if cols < 1 or rows < 1:
        raise ValueError(
            f"extent {width} x {height} m does not fit one "
            f"{pattern.tile_width} x {pattern.tile_height} m tile"
        )
    entries = []
    next_id = 0
    for row in range(rows):
        for col in range(cols):
            mirrored = col % 2 == 1
            ox = col * pattern.tile_width
            oy = row * pattern.tile_height
            for tag in pattern.tags:
                x = pattern.tile_width - tag.x if mirrored else tag.x
                yaw = -tag.yaw if mirrored else tag.yaw
                pose = Pose(np.array([ox + x, oy + tag.y, 0.0]), quat_from_yaw(yaw))
                entries.append(TagEntry(next_id, pose, tag.size_class))
                next_id += 1
    return TagMap(entries, (width, height))


class MapFormatError(ValueError):
    """Raised on malformed map files; message names the offending line."""


def save_map(tag_map: TagMap, path: str | Path) -> None:
    Path(path).write_text(serialize_map(tag_map), encoding="utf-8")


def serialize_map(tag_map: TagMap) -> str:
    lines = [f"tagmap v1 {tag_map.extent[0]!r} {tag_map.extent[1]!r}"]
    for entry in tag_map.entries:
        p = [float(v) for v in entry.pose_in_world.position]
        q = entry.pose_in_world.orientation.canonical()
        lines.append(
            f"{entry.tag_id} {entry.size_class.label} "
            f"{p[0]!r} {p[1]!r} {p[2]!r} {q.w!r} {q.x!r} {q.y!r} {q.z!r}"
        )
    return "\n".join(lines) + "\n"


def load_map(path: str | Path) -> TagMap:
    try:
        return parse_map(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise MapFormatError(f"{path}: {exc}") from None


def parse_finite_float(token: str) -> float:
    """A finite float from a text token; ValueError naming the token on
    anything else (including nan and inf). The map, config, scenario and
    waypoint readers take their numbers through it, so a non-finite value is
    rejected where the caller can name its line, key or token instead of
    surfacing later as a NaN result."""
    try:
        value = float(token)
    except ValueError:
        value = math.nan  # reported like a non-finite number
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {token!r}")
    return value


def _parse_float(token: str, line_no: int, field: str) -> float:
    try:
        return parse_finite_float(token)
    except ValueError:
        raise MapFormatError(f"line {line_no}: bad {field} {token!r}") from None


def parse_map(text: str) -> TagMap:
    header = None
    entries = []
    line_of = {}  # tag id -> its line
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 4 or tokens[0] != "tagmap" or tokens[1] != "v1":
                raise MapFormatError(f"line {line_no}: expected header 'tagmap v1 <width> <height>'")
            header = (
                _parse_float(tokens[2], line_no, "width"),
                _parse_float(tokens[3], line_no, "height"),
            )
            if min(header) <= 0.0:
                raise MapFormatError(f"line {line_no}: map extent must be positive")
            continue
        if len(tokens) != 9:
            raise MapFormatError(f"line {line_no}: expected 9 fields, got {len(tokens)}")
        try:
            tag_id = int(tokens[0])
        except ValueError:
            tag_id = -1  # reported like a negative id
        if not 0 <= tag_id < 2**63:
            # ids key the simulator's noise streams, which take no negative
            # key, and are stacked as int64
            raise MapFormatError(
                f"line {line_no}: bad id {tokens[0]!r} (must be an integer in [0, 2**63))")
        if tag_id in line_of:
            raise MapFormatError(f"line {line_no}: duplicate id {tag_id}")
        line_of[tag_id] = line_no
        try:
            size_class = SizeClass.from_label(tokens[1])
        except ValueError:
            raise MapFormatError(f"line {line_no}: bad class {tokens[1]!r}") from None
        px, py, pz = (_parse_float(tokens[2 + k], line_no, f"p{'xyz'[k]}") for k in range(3))
        qw, qx, qy, qz = (_parse_float(tokens[5 + k], line_no, f"q{'wxyz'[k]}") for k in range(4))
        try:
            orientation = UnitQuaternion(qw, qx, qy, qz)
        except ValueError as exc:
            raise MapFormatError(f"line {line_no}: bad quaternion ({exc})") from None
        entries.append(TagEntry(tag_id, Pose(np.array([px, py, pz]), orientation), size_class))
    if header is None:
        raise MapFormatError("line 1: missing header 'tagmap v1 <width> <height>'")
    try:
        return TagMap(entries, header)
    except FootprintOverlapError as exc:
        raise MapFormatError(f"line {line_of[exc.tag_id]}: {exc}") from None
