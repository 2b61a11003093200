"""Size-heterogeneous fiducial-marker map: per-tag world pose, size and class.

The map lies on the floor (all tags at z = 0, z-axis pointing up) and is
generated by tiling one built-in tile over a rectangular extent, mirroring it
on odd columns; another layout comes from a map file. Tag ids are abstract
integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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
    def side_length(self) -> float:
        return _BASE_SIDE * (2 ** self.value)


TILE_SIDE = 0.94  # the built-in tile is a square [m]
_NEAR = SizeClass.S.side_length  # center inset of the edge-hugging S and M tags
_GAP_LO, _GAP_HI = 0.32125, 0.61875  # midway between an L corner and the M edge tag
# The built-in tile as (size class, x, y) rows in tile coordinates: XL centered,
# L at the corners, M at the edge midpoints, S filling the gaps along each edge.
TILE = (
    (SizeClass.XL, 0.47, 0.47),
    (SizeClass.L, 0.115, 0.115),
    (SizeClass.L, 0.825, 0.115),
    (SizeClass.L, 0.115, 0.825),
    (SizeClass.L, 0.825, 0.825),
    (SizeClass.M, 0.47, _NEAR),
    (SizeClass.M, 0.47, TILE_SIDE - _NEAR),
    (SizeClass.M, _NEAR, 0.47),
    (SizeClass.M, TILE_SIDE - _NEAR, 0.47),
    (SizeClass.S, _GAP_LO, _NEAR),
    (SizeClass.S, _GAP_HI, _NEAR),
    (SizeClass.S, _GAP_LO, TILE_SIDE - _NEAR),
    (SizeClass.S, _GAP_HI, TILE_SIDE - _NEAR),
    (SizeClass.S, _NEAR, _GAP_LO),
    (SizeClass.S, _NEAR, _GAP_HI),
    (SizeClass.S, TILE_SIDE - _NEAR, _GAP_LO),
    (SizeClass.S, TILE_SIDE - _NEAR, _GAP_HI),
)


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
    counterclockwise in the tag plane; the arrays are read-only."""

    ids: np.ndarray
    classes: np.ndarray
    positions: np.ndarray
    quats: np.ndarray
    normals: np.ndarray
    corners: np.ndarray

    def __post_init__(self) -> None:
        for array in vars(self).values():  # every caller shares them
            array.setflags(write=False)

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
    """Immutable tag table over a rectangular extent: `entries` by id, and their arrays."""

    def __init__(self, entries: Iterable[TagEntry], extent: tuple[float, float]):
        listed = list(entries)
        self.entries = table = tuple(sorted(listed, key=lambda e: e.tag_id))
        # the noise stream keys on the id and the arrays stack it as int64;
        # sorted, the table's ends hold its extremes
        for e in table[:1] + table[-1:]:
            if not 0 <= e.tag_id < 2**63:
                raise ValueError(f"tag id {e.tag_id} out of range (must be in [0, 2**63))")
        ids = np.array([e.tag_id for e in table], dtype=np.int64)
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if len(repeated):
            raise ValueError(f"duplicate tag id {repeated[0]}")
        self.extent = (float(extent[0]), float(extent[1]))
        _check_no_same_class_overlap(listed)
        sides = np.array([e.size_class.side_length for e in table])
        positions = np.array([e.pose_in_world.position for e in table]).reshape(-1, 3)
        rots = np.array([quat_to_matrix(e.pose_in_world.orientation) for e in table]).reshape(-1, 3, 3)
        self._arrays = MapArrays(
            ids,
            np.array([e.size_class.value for e in table], dtype=np.intp),
            positions,
            np.array([e.pose_in_world.orientation.as_array() for e in table]).reshape(-1, 4),
            rots[:, :, 2],
            positions[:, None, :] + np.einsum("nij,kj,n->nki", rots, _UNIT_SQUARE, sides),
        )

    def __len__(self) -> int:
        return len(self.entries)

    def world_frames(self) -> MapArrays:
        """The map stacked as arrays, rows in tag-id order."""
        return self._arrays


def _check_no_same_class_overlap(entries: list[TagEntry]) -> None:
    # tags in input order, so the error names the later of the first clashing pair
    for cls in dict.fromkeys(e.size_class for e in entries):
        members = [e for e in entries if e.size_class is cls]
        side = cls.side_length
        centers = np.array([e.pose_in_world.position[:2] for e in members])
        # an infinite delta is no clash; parse_map's bound on a tag's distance
        # from the extent does not rule one out (an extent near the float
        # limit), nor does a TagMap built directly
        with np.errstate(over="ignore"):
            for i in range(len(members)):
                deltas = np.abs(centers[i + 1:] - centers[i])
                clash = np.all(deltas < side - 1e-12, axis=1)
                if np.any(clash):
                    j = i + 1 + int(np.argmax(clash))
                    raise FootprintOverlapError(
                        f"tags {members[i].tag_id} and {members[j].tag_id} (class "
                        f"{cls.name}) have overlapping footprints", members[j].tag_id)


# the most tags `build_pattern_map` builds: a tag takes about 850 B at the
# build's peak, so the cap is about 1.8 GB (a 160 m square holds 491,300)
MAX_PATTERN_TAGS = 2**21


def build_pattern_map(extent: tuple[float, float],
                      names: tuple[str, str] = ("width", "height")) -> TagMap:
    """Tile the extent with the built-in tile, mirroring odd columns about the
    tile's y-axis (mirrored tags get the yaw -0.0). Tag ids run in row-major
    tile order, table order within a tile. An extent that holds more than
    MAX_PATTERN_TAGS tags is refused before any is built; errors call the
    extent `names`."""
    width, height = float(extent[0]), float(extent[1])
    for name, side in zip(names, (width, height)):
        if not side / TILE_SIDE + 1e-9 >= 1:
            raise ValueError(f"{name}: {side!r} m does not fit one {TILE_SIDE} m tile")
    # a count clipped at 2**63 is rejected below as the true one would be,
    # and it stays finite where side / TILE_SIDE overflows
    cols, rows = (math.floor(min(side / TILE_SIDE + 1e-9, 2.0**63)) for side in (width, height))
    count = cols * rows * len(TILE)
    if count > 2**63:  # ids are stacked as int64
        raise ValueError(f"{names[0]} x {names[1]}: {width!r} x {height!r} m holds so many "
                         "tiles that tag ids would reach 2**63")
    if count > MAX_PATTERN_TAGS:
        raise ValueError(f"{names[0]} x {names[1]}: {width!r} x {height!r} m holds {count} "
                         f"tags, more than the {MAX_PATTERN_TAGS} a built map may hold")
    entries = []
    for row in range(rows):
        for col in range(cols):
            mirrored = col % 2 == 1
            ox, oy = col * TILE_SIDE, row * TILE_SIDE
            orientation = quat_from_yaw(-0.0 if mirrored else 0.0)
            for size_class, x, y in TILE:
                x = TILE_SIDE - x if mirrored else x
                pose = Pose(np.array([ox + x, oy + y, 0.0]), orientation)
                entries.append(TagEntry(len(entries), pose, size_class))
    return TagMap(entries, (width, height))


class MapFormatError(ValueError):
    """Raised on malformed map text; message names the offending line."""


def serialize_map(tag_map: TagMap) -> str:
    lines = [f"tagmap v1 {tag_map.extent[0]!r} {tag_map.extent[1]!r}"]
    for entry in tag_map.entries:
        p = [float(v) for v in entry.pose_in_world.position]
        q = entry.pose_in_world.orientation.canonical()
        lines.append(
            f"{entry.tag_id} {entry.size_class.name} "
            f"{p[0]!r} {p[1]!r} {p[2]!r} {q.w!r} {q.x!r} {q.y!r} {q.z!r}"
        )
    return "\n".join(lines) + "\n"


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
            size_class = SizeClass[tokens[1]]
        except KeyError:
            raise MapFormatError(f"line {line_no}: bad class {tokens[1]!r}") from None
        px, py, pz = (_parse_float(tokens[2 + k], line_no, f"p{'xyz'[k]}") for k in range(3))
        margin = max(header)
        if not (-margin <= px <= header[0] + margin and -margin <= py <= header[1] + margin
                and abs(pz) <= margin):
            # a map's tags lie on or near its extent: a centre this far off
            # is taken for a corrupt value
            raise MapFormatError(
                f"line {line_no}: tag at ({px!r}, {py!r}, {pz!r}) lies more than {margin!r} m "
                f"outside the {header[0]!r} x {header[1]!r} m extent")
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
