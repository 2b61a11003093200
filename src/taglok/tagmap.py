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
from typing import Any, Callable, Iterable, NamedTuple

import numpy as np

from .geometry import Pose, _matrix, unit_components

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
    """Immutable tag table over a rectangular extent, kept as its `MapArrays` alone."""

    def __init__(self, entries: Iterable[TagEntry], extent: tuple[float, float]):
        listed = list(entries)
        ids = [e.tag_id for e in listed]
        # the noise stream keys on the id and the arrays stack it as int64
        for tag_id in (min(ids, default=0), max(ids, default=0)):
            if not 0 <= tag_id < 2**63:
                raise ValueError(f"tag id {tag_id} out of range (must be in [0, 2**63))")
        poses = [e.pose_in_world for e in listed]
        self._stack(extent, ids, [e.size_class.value for e in listed],
                    [p.position for p in poses], [p.orientation.as_array() for p in poses])

    def _stack(self, extent, ids, classes, positions, quats) -> TagMap:
        """Every map's construction core: check the columns, sort them by id, derive the rest."""
        ids, classes = np.asarray(ids, dtype=np.int64), np.asarray(classes, dtype=np.intp)
        positions, quats = np.reshape(positions, (-1, 3)), np.reshape(quats, (-1, 4))
        sorted_ids, order, counts = np.unique(ids, return_index=True, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"duplicate tag id {sorted_ids[counts > 1][0]}")
        self.extent = _checked_extent(extent)
        _check_no_same_class_overlap(ids, classes, positions)
        classes, positions, quats = classes[order], positions[order], quats[order]
        rots = np.moveaxis(np.array(_matrix(*quats.T)), -1, 0).copy()  # quat_to_matrix's bits
        sides = np.array([c.side_length for c in SizeClass])[classes]
        corners = np.einsum("nij,kj,n->nki", rots, _UNIT_SQUARE, sides)
        corners += positions[:, None, :]
        # the normals own their bits: a view would keep all of `rots` alive
        normals = np.ascontiguousarray(rots[:, :, 2])
        self._arrays = MapArrays(sorted_ids, classes, positions, quats, normals, corners)
        return self

    def __len__(self) -> int:
        return len(self._arrays.ids)

    def world_frames(self) -> MapArrays:
        """The map stacked as arrays, rows in tag-id order."""
        return self._arrays


# the largest side of a map's extent [m]. parse_map keeps a tag centre
# within the larger side of the extent, so each coordinate of a map read
# from a file is at most 2e150 m, and a camera that sees a tag is a few
# metres from it: a fused position's weighted sum (weights up to 64), the
# FIR window's sum and a frame's squared position error in cm (at most
# 3 * (4e152)**2) stay far below the float limit, 1.8e308
MAX_EXTENT = 1e150


def _checked_extent(extent) -> tuple[float, float]:
    """`extent` as two floats; ValueError unless each is positive, finite
    and at most MAX_EXTENT."""
    width, height = float(extent[0]), float(extent[1])
    if not (0.0 < width <= MAX_EXTENT and 0.0 < height <= MAX_EXTENT):
        raise ValueError(f"map extent must be positive and at most {MAX_EXTENT!r} m, "
                         f"got {width!r} x {height!r}")
    return width, height


def _check_no_same_class_overlap(ids, classes, positions) -> None:
    """Raise FootprintOverlapError on the first class, in order of first
    appearance, with two tags closer than its side length less 1e-12 on
    both axes, naming its least clashing pair in input order: the first tag
    that clashes with a later one, and the first such later tag."""
    for value in dict.fromkeys(classes.tolist()):
        members = np.flatnonzero(classes == value)
        cls = SizeClass(value)
        pair = _first_clash(positions[members, :2].tolist(), cls.side_length)
        if pair is not None:
            first, later = ids[members[list(pair)]].tolist()
            raise FootprintOverlapError(f"tags {first} and {later} (class {cls.name}) "
                                        "have overlapping footprints", later)


def _first_clash(centers: list[list[float]], side: float) -> tuple[int, int] | None:
    """The least (i, j), i < j, of two (x, y) rows of `centers` whose deltas
    are both below `side` - 1e-12, or None. Each finite row lands in the
    cell of the exact floors of its coordinates over `side`, on Python ints,
    and is compared with the earlier rows of the 3 x 3 cells around its own.
    Five rows of one cell clash (two of them share a quarter of it), so the
    least pair starts at one of the first four rows of a cell: only those
    are kept, which bounds the comparisons by 36 per row. A row with an inf
    or NaN coordinate clashes with nothing."""
    limit = side - 1e-12
    num, den = side.as_integer_ratio()
    # cells by column, then row: an empty column skips its three cells at once
    columns: dict[int, dict[int, list[tuple[int, float, float]]]] = {}
    best = None
    for j, (x, y) in enumerate(centers):
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        (a, b), (c, d) = x.as_integer_ratio(), y.as_integer_ratio()
        col, row = a * den // (b * num), c * den // (d * num)
        for column in filter(None, map(columns.get, (col - 1, col, col + 1))):
            for cy in (row - 1, row, row + 1):
                for i, u, v in column.get(cy, ()):
                    if abs(u - x) < limit and abs(v - y) < limit and (best is None or i < best[0]):
                        best = (i, j)
        kept = columns.setdefault(col, {}).setdefault(row, [])
        if len(kept) < 4:
            kept.append((j, x, y))
    return best


# the most tags `build_pattern_map` builds, about 360 B each at the build's peak (0.75 GB in
# all): memory, not the same-class overlap check (a grid, linear in the tags), bounds it
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
    tile_x, tile_y = np.array([(x, y) for _, x, y in TILE]).T
    col = np.arange(cols)[:, None]
    positions = np.zeros((rows, cols, len(TILE), 3))
    positions[..., 0] = col * TILE_SIDE + np.where(col % 2 == 1, TILE_SIDE - tile_x, tile_x)
    positions[..., 1] = (np.arange(rows) * TILE_SIDE)[:, None, None] + tile_y
    quats = np.zeros((rows, cols, len(TILE), 4))
    quats[..., 0] = 1.0
    quats[:, 1::2, :, 3] = -0.0  # odd columns: quat_from_yaw(-0.0), whose z is -0.0
    classes = np.tile([c.value for c, _, _ in TILE], rows * cols)
    return TagMap.__new__(TagMap)._stack(extent, np.arange(count), classes, positions, quats)


class MapFormatError(ValueError):
    """Raised on malformed map text; message names the offending line."""


def serialize_map(tag_map: TagMap) -> str:
    m = tag_map.world_frames()
    # each row's canonical sign (UnitQuaternion.canonical): its first nonzero component positive
    lead = np.take_along_axis(m.quats, np.argmax(m.quats != 0.0, axis=1)[:, None], axis=1)
    rows = np.concatenate([m.positions, np.where(lead < 0.0, -m.quats, m.quats)], axis=1).tolist()
    lines = [f"tagmap v1 {tag_map.extent[0]!r} {tag_map.extent[1]!r}"]
    for tag_id, value, row in zip(m.ids.tolist(), m.classes.tolist(), rows):
        lines.append(" ".join([str(tag_id), SizeClass(value).name, *map(repr, row)]))
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


class Rule(NamedTuple):
    """A field's rule: a finite number (an int and no bool, if `integer`) for
    which `holds` is true, else `why` says what it must be."""

    holds: Callable[[Any], bool]
    why: str = ""
    integer: bool = False


def check_fields(rules: dict[str, Rule], values) -> None:
    """ValueError naming the first of `values` to break its name's rule (a tuple's, each item's)."""
    for name, rule in rules.items():
        for value in values[name] if isinstance(values[name], tuple) else (values[name],):
            if rule.integer and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{name} must be an int (got {value!r})")
            try:
                finite = rule.integer or math.isfinite(value)
            except (TypeError, OverflowError):  # not a number, or an int beyond every float
                finite = False
            if not finite:
                raise ValueError(f"{name} must be a finite number (got {value!r})")
            if not rule.holds(value):
                raise ValueError(f"{name} {rule.why}")


FINITE = Rule(lambda v: True)
POSITIVE = Rule(lambda v: v > 0, "must be positive")
NON_NEGATIVE = Rule(lambda v: v >= 0, "must be non-negative")
PROBABILITY = Rule(lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")
# beyond 2**53 a pixel count has no exact float
PIXELS = Rule(lambda v: 0 < v <= 2**53, "must be positive and at most 2**53", integer=True)
AT_LEAST_ONE = Rule(lambda v: v >= 1, "must be at least 1", integer=True)
NON_NEGATIVE_INT = Rule(NON_NEGATIVE.holds, NON_NEGATIVE.why, integer=True)


def _parse_float(token: str, line_no: int, field: str) -> float:
    try:
        return parse_finite_float(token)
    except ValueError:
        raise MapFormatError(f"line {line_no}: bad {field} {token!r}") from None


def parse_map(text: str) -> TagMap:
    header = None
    classes, positions, quats = [], [], []
    line_of = {}  # tag id -> its line, in input order
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 4 or tokens[0] != "tagmap" or tokens[1] != "v1":
                raise MapFormatError(f"line {line_no}: expected header 'tagmap v1 <width> <height>'")
            extent = (_parse_float(tokens[2], line_no, "width"),
                      _parse_float(tokens[3], line_no, "height"))
            try:
                header = _checked_extent(extent)
            except ValueError as exc:
                raise MapFormatError(f"line {line_no}: {exc}") from None
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
            quats.append(unit_components(qw, qx, qy, qz))  # as UnitQuaternion keeps them
        except ValueError as exc:
            raise MapFormatError(f"line {line_no}: bad quaternion ({exc})") from None
        classes.append(size_class.value)
        positions.append((px, py, pz))
    if header is None:
        raise MapFormatError("line 1: missing header 'tagmap v1 <width> <height>'")
    try:
        return TagMap.__new__(TagMap)._stack(header, list(line_of), classes, positions, quats)
    except FootprintOverlapError as exc:
        raise MapFormatError(f"line {line_of[exc.tag_id]}: {exc}") from None
