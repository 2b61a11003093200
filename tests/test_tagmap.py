import math
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from taglok.geometry import Pose, UnitQuaternion
from taglok.tagmap import (
    TILE,
    TILE_SIDE,
    FootprintOverlapError,
    MapFormatError,
    SizeClass,
    TagEntry,
    TagMap,
    _check_no_same_class_overlap,
    build_pattern_map,
    parse_map,
    serialize_map,
)

from oracles import entries_of, loop_check_no_same_class_overlap, stacked_frames, tiled_entries


class TestSizeClass:
    def test_side_lengths(self):
        assert SizeClass.S.side_length == pytest.approx(0.0575)
        assert SizeClass.M.side_length == pytest.approx(0.115)
        assert SizeClass.L.side_length == pytest.approx(0.23)
        assert SizeClass.XL.side_length == pytest.approx(0.46)

    def test_each_class_doubles_the_previous(self):
        classes = [SizeClass.S, SizeClass.M, SizeClass.L, SizeClass.XL]
        for smaller, bigger in zip(classes, classes[1:]):
            assert bigger.side_length / smaller.side_length == 2.0

    def test_class_indices(self):
        assert [c.value for c in SizeClass] == [0, 1, 2, 3]

    def test_labels_round_trip(self):
        for c in SizeClass:
            assert SizeClass[c.name] is c
        with pytest.raises(KeyError):
            SizeClass["XXL"]


class TestDefaultPattern:
    def test_contains_every_class(self):
        histogram = Counter(size_class for size_class, _, _ in TILE)
        assert histogram == {SizeClass.S: 8, SizeClass.M: 4, SizeClass.L: 4, SizeClass.XL: 1}

    def test_footprints_inside_tile_with_margin(self):
        for size_class, x, y in TILE:
            half = size_class.side_length / 2
            assert x - half >= -1e-12 and x + half <= TILE_SIDE + 1e-12
            assert y - half >= -1e-12 and y + half <= TILE_SIDE + 1e-12


class TestBuildPatternMap:
    def test_default_extent_histogram(self):
        tag_map = build_pattern_map((3.0, 5.0))
        # 3 columns x 5 rows of 0.94 m tiles
        histogram = Counter(e.size_class for e in entries_of(tag_map))
        assert histogram == {
            SizeClass.S: 15 * 8,
            SizeClass.M: 15 * 4,
            SizeClass.L: 15 * 4,
            SizeClass.XL: 15,
        }
        assert len(tag_map) == 255

    def test_single_tile_is_untransformed_base_pattern(self):
        tag_map = build_pattern_map((TILE_SIDE, TILE_SIDE))
        assert len(tag_map) == len(TILE)
        for entry, (size_class, x, y) in zip(entries_of(tag_map), TILE):
            assert entry.pose_in_world.position[0] == pytest.approx(x, abs=1e-12)
            assert entry.pose_in_world.position[1] == pytest.approx(y, abs=1e-12)
            assert entry.pose_in_world.position[2] == 0.0
            assert entry.size_class is size_class

    def test_odd_column_mirrors_x_about_tile_axis(self):
        tag_map = build_pattern_map((2 * TILE_SIDE, TILE_SIDE))
        n = len(TILE)
        base = entries_of(tag_map)[:n]
        mirrored = entries_of(tag_map)[n:]
        for b, m, (_, x, _) in zip(base, mirrored, TILE):
            # oracle: reflect the base tile, then translate by one tile width
            expected_x = (TILE_SIDE - x) + TILE_SIDE
            assert m.pose_in_world.position[0] == pytest.approx(expected_x, abs=1e-12)
            assert m.pose_in_world.position[1] == pytest.approx(b.pose_in_world.position[1], abs=1e-12)

    def test_all_footprints_inside_extent(self):
        tag_map = build_pattern_map((3.0, 5.0))
        for entry in entries_of(tag_map):
            half = entry.size_class.side_length / 2
            x, y = entry.pose_in_world.position[:2]
            assert x - half >= -1e-12 and x + half <= 3.0 + 1e-12
            assert y - half >= -1e-12 and y + half <= 5.0 + 1e-12

    def test_rejects_extent_smaller_than_one_tile(self):
        with pytest.raises(ValueError):
            build_pattern_map((0.5, 5.0))
        with pytest.raises(ValueError):
            build_pattern_map((3.0, 0.9))

    def test_deterministic_byte_identical(self):
        first = serialize_map(build_pattern_map((3.0, 5.0)))
        second = serialize_map(build_pattern_map((3.0, 5.0)))
        assert first == second


class TestTagMap:
    def test_lookup(self):
        tag_map = build_pattern_map((3.0, 5.0))
        rows = tag_map.world_frames().rows_of(np.array([0, 10_000, -1, 254, 255, 0]))
        assert rows.tolist() == [0, -1, -1, 254, -1, 0]
        empty = TagMap([], (1.0, 1.0)).world_frames()
        assert empty.rows_of(np.array([0, 3])).tolist() == [-1, -1]
        assert empty.corners.shape == (0, 4, 3) and empty.quats.shape == (0, 4)

    def test_every_generated_id_resolves(self):
        tag_map = build_pattern_map((3.0, 5.0))
        m = tag_map.world_frames()
        entries = entries_of(tag_map)
        rows = m.rows_of(np.array([e.tag_id for e in entries]))
        assert rows.tolist() == list(range(len(entries)))
        for row, entry in zip(rows, entries):
            assert m.ids[row] == entry.tag_id
            assert m.classes[row] == entry.size_class.value
            assert np.array_equal(m.positions[row], entry.pose_in_world.position)
            assert np.array_equal(m.quats[row], entry.pose_in_world.orientation.as_array())

    def test_rows_of_sparse_ids(self):
        entries = [TagEntry(i, Pose(np.array([2.0 * k, 0.0, 0.0]), UnitQuaternion.identity()),
                            SizeClass.L) for k, i in enumerate((40, 3, 2**40, 17))]
        m = TagMap(entries, (10.0, 2.0)).world_frames()
        assert m.ids.tolist() == [3, 17, 40, 2**40]
        assert m.rows_of(np.array([2**40, 17, 18, 3, 0, 2**41])).tolist() == [3, 1, -1, 0, -1, -1]

    def test_duplicate_ids_rejected(self):
        entry = TagEntry(3, Pose.identity(), SizeClass.S)
        other = TagEntry(3, Pose(np.array([1.0, 1.0, 0.0]), UnitQuaternion.identity()), SizeClass.M)
        with pytest.raises(ValueError, match="duplicate"):
            TagMap([entry, other], (2.0, 2.0))

    @pytest.mark.parametrize("bad", [-5, -1, 2**63, 2**70])
    def test_id_outside_the_noise_streams_range_rejected(self, bad):
        # a negative id once built a map whose run died when the tag came
        # into view; one of 2**63 or more raised OverflowError
        entries = [TagEntry(tag_id, Pose(np.array([2.0 * k, 0.0, 0.0]), UnitQuaternion.identity()),
                            SizeClass.S) for k, tag_id in enumerate((3, bad, 9))]
        with pytest.raises(ValueError, match=f"tag id {bad} out of range"):
            TagMap(entries, (10.0, 2.0))
        edges = [TagEntry(tag_id, entry.pose_in_world, SizeClass.S)
                 for tag_id, entry in zip((0, 7, 2**63 - 1), entries)]
        assert TagMap(edges, (10.0, 2.0)).world_frames().ids.tolist() == [0, 7, 2**63 - 1]

    def test_same_class_overlap_rejected(self):
        a = TagEntry(0, Pose(np.array([0.0, 0.0, 0.0]), UnitQuaternion.identity()), SizeClass.L)
        b = TagEntry(1, Pose(np.array([0.1, 0.0, 0.0]), UnitQuaternion.identity()), SizeClass.L)
        with pytest.raises(ValueError, match="overlap"):
            TagMap([a, b], (2.0, 2.0))

    def test_overlap_names_the_first_clashing_pair_in_input_order(self):
        # id 9 (first given) clashes with id 7 (third); a check that sorted
        # the rows by id first would name "7 and 9"
        rows = ((9, 0.0), (4, 1.0), (7, 0.1))
        entries = [TagEntry(tag_id, Pose(np.array([x, 0.0, 0.0]), UnitQuaternion.identity()),
                            SizeClass.L) for tag_id, x in rows]
        message = r"tags 9 and 7 \(class L\) have overlapping footprints$"
        with pytest.raises(FootprintOverlapError, match="^" + message) as raised:
            TagMap(entries, (2.0, 2.0))
        assert raised.value.tag_id == 7
        text = "tagmap v1 2.0 2.0\n" + "".join(f"{i} L {x!r} 0.0 0.0 1 0 0 0\n" for i, x in rows)
        with pytest.raises(MapFormatError, match="^line 4: " + message):
            parse_map(text)

    def test_tags_at_infinite_or_nan_positions_build_without_a_warning(self):
        # an inf or NaN delta is no clash, and computing it warns of nothing
        rows = ((0, math.inf, 0.0), (1, math.inf, 0.0), (2, -math.inf, math.inf),
                (3, math.nan, 0.0), (4, 0.0, math.nan), (5, 1.7e308, 0.0), (6, -1.7e308, 0.0),
                (7, 0.0, 0.0))
        entries = [TagEntry(tag_id, Pose(np.array([x, y, 0.0]), UnitQuaternion.identity()),
                            SizeClass.S) for tag_id, x, y in rows]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(TagMap(entries, (2.0, 2.0))) == len(rows)
            with pytest.raises(FootprintOverlapError, match="^tags 5 and 8 ") as raised:
                TagMap([*entries, TagEntry(8, Pose(np.array([1.7e308, 0.01, 0.0]),
                                                   UnitQuaternion.identity()), SizeClass.S)],
                       (2.0, 2.0))
        assert raised.value.tag_id == 8

    def test_overlap_check_equals_the_row_loop(self):
        # random maps of clashing and clear tags: dense clusters, the class's
        # side length give or take 1e-12 on a lattice, many tags in one cell,
        # and coordinates far from the origin, huge, infinite or NaN
        rng = np.random.default_rng(33)
        odd = [math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 1e300, 2.0**51 * 0.0575,
               2.0**52 * 0.46, 1e16, -1e16]
        clashes = 0
        for _ in range(600):
            n = int(rng.integers(0, 50))
            positions = rng.uniform(-1.0, 1.0, (n, 3)) * rng.choice([0.1, 0.5, 3.0, 1e6, 1e15])
            if rng.random() < 0.5:
                side = SizeClass(int(rng.integers(4))).side_length
                positions[:, :2] = (rng.integers(-4, 4, (n, 2)) * side
                                    + rng.choice([0.0, 1e-12, -1e-12, 2e-12, 1e-13], (n, 2)))
            if n:
                for _ in range(int(rng.integers(0, 4))):
                    positions[rng.integers(n), rng.integers(2)] = rng.choice(odd)
                if rng.random() < 0.2:
                    positions[rng.integers(n, size=8), :2] = positions[rng.integers(n), :2]
            classes = rng.integers(0, 4 if rng.random() < 0.5 else 1, n)
            ids = rng.permutation(10 * n + 1)[:n]
            outcomes = []
            for check in (_check_no_same_class_overlap, loop_check_no_same_class_overlap):
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        check(ids, classes, positions)
                    outcomes.append(None)
                except FootprintOverlapError as exc:
                    outcomes.append((str(exc), exc.tag_id))
            assert outcomes[0] == outcomes[1]
            clashes += outcomes[1] is not None
        assert 100 < clashes < 500

    def test_tags_far_from_the_origin_are_checked_like_the_row_loop(self):
        # 3000 class-S tags at x near 1e299, where neighbouring floats lie far
        # more than a side apart, in pairs at the same x on a column of y: no
        # clash, then one clash between a tag and the last, at a gridded y
        side = SizeClass.S.side_length
        n = 3000
        positions = np.zeros((n, 3))
        positions[:, 0] = 1e299
        positions[1::2, 0] = np.nextafter(1e299, math.inf)
        positions[:, 1] = np.arange(n) // 2 * 1.5 * side
        ids, classes = np.arange(n)[::-1].copy(), np.zeros(n, dtype=np.intp)
        assert _check_no_same_class_overlap(ids, classes, positions) is None
        positions[-1, :2] = positions[1234, :2] + [0.0, side / 2]
        outcomes = []
        for check in (_check_no_same_class_overlap, loop_check_no_same_class_overlap):
            with pytest.raises(FootprintOverlapError) as raised:
                check(ids, classes, positions)
            outcomes.append((str(raised.value), raised.value.tag_id))
        assert outcomes[0] == outcomes[1] == (
            f"tags {ids[1234]} and 0 (class S) have overlapping footprints", 0)
        # the float below 2**51 cells lies in the last gridded cell, and clashes
        # with the tag at 2**51 cells, one float further out
        edge = 2.0**51 * side
        straddle = np.array([[np.nextafter(edge, 0.0), 0.0, 0.0], [0.0, 0.0, 0.0], [edge, 0.0, 0.0]])
        for check in (_check_no_same_class_overlap, loop_check_no_same_class_overlap):
            with pytest.raises(FootprintOverlapError, match="^tags 5 and 7 ") as raised:
                check(np.array([5, 6, 7]), np.zeros(3, dtype=np.intp), straddle)
            assert raised.value.tag_id == 7

    def test_hostile_maps_are_checked_in_linear_time(self):
        # every tag at one point (a grid that kept every row of a cell would
        # compare 4.5e8 pairs), and clear tags beyond 2**51 side lengths
        n = 30_000
        ids, classes = np.arange(n)[::-1].copy(), np.zeros(n, dtype=np.intp)
        start = time.perf_counter()
        with pytest.raises(FootprintOverlapError, match=f"^tags {n - 1} and {n - 2} "):
            _check_no_same_class_overlap(ids, classes, np.zeros((n, 3)))
        assert time.perf_counter() - start < 5.0
        n, side = 32_000, SizeClass.S.side_length
        far = np.zeros((n, 3))
        far[:, 0] = 2.0**60 + np.arange(n) % 160 * 1024.0
        far[:, 1] = np.arange(n) // 160 * 2.0 * side
        assert far[0, 0] / side > 2.0**51
        start = time.perf_counter()
        assert _check_no_same_class_overlap(np.arange(n), np.zeros(n, dtype=np.intp), far) is None
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("extent", [(math.nan, -1.0), (0.0, 2.0), (math.inf, 2.0)])
    def test_an_extent_parse_map_would_refuse_is_refused(self, extent):
        # serialize_map once wrote such a map, and parse_map refused its output
        with pytest.raises(ValueError, match="map extent must be positive and at most 1e\\+150 m"):
            TagMap([], extent)

    def test_different_class_overlap_allowed(self):
        a = TagEntry(0, Pose(np.array([0.0, 0.0, 0.0]), UnitQuaternion.identity()), SizeClass.L)
        b = TagEntry(1, Pose(np.array([0.1, 0.0, 0.0]), UnitQuaternion.identity()), SizeClass.M)
        assert len(TagMap([a, b], (2.0, 2.0))) == 2

    def test_world_frames_shapes(self):
        tag_map = build_pattern_map((3.0, 5.0))
        m = tag_map.world_frames()
        assert tag_map.world_frames() is m  # built once
        n = len(tag_map)
        assert m.ids.shape == (n,) and m.ids.dtype == np.int64 and m.classes.shape == (n,)
        assert m.positions.shape == (n, 3) and m.quats.shape == (n, 4)
        assert m.normals.shape == (n, 3) and m.corners.shape == (n, 4, 3)
        # floor map: all normals point up, corners at z = 0
        assert np.allclose(m.normals, [0.0, 0.0, 1.0])
        assert np.allclose(m.corners[:, :, 2], 0.0)

    def test_world_frames_are_read_only(self):
        # every caller of world_frames() gets the map's own arrays
        m = build_pattern_map((3.0, 5.0)).world_frames()
        for name in ("ids", "classes", "positions", "quats", "normals", "corners"):
            array = getattr(m, name)
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]

    def test_world_frames_own_their_data(self):
        # a view, such as the normals as a column of the rotation stack,
        # would keep the whole array it views alive with the map
        m = build_pattern_map((3.0, 5.0)).world_frames()
        for name in ("ids", "classes", "positions", "quats", "normals", "corners"):
            array = getattr(m, name)
            assert array.base is None and array.flags.c_contiguous, name

    def test_world_frames_corner_geometry(self):
        entry = TagEntry(7, Pose(np.array([1.0, 2.0, 0.0]), UnitQuaternion.identity()), SizeClass.XL)
        tag_map = TagMap([entry], (4.0, 4.0))
        corners = tag_map.world_frames().corners
        half = 0.23
        expected = np.array(
            [[1 - half, 2 - half, 0], [1 + half, 2 - half, 0], [1 + half, 2 + half, 0], [1 - half, 2 + half, 0]]
        )
        assert np.allclose(corners[0], expected)


FIELDS = ("ids", "classes", "positions", "quats", "normals", "corners")


def assert_same_bytes(tag_map, entries):
    """Each of the map's arrays equals the tag-by-tag stacking's, dtype,
    shape and bytes."""
    m = tag_map.world_frames()
    for name, expected in zip(FIELDS, stacked_frames(entries)):
        got = getattr(m, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name


class TestRowMath:
    """The map's column form against `oracles.stacked_frames`, bit for bit,
    so a reordered rotation-matrix expression fails here."""

    def test_tilted_tags_under_shuffled_sparse_ids(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 7, 40) * 8:
            quats = rng.normal(size=(n, 4))
            quats[::2, 0] = -np.abs(quats[::2, 0])  # w < 0 on every other row
            zeros = rng.random((n, 3)) < 0.3  # signed zeros in x, y and z
            quats[:, 1:][zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
            quats[0] = (-1.0, -0.0, 0.0, -0.0)
            ids = rng.choice(2**40, size=n, replace=False)  # shuffled and sparse
            # the first tag of each class sits within a millimetre of the
            # origin, where adding its centre rounds away no bit of a corner
            # offset; the others stand a metre apart
            entries = [TagEntry(int(tag_id), Pose(np.array([k // 4, *rng.uniform(-1e-3, 1e-3, 2)]),
                                                  UnitQuaternion(*q)), SizeClass(k % 4))
                       for k, (tag_id, q) in enumerate(zip(ids, quats.tolist()))]
            assert_same_bytes(TagMap(entries, (n / 4 + 1.0, 2.0)), entries)

    @pytest.mark.parametrize("cols", [1, 2, 5])
    def test_pattern_map(self, cols):
        extent = (cols * TILE_SIDE, 2 * TILE_SIDE)
        entries = tiled_entries(extent)
        assert len(entries) == cols * 2 * len(TILE)
        assert_same_bytes(build_pattern_map(extent), entries)


class TestMapFile:
    def test_round_trip(self):
        tag_map = build_pattern_map((3.0, 5.0))
        loaded = parse_map(serialize_map(tag_map))
        assert loaded.extent == tag_map.extent
        assert len(loaded) == len(tag_map)
        for a, b in zip(entries_of(tag_map), entries_of(loaded)):
            assert a.tag_id == b.tag_id
            assert a.size_class is b.size_class
            assert np.array_equal(a.pose_in_world.position, b.pose_in_world.position)
            assert a.pose_in_world.orientation.canonical() == b.pose_in_world.orientation

    def test_hand_written_two_tag_fixture(self):
        text = (
            "# hand-written fixture\n"
            "tagmap v1 2.0 3.0\n"
            "4 XL 0.5 0.25 0.0 1.0 0.0 0.0 0.0\n"
            "\n"
            "9 S 1.5 2.5 0.0 0.7071067811865476 0.0 0.0 0.7071067811865476\n"
        )
        tag_map = parse_map(text)
        assert len(tag_map) == 2
        assert tag_map.extent == (2.0, 3.0)
        xl, s = entries_of(tag_map)
        assert xl.tag_id == 4 and s.tag_id == 9
        assert xl.size_class is SizeClass.XL
        assert np.array_equal(xl.pose_in_world.position, [0.5, 0.25, 0.0])
        assert s.size_class is SizeClass.S
        assert s.pose_in_world.orientation.w == pytest.approx(math.cos(math.pi / 4))

    def test_duplicate_id_in_file(self):
        text = (
            "tagmap v1 2.0 2.0\n"
            "1 S 0.1 0.1 0.0 1 0 0 0\n"
            "1 M 1.0 1.0 0.0 1 0 0 0\n"
        )
        with pytest.raises(MapFormatError, match="line 3"):
            parse_map(text)

    def test_malformed_field_names_line_and_field(self):
        text = "tagmap v1 2.0 2.0\n1 S 0.1 oops 0.0 1 0 0 0\n"
        with pytest.raises(MapFormatError, match="line 2.*py"):
            parse_map(text)

    def test_bad_header(self):
        with pytest.raises(MapFormatError, match="header"):
            parse_map("tagmap v2 1 1\n")
        with pytest.raises(MapFormatError, match="header"):
            parse_map("# only a comment\n")

    def test_wrong_field_count(self):
        with pytest.raises(MapFormatError, match="line 2.*9 fields"):
            parse_map("tagmap v1 2.0 2.0\n1 S 0.1 0.1\n")

    @pytest.mark.parametrize("text, match", [
        ("tagmap v1 -3 nan\n", "line 1.*height"),
        ("tagmap v1 inf 2.0\n", "line 1.*width"),
        ("tagmap v1 -3 2.0\n", "line 1.*extent must be positive"),
        ("tagmap v1 2.0 0\n", "line 1.*extent must be positive"),
        ("tagmap v1 2.0 2.0\n1 S nan 0.1 0.0 1 0 0 0\n", "line 2.*px"),
        ("tagmap v1 2.0 2.0\n1 S 0.1 0.1 -inf 1 0 0 0\n", "line 2.*pz"),
        ("tagmap v1 2.0 2.0\n1 S 0.1 0.1 0.0 1 nan 0 0\n", "line 2.*qx"),
        ("tagmap v1 2.0 2.0\n3 S 0.1 0.1 0.0 1 1e200 0 0\n", "line 2.*norm is not finite"),
        ("tagmap v1 2.0 2.0\n-3 S 0.1 0.1 0.0 1 0 0 0\n", "line 2.*bad id '-3'"),
        ("tagmap v1 2.0 2.0\n9223372036854775808 S 0.1 0.1 0.0 1 0 0 0\n",
         "line 2.*bad id '9223372036854775808'"),
    ], ids=["nan-height", "inf-width", "negative-width", "zero-height",
            "nan-position", "inf-position", "nan-quaternion", "overflowing-quaternion",
            "negative-id", "id-2**63"])
    def test_non_finite_or_non_positive_values_name_the_line(self, text, match):
        with pytest.raises(MapFormatError, match=match):
            parse_map(text)

    def test_tag_far_outside_the_extent_names_the_line(self):
        # a centre may lie up to the extent's larger side outside it, on every axis
        text = ("tagmap v1 2.0 1.0\n1 S -2.0 3.0 2.0 1 0 0 0\n"
                "2 S 4.0000000000000009 0.1 0.0 1 0 0 0\n")
        with pytest.raises(MapFormatError, match=r"line 3: tag at \(4\.000000000000001, 0\.1, "
                                                 r"0\.0\) lies more than 2\.0 m outside the "
                                                 r"2\.0 x 1\.0 m extent"):
            parse_map(text)

    def test_warehouse_floor_round_trip_keeps_every_array(self):
        tag_map = build_pattern_map((40.0, 40.0))
        loaded = parse_map(serialize_map(tag_map))
        assert len(loaded) == 29988 and loaded.extent == tag_map.extent
        for name in FIELDS:
            a, b = getattr(tag_map.world_frames(), name), getattr(loaded.world_frames(), name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("extent", [(0.94, 0.94), (1.5, 2.0), (3.0, 5.0), (9.5, 0.94)])
    def test_every_pattern_map_reads_back(self, extent):
        tag_map = build_pattern_map(extent)
        assert len(parse_map(serialize_map(tag_map))) == len(tag_map)

    def test_bad_class_label(self):
        with pytest.raises(MapFormatError, match="line 2.*class"):
            parse_map("tagmap v1 2.0 2.0\n1 Q 0.1 0.1 0.0 1 0 0 0\n")
