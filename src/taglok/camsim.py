"""Deterministic pinhole-camera simulator producing per-frame tag detections.

Stands in for a real marker detection front end: given the true body pose
and the known map, it decides which tags are in view and emits their pose in
the camera frame, perturbed by a noise model whose magnitude grows as the
tag's apparent (projected) size shrinks.

Camera frame convention: z along the focal axis (out of the lens), x right,
y down in the image. The default mount points the camera at the floor.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .geometry import (
    _NORM_TOL,
    Pose,
    UnitQuaternion,
    _hamilton,
    _matrix,
    _rotated,
    quat_multiply_rows,
    rotate_rows,
    unit_components,
)
from .tagmap import TagMap

DEFAULT_DETECT_THRESHOLD_PX = 12.0
_Z_AXIS = np.array([0.0, 0.0, 1.0])  # rotation axis when the drawn one is ~zero
_CULL_MARGIN_PX = 1.0
_PREVIOUS_CORNER = np.array([3, 0, 1, 2])  # corners run counterclockwise

# numpy's SeedSequence hash constants and the PCG64 LCG multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# The stream arithmetic's operands are 0-d arrays of the dtype they meet: a
# Python int operand is converted anew on every call, which costs numpy 2
# about as much again as the operation itself on a frame's rows.
_U32_16, _U32_MIX_L, _U32_MIX_R = (np.array(value, dtype=np.uint32)
                                   for value in (16, _MIX_MULT_L, _MIX_MULT_R))
(_U64_1, _U64_8, _U64_9, _U64_11, _U64_32, _U64_58, _U64_63, _U64_64, _U64_BYTE,
 _U64_LOW32, _U64_LOW52) = (np.array(value, dtype=np.uint64) for value in (
     1, 8, 9, 11, 32, 58, 63, 64, 0xFF, _MASK32, 2**52 - 1))


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics, the optical axis through the image centre, plus
    the fixed camera-in-body mount pose."""

    focal_px: float
    image_size: tuple[int, int]
    pose_in_body: Pose
    detect_threshold_px: float = DEFAULT_DETECT_THRESHOLD_PX

    def __post_init__(self) -> None:
        if self.focal_px <= 0:
            raise ValueError("focal length must be positive")
        if self.image_size[0] <= 0 or self.image_size[1] <= 0:
            raise ValueError("image size must be positive")
        if self.detect_threshold_px <= 0:
            raise ValueError("detectability threshold must be positive")


def down_facing_mount(offset: np.ndarray | None = None) -> Pose:
    """Camera-in-body pose looking straight down (body z up, camera z down).

    A half-turn about the body x-axis maps camera x to body x and camera z
    to body -z.
    """
    position = np.zeros(3) if offset is None else np.asarray(offset, dtype=float)
    return Pose(position, UnitQuaternion(0.0, 1.0, 0.0, 0.0))


def default_camera(focal_px: float = 600.0,
                   image_size: tuple[int, int] = (1280, 720),
                   mount_offset: np.ndarray | None = None,
                   detect_threshold_px: float = DEFAULT_DETECT_THRESHOLD_PX) -> CameraModel:
    return CameraModel(
        focal_px=focal_px,
        image_size=image_size,
        pose_in_body=down_facing_mount(mount_offset),
        detect_threshold_px=detect_threshold_px,
    )


@dataclass(frozen=True)
class NoiseModel:
    """Detection noise scaled by inverse apparent tag size.

    Per-axis position sigma at a reference apparent size, scaled by
    (reference / apparent)**size_exponent; rotation noise likewise, applied
    as a right-multiplied random rotation. With outlier_probability a
    detection's sigmas are multiplied by the outlier scales. The stream is
    a pure function of (seed, frame_index, tag_id).
    """

    position_sigma_at_ref: float = 0.0
    rotation_sigma_at_ref: float = 0.0
    reference_apparent_size: float = 100.0
    size_exponent: float = 1.0
    outlier_probability: float = 0.0
    outlier_position_scale: float = 1.0
    outlier_rotation_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.position_sigma_at_ref < 0 or self.rotation_sigma_at_ref < 0:
            raise ValueError("noise sigmas must be non-negative")
        if not 0.0 <= self.outlier_probability <= 1.0:
            raise ValueError("outlier probability must be in [0, 1]")
        if self.reference_apparent_size <= 0:
            raise ValueError("reference apparent size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @staticmethod
    def zero() -> "NoiseModel":
        return NoiseModel()


@dataclass(frozen=True)
class DetectionRows:
    """Tag detections as arrays, one row per detection: tag ids (n,) int64,
    positions (n, 3) and unit quaternions (n, 4) as (w, x, y, z) rows of the
    tag pose in the camera frame, and apparent side lengths (n,) [px]."""

    ids: np.ndarray
    positions: np.ndarray
    quats: np.ndarray
    apparent: np.ndarray

    def __post_init__(self) -> None:
        if not (self.positions[:, 2] > 0).all():  # NaN fails too
            raise ValueError("detected tag must lie in front of the camera (z > 0)")

    def __len__(self) -> int:
        return len(self.ids)


class Frame(NamedTuple):
    """One frame of input to the estimator: its detections, plus, when the
    frame was simulated, the true body pose and the trajectory's phase label
    at its time (None for a shape without phases). A frame read from a
    stream has neither."""

    index: int
    t: float
    truth: Pose | None
    detections: DetectionRows
    phase: str | None = None


def _world_in_camera(body: Pose, mount: Pose) -> tuple[list[float], list[float], list[float]]:
    """The camera's position in the world, then the orientation (w, x, y, z)
    and position of the world in the camera: inverse(compose(body, mount))
    as floats, by the expressions of compose, inverse and UnitQuaternion."""
    b, m = body.orientation, mount.orientation
    offset = _rotated(b.w, b.x, b.y, b.z, *mount.position.tolist())
    cam_p = [p + d for p, d in zip(body.position.tolist(), offset)]
    w, x, y, z = unit_components(*_hamilton(b.w, b.x, b.y, b.z, m.w, m.x, m.y, m.z))
    q = (w, -x, -y, -z)  # the conjugate, unit as its source is
    return cam_p, list(q), [-d for d in _rotated(*q, *cam_p)]


def visible_tags(tag_map: TagMap, cam: CameraModel, body_pose_true: Pose) -> DetectionRows:
    """The noise-free detections of the tags in view, in tag-id order.

    A tag counts as visible when its front face is toward the camera, all
    four projected corners fall inside the image, and the mean projected
    side length reaches the detectability threshold; `apparent` holds that
    side length [px].
    """
    m = tag_map.world_frames()
    cam_p, cam_q, t = _world_in_camera(body_pose_true, cam.pose_in_body)
    R, t = np.array(_matrix(*cam_q)), np.array(t)

    width, height = cam.image_size
    cx, cy = width / 2.0, height / 2.0  # where the optical axis meets the image
    # a tag whose four corners project into the image has its centre there
    # too (the image is convex), so only tags whose centre projects within
    # a pixel of the image can be visible; the margin covers rounding
    centers = m.positions @ R.T + t
    ahead = centers[:, 2] > 0.0
    z_safe = np.where(ahead, centers[:, 2], 1.0)
    # a far tag, or any tag at a depth of a few subnormals (a hover at
    # z = 5e-324), projects to inf and is culled below
    with np.errstate(over="ignore"):
        u = cx + cam.focal_px * centers[:, 0] / z_safe
        v = cy + cam.focal_px * centers[:, 1] / z_safe
    # normal . (camera - centre), summed left to right as .sum(axis=1) sums
    facing = m.normals * (np.array(cam_p) - m.positions)
    candidates = ((facing[:, 0] + facing[:, 1] + facing[:, 2] > 0.0) & ahead
                  & (u >= -_CULL_MARGIN_PX) & (u <= width + _CULL_MARGIN_PX)
                  & (v >= -_CULL_MARGIN_PX) & (v <= height + _CULL_MARGIN_PX)).nonzero()[0]

    # one 2-D product projects every corner: (k, 4, 3)
    corners_cam = (m.corners.take(candidates, axis=0).reshape(-1, 3) @ R.T).reshape(-1, 4, 3) + t
    # a corner not in front of the camera projects to NaN, which no bound takes
    z = corners_cam[:, :, 2]
    z_safe = np.where(z > 1e-9, z, np.nan)
    u = cx + cam.focal_px * corners_cam[:, :, 0] / z_safe
    v = cy + cam.focal_px * corners_cam[:, :, 1] / z_safe
    seen = np.logical_and.reduce((u >= 0) & (u <= width) & (v >= 0) & (v <= height),
                                 axis=1)  # every corner in front and inside the image

    # projected sides, NaN for a tag with a corner behind
    du = u - u.take(_PREVIOUS_CORNER, axis=1)
    dv = v - v.take(_PREVIOUS_CORNER, axis=1)
    sides = np.sqrt(du * du + dv * dv)
    apparent = (sides[:, 0] + sides[:, 1] + sides[:, 2] + sides[:, 3]) / 4.0  # their mean

    keep = (seen & (apparent >= cam.detect_threshold_px)).nonzero()[0]
    rows, apparent = candidates.take(keep), apparent.take(keep)
    cam_q = np.array(cam_q)
    return DetectionRows(m.ids.take(rows), t + rotate_rows(cam_q, m.positions.take(rows, axis=0)),
                         quat_multiply_rows(cam_q, m.quats.take(rows, axis=0)), apparent)


def _uint32_words(value: int) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of a non-negative
    int; 0 gives one word."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@cache
def _hash_chain(const: int, mult: int, count: int) -> np.ndarray:
    """`count + 1` successive values of SeedSequence's running hash
    multiplier, starting at `const`, as a read-only (count + 1, 1) uint32
    column."""
    chain = [const]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    column = np.array(chain, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hash(words: np.ndarray, chain: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the rows of `words`, one multiplier step of
    `chain` per row."""
    mixed = (words ^ chain[:-1]) * chain[1:]
    mixed ^= mixed >> _U32_16
    return mixed


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _U32_MIX_L * x - _U32_MIX_R * y
    mixed ^= mixed >> _U32_16
    return mixed


def _mixing_chain(src: int) -> np.ndarray:
    """For source word `src` of SeedSequence's all-into-all mixing, a (5, 1)
    chain that `_hash` turns into one hash per pool word: the source's three
    steps in turn for the other words, and for its own row a repeat, whose
    result is dropped."""
    own = _hash_chain(_INIT_A, _MULT_A, 16)[4 + 3 * src:8 + 3 * src]
    return np.concatenate((own[:src + 1], own[src:]))


_MIXING_CHAINS = [_mixing_chain(src) for src in range(4)]


def _jump_constants(steps: int) -> tuple[np.ndarray, ...]:
    """The factors (A^k, A^k + C_k) for k = 1 ... steps as (steps, 2, 1)
    uint64 arrays: their high halves, their low halves, and the low and
    high 32 bits of those.

    k steps of the LCG take a state s with increment inc to
    A^k * s + C_k * inc mod 2**128, where C_1 = 1 and C_{k+1} = A * C_k + 1.
    Seeding ends with one step from the state inc + seed, so the state k
    steps past that one is A^k * seed + (A^k + C_k) * inc: these factors
    take the seed and the increment as `_stream_seeds` gives them, and fold
    seeding's last add into the jump."""
    modulus, power, total, factors = 1 << 128, 1, 0, []
    for _ in range(steps):
        power, total = power * _PCG_MULT % modulus, (total * _PCG_MULT + 1) % modulus
        factors.append((power, (power + total) % modulus))
    wide = np.array(factors, dtype=object)[:, :, None]
    low = wide & (2**64 - 1)
    return tuple(part.astype(np.uint64) for part in (wide >> 64, low, low & _MASK32, low >> 32))


# the seeded state is one step past inc + seed; each tag's first draws (one
# uniform and seven normals, each one raw word when the normals take the
# ziggurat's fast path) come from the states 2 ... 9 steps past it
_DRAWS = tuple(part[1:] for part in _jump_constants(9))


def _jump(words: np.ndarray, factors: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The states A^k * seed + (A^k + C_k) * inc mod 2**128 for the k of
    `factors` (`_jump_constants` rows), as (k, n) uint64 high and low halves;
    `words` is `_stream_seeds`' (4, n) array, whose rows 0 and 2 are the
    high halves of (seed, inc) and rows 1 and 3 their low halves."""
    hi, lo = words[0::2], words[1::2]
    factor_hi, factor_lo, b0, b1 = factors
    a0, a1 = lo & _U64_LOW32, lo >> _U64_32
    # the high 64 bits of lo * factor_lo from 32-bit halves; no sum overflows
    low = a0 * b0
    mid = a1 * b0 + (low >> _U64_32)
    cross = a0 * b1 + (mid & _U64_LOW32)
    terms_hi = (a1 * b1 + (mid >> _U64_32) + (cross >> _U64_32)
                + hi * factor_lo + lo * factor_hi)  # (k, 2, n)
    terms_lo = lo * factor_lo
    state_lo = np.add.reduce(terms_lo, axis=1)
    return np.add.reduce(terms_hi, axis=1) + (state_lo < terms_lo[:, 1]), state_lo


# numpy's 256-layer ziggurat for standard normals (random_standard_normal):
# a raw word r is layer r & 0xff, sign bit 8 and magnitude rabs = the 52 bits
# above, and gives +-rabs * wi[layer] at once when rabs < ki[layer]. The
# tables are numpy's own (ziggurat_constants.h) as big-endian 64-bit words,
# wi as float64 bit patterns; ki[1] is 0, so wi[1] never gives a draw here.
# test_camsim re-derives both from the installed numpy.
_ZIGGURAT_WI = np.frombuffer(bytes.fromhex("""
    3ccf493b7815d979 3c8b8d0be3fdf6c6 3c9250af3c2c5bb4 3c957cb938443b61 3c9801fce82fa70c
    3c9a230c2e4cd0bc 3c9c004d2f3861f7 3c9dac2f5a747274 3c9f32482d4cd5c3 3ca04d32278ebbad
    3ca0f5053b025d43 3ca192a697413677 3ca227a28f7a1af5 3ca2b52e3863d880 3ca33c3fc05791f5
    3ca3bd9ec1a2b12f 3ca439ef8dff9b55 3ca4b1bb363dfea7 3ca52575621ad374 3ca59580a707ce96
    3ca60231cfd97eea 3ca66bd261a37c3d 3ca6d2a292000570 3ca736dad346f8a6 3ca798ad10b32a77
    3ca7f845ad46f543 3ca855cc53430a77 3ca8b1649e7b769a 3ca90b2ea94ecf98 3ca96347822c1eea
    3ca9b9c98e38c546 3caa0eccdca4a72c 3caa62676d77cd59 3caab4ad6e101630 3cab05b16d136c9c
    3cab558487427a29 3caba4368e529f3a 3cabf1d62abf8232 3cac3e70f9594ef3 3cac8a13a5323b61
    3cacd4c9fe72268b 3cad1e9f0e80b748 3cad679d29e41f10 3cadafce0023b8c3 3cadf73aa9f17653
    3cae3debb5d2edfe 3cae83e9337a6f00 3caec93abdf982ce 3caf0de784f06226 3caf51f654d8f688
    3caf956d9e87d7ae 3cafd8537dfa2eac 3cb00d56e04234ec 3cb02e40f5398f9a 3cb04eea9e16a5fc
    3cb06f565b72a010 3cb08f869071f40b 3cb0af7d84bc6113 3cb0cf3d664bcc7f 3cb0eec84b16086b
    3cb10e20329515ee 3cb12d4707310fbe 3cb14c3e9f8e9141 3cb16b08bfc4201e 3cb189a71a78da34
    3cb1a81b51ee6d88 3cb1c666f8f82acb 3cb1e48b93e0d42e 3cb2028a9940a09f 3cb2206572c4c6e9
    3cb23e1d7de9c31f 3cb25bb40ca96bfb 3cb2792a661dd37f 3cb29681c719d71b 3cb2b3bb62b82eda
    3cb2d0d862e1b853 3cb2edd9e8cba98e 3cb30ac10d6e48d7 3cb3278ee1f4b930 3cb3444470265ea1
    3cb360e2baca52d5 3cb37d6abe05586a 3cb399dd6fb2b264 3cb3b63bbfb83d03 3cb3d28698561de0
    3cb3eebede725a83 3cb40ae571e09e74 3cb426fb2da6745d 3cb44300e83c30a4 3cb45ef773cac75d
    3cb47adf9e66c336 3cb496ba32488f2f 3cb4b287f602415d 3cb4ce49acb311dc 3cb4ea001638a605
    3cb505abef5e5562 3cb5214df20a8b5a 3cb53ce6d56a664f 3cb558774e1bb2c8 3cb574000e555f78
    3cb58f81c60e8514 3cb5aafd23241b59 3cb5c672d17d733d 3cb5e1e37b2f8cd3 3cb5fd4fc89f5e38
    3cb618b860a31fc3 3cb6341de8a2b0a2 3cb64f8104b7260b 3cb66ae257c99672 3cb6864283b13137
    3cb6a1a22950b2b1 3cb6bd01e8b343bb 3cb6d8626128d352 3cb6f3c43161f854 3cb70f27f78b68eb
    3cb72a8e516914c6 3cb745f7dc70eedc 3cb7616535e5731f 3cb77cd6faeff449 3cb7984dc8babd93
    3cb7b3ca3c8b1409 3cb7cf4cf3db22fb 3cb7ead68c73dee7 3cb80667a486ea1f 3cb82200dac88676
    3cb83da2ce899f15 3cb8594e1fd1f5bd 3cb875036f7a7ec5 3cb890c35f47f72d 3cb8ac8e9205c043
    3cb8c865aba10c9c 3cb8e44951446a27 3cb9003a2973b58f 3cb91c38dc288347 3cb9384612ef0afc
    3cb954627903a28a 3cb9708ebb70d5ee 3cb98ccb892e2a31 3cb9a919933f99bf 3cb9c5798cd5d92c
    3cb9e1ec2b6f7411 3cb9fe7226fad24a 3cba1b0c39f93692 3cba37bb21a2c85b 3cba547f9e0bbb88
    3cba715a724aa9a4 3cba8e4c64a0313d 3cbaab563e9ff108 3cbac878cd5af5ce 3cbae5b4e18bb336
    3cbb030b4fc3a11a 3cbb207cf09a985b 3cbb3e0aa0e00c00 3cbb5bb541ce3d03 3cbb797db93f8927
    3cbb9764f1e5f73c 3cbbb56bdb85256e 3cbbd3936b2ec0a2 3cbbf1dc9b81ae83 3cbc10486cec16a0
    3cbc2ed7e5f07a2d 3cbc4d8c136e0d1c 3cbc6c6608ec8705 3cbc8b66e0eba617 3cbcaa8fbd36a2ab
    3cbcc9e1c73bd690 3cbce95e3068e037 3cbd0906328b8f6e 3cbd28db1037ef20 3cbd48de1533c647
    3cbd691096e7f123 3cbd8973f4d7fba5 3cbdaa0999206e70 3cbdcad2f8fc490e 3cbdebd195522e37
    3cbe0d06fb49d21c 3cbe2e74c4ea46f6 3cbe501c99c1d188 3cbe72002f97fe25 3cbe94214b2abf0a
    3cbeb681c0f76f08 3cbed9237610a73a 3cbefc086101eca9 3cbf1f328ac25321 3cbf42a40fb74d6d
    3cbf665f20c90168 3cbf8a6604899782 3cbfaebb187122bf 3cbfd360d22fe785 3cbff859c118f60b
    3cc00ed447d3a075 3cc021a8028fc947 3cc034a983a902ab 3cc047da4e3ef5c7 3cc05b3bf6adb37e
    3cc06ed023a72668 3cc082988f632e17 3cc0969708e8a254 3cc0aacd7571c0c4 3cc0bf3dd1eed448
    3cc0d3ea34aa3d30 3cc0e8d4cf116593 3cc0fdffefa69fb6 3cc1136e04207041 3cc129219bbb5d35
    3cc13f1d69c4096d 3cc1556448602e3b 3cc16bf93b9deef3 3cc182df74d21261 3cc19a1a564eebac
    3cc1b1ad777f2f8e 3cc1c99ca971a694 3cc1e1ebfbe4ae39 3cc1fa9fc2e2d901 3cc213bc9d04cc81
    3cc22d477a6fd3ee 3cc24745a4ac9c24 3cc261bcc77658e0 3cc27cb2faa8592e 3cc2982ecd770e78
    3cc2b437532a0a52 3cc2d0d43196db97 3cc2ee0db1a978f5 3cc30becd256aeee 3cc32a7b5e68a4a3
    3cc349c405ae12a3 3cc369d27a33a840 3cc38ab39256410a 3cc3ac7570ae88fa 3cc3cf27b31704a6
    3cc3f2dbaa60f475 3cc417a49cb9e5da 3cc43d9815545e94 3cc464ce44a73a15 3cc48d62759c43bc
    3cc4b7739d6b5a27 3cc4e3250dcd8902 3cc5109f53e9ac41 3cc54011523a7e42 3cc571b1a94ae41b
    3cc5a5c08b718dd9 3cc5dc8a243ad0fe 3cc61669cf861e4c 3cc653ce7b006aea 3cc69540be9fe5c3
    3cc6db6b8d09e232 3cc72728f05f7a34 3cc7799556090673 3cc7d42df4d6ce8c 3cc839030529f234
    3cc8ab0fbfaa7c14 3cc92ee0946f4496 3cc9cbee014057ab 3cca8fdc7894775a 3ccb981f3878fdb1
    3ccd3bb48209ad33
"""), dtype=">f8").astype(np.float64)
_ZIGGURAT_KI = np.frombuffer(bytes.fromhex("""
    000ef33d8025ef6a 0000000000000000 000c08be98fbc6a8 000da354fabd8142 000e51f67ec1eeea
    000eb255e9d3f77e 000eef4b817ecab9 000f19470afa44aa 000f37ed61ffcb18 000f4f469561255c
    000f61a5e41ba396 000f707a755396a4 000f7cb2ec28449a 000f86f10c6357d3 000f8fa6578325de
    000f9724c74dd0da 000f9da907dbf509 000fa360f581fa74 000fa86fde5b4bf8 000facf160d354dc
    000fb0fb6718b90f 000fb49f8d5374c6 000fb7ec2366fe77 000fbaece9a1e50e 000fbdab9d040bed
    000fc03060ff6c57 000fc2821037a248 000fc4a67ae25bd1 000fc6a2977aee31 000fc87aa92896a4
    000fca325e4bde85 000fcbcce902231a 000fcd4d12f839c4 000fceb54d8fec99 000fd007bf1dc930
    000fd1464dd6c4e6 000fd272a8e2f450 000fd38e4ff0c91e 000fd49a9990b478 000fd598b8920f53
    000fd689c08e99ec 000fd76ea9c8e832 000fd848547b08e8 000fd9178bad2c8c 000fd9dd07a7add2
    000fda9970105e8c 000fdb4d5dc02e20 000fdbf95c5bfcd0 000fdc9debb99a7d 000fdd3b8118729d
    000fddd288342f90 000fde6364369f64 000fdeee708d514e 000fdf7401a6b42e 000fdff46599ed40
    000fe06fe4bc24f2 000fe0e6c225a258 000fe1593c28b84c 000fe1c78cbc3f99 000fe231e9db1caa
    000fe29885da1b91 000fe2fb8fb54186 000fe35b33558d4a 000fe3b799d0002a 000fe410e99ead7f
    000fe46746d47734 000fe4bad34c095c 000fe50baed29524 000fe559f74ebc78 000fe5a5c8e41212
    000fe5ef3e138689 000fe6366fd91078 000fe67b75c6d578 000fe6be661e11aa 000fe6ff55e5f4f2
    000fe73e5900a702 000fe77b823e9e39 000fe7b6e37070a2 000fe7f08d774243 000fe8289053f08c
    000fe85efb35173a 000fe893dc840864 000fe8c741f0cebc 000fe8f9387d4ef6 000fe929cc879b1d
    000fe95909d388ea 000fe986fb939aa2 000fe9b3ac714866 000fe9df2694b6d5 000fea0973abe67c
    000fea329cf166a4 000fea5aab32952c 000fea81a6d5741a 000feaa797de1cf0 000feacc85f3d920
    000feaf07865e63c 000feb13762fec13 000feb3585fe2a4a 000feb56ae3162b4 000feb76f4e284fa
    000feb965fe62014 000febb4f4cf9d7c 000febd2b8f449d0 000febefb16e2e3e 000fec0be31ebde8
    000fec2752b15a15 000fec42049dafd3 000fec5bfd29f196 000fec75406ceef4 000fec8dd2500cb4
    000feca5b6911f12 000fecbcf0c427fe 000fecd38454fb15 000fece97488c8b3 000fecfec47f91b7
    000fed1377358528 000fed278f844903 000fed3b10242f4c 000fed4dfbad586e 000fed605498c3dd
    000fed721d414fe8 000fed8357e4a982 000fed9406a42cc8 000feda42b85b704 000fedb3c8746ab4
    000fedc2df416652 000fedd171a46e52 000feddf813c8ad3 000feded0f909980 000fedfa1e0fd414
    000fee06ae124bc4 000fee12c0d95a06 000fee1e579006e0 000fee29734b6524 000fee34150ae4bc
    000fee3e3db89b3c 000fee47ee2982f4 000fee51271db086 000fee59e9407f41 000fee623528b42e
    000fee6a0b5897f1 000fee716c3e077a 000fee7858327b82 000fee7ecf7b06ba 000fee84d2484ab2
    000fee8a60b66343 000fee8f7accc851 000fee94207e25da 000fee9851a829ea 000fee9c0e13485c
    000fee9f557273f4 000feea22762ccae 000feea4836b42ac 000feea668fc2d71 000feea7d76ed6fa
    000feea8ce04fa0a 000feea94be8333b 000feea950296410 000feea8d9c0075e 000feea7e7897654
    000feea678481d24 000feea48aa29e83 000feea21d22e4da 000fee9f2e352024 000fee9bbc26af2e
    000fee97c524f2e4 000fee93473c0a3a 000fee8e40557516 000fee88ae369c7a 000fee828e7f3dfd
    000fee7bdea7b888 000fee749bff37ff 000fee6cc3a9bd5e 000fee64529e007e 000fee5b45a32888
    000fee51994e57b6 000fee474a0006cf 000fee3c53e12c50 000fee30b2e02ad8 000fee2462ad8205
    000fee175eb83c5a 000fee09a22a1447 000fedfb27e349cc 000fedebea76216c 000feddbe422047e
    000fedcb0ece39d3 000fedb964042cf4 000feda6dce938c9 000fed937237e98d 000fed7f1c38a836
    000fed69d2b9c02b 000fed538d06ae00 000fed3c41dea422 000fed23e76a2fd8 000fed0a732fe644
    000fecefda07fe34 000fecd4100eb7b8 000fecb708956eb4 000fec98b61230c1 000fec790a0da978
    000fec57f50f31fe 000fec356686c962 000fec114cb4b335 000febeb948e6fd0 000febc429a0b692
    000feb9af5ee0cdc 000feb6fe1c98542 000feb42d3ad1f9e 000feb13b00b2d4b 000feae2591a02e9
    000feaaeae992257 000fea788d8ee326 000fea3fcffd73e5 000fea044c8dd9f6 000fe9c5d62f563b
    000fe9843ba947a4 000fe93f471d4728 000fe8f6bd76c5d6 000fe8aa5dc4e8e6 000fe859e07ab1ea
    000fe804f690a940 000fe7ab488233c0 000fe74c751f6aa5 000fe6e8102aa202 000fe67da0b6abd8
    000fe60c9f38307e 000fe5947338f742 000fe51470977280 000fe48bd436f458 000fe3f9bffd1e37
    000fe35d35eeb19c 000fe2b5122fe4fe 000fe20003995557 000fe13c82788314 000fe068c4ee67b0
    000fdf82b02b71aa 000fde87c57efeaa 000fdd7509c63bfd 000fdc46e529bf13 000fdaf8f82e0282
    000fd985e1b2ba75 000fd7e6ef48cf04 000fd613adbd650b 000fd40149e2f012 000fd1a1a7b4c7ac
    000fcee204761f9e 000fcba8d85e11b2 000fc7d26ecd2d22 000fc32b2f1e22ed 000fbd6581c0b83a
    000fb606c4005434 000fac40582a2874 000f9e971e014598 000f89fa48a41dfc 000f66c5f7f0302c
    000f1a5a4b331c4a
"""), dtype=">u8").astype(np.uint64)


# SeedSequence's generate_state: eight hash steps over the pool's four words
# twice, as (2, 4, 1) xor and multiplier constants against a (4, n) pool
_STATE_CHAIN = _hash_chain(_INIT_B, _MULT_B, 8)
_STATE_XOR, _STATE_MULT = _STATE_CHAIN[:-1].reshape(2, 4, 1), _STATE_CHAIN[1:].reshape(2, 4, 1)


def _stream_seeds(seed: int, frame_index: int, ids: np.ndarray) -> np.ndarray:
    """The seed and increment `PCG64((seed, frame_index, id))` is seeded
    with, per id, as a (4, n) array of uint64 halves: seed high, seed low,
    inc high, inc low, inc being already the odd 2 * word + 1.

    numpy's seeding, computed for all ids at once: SeedSequence hashes the
    uint32 words of (seed, frame, id) into a pool of four words and draws
    four uint64 words from it; pcg_setseq_128_srandom_r makes the last two
    the increment, sets the state to inc + seed and steps once. That add
    and step are left to `_jump`, whose factors fold them in.

    The entropy words are the rows of one (k, n) array, the seed's and the
    frame's repeated across the ids, each id's low then high word last. In
    the first four rows a zero high word hashes as a missing word would; a
    later one is mixed in only where it is nonzero.
    """
    if seed < 0 or frame_index < 0 or (len(ids) and ids.min() < 0):
        raise ValueError("noise stream keys (seed, frame, tag id) must be non-negative")
    prefix = _uint32_words(seed) + _uint32_words(frame_index)
    entropy = np.empty((len(prefix) + 2, len(ids)), dtype=np.uint32)
    entropy[:len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[len(prefix):] = ids.astype("<u8").view("<u4").reshape(-1, 2).T
    chain = _hash_chain(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hash(entropy[:4], chain[:5])
    for src in range(4):  # every word into the other three, in numpy's order
        mixed = _mix(pool, _hash(pool[src], _MIXING_CHAINS[src]))
        mixed[src] = pool[src]
        pool = mixed
    for k in range(4, len(entropy)):  # each later word into all four
        mixed = _mix(pool, _hash(entropy[k], chain[4 * k:4 * k + 5]))
        pool = mixed if k < len(entropy) - 1 else np.where(entropy[k] != 0, mixed, pool)
    mixed = (pool ^ _STATE_XOR) * _STATE_MULT
    mixed ^= mixed >> _U32_16
    drawn = mixed.reshape(8, -1)
    # each id's eight uint32 words, side by side, pair up little-endian into
    # four uint64 words; `_jump` broadcasts their rows at half the cost when
    # each row is contiguous
    words = np.ascontiguousarray(np.ascontiguousarray(drawn.T, dtype="<u4").view("<u8").T)
    inc_hi, inc_lo = words[2:]
    inc_hi <<= _U64_1
    inc_hi |= inc_lo >> _U64_63
    inc_lo <<= _U64_1
    inc_lo |= _U64_1
    return words


@cache
def _stream_sampler() -> tuple[np.random.PCG64, np.random.Generator]:
    """One PCG64 and its Generator, built on first use. It holds no draws:
    `_noise_draws` sets its whole state from a tag's stream before each use."""
    bit_generator = np.random.PCG64(0)
    return bit_generator, np.random.Generator(bit_generator)


def _noise_draws(seed: int, frame_index: int, ids: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each tag's first uniform (n,) and next seven normals (n, 7) from its
    own stream `default_rng((seed, frame_index, id))`, value for value.

    All tags' first eight raw outputs come at once, as the XSL-RR outputs of
    the states 2 ... 9 LCG steps past inc + seed, which `_jump` reaches from
    `_stream_seeds`' seed and increment in one product each: seeding's last
    add and step are folded into its factors.
    The uniform is output 1 as `random()` takes it, (u >> 11) * 2**-53.
    Outputs 2 ... 8 give the seven normals by the fast path of numpy's
    ziggurat, which about nine tags in ten take for all seven. A tag with a
    draw that fails it (one in layer 1, or rejected by its layer's limit)
    gets its normals from numpy's own sampler instead, a PCG64 being set to
    its state after the uniform.
    """
    words = _stream_seeds(seed, frame_index, ids)
    hi, lo = _jump(words, _DRAWS)  # (8, n)
    xored, rot = hi ^ lo, hi >> _U64_58
    # rotated right by rot; numpy shifts a word by 64 to 0, which rot = 0 needs
    output = (xored >> rot) | (xored << (_U64_64 - rot))
    uniform = (output[0] >> _U64_11).astype(np.float64) * 2.0**-53

    draws = output[1:]
    layer = (draws & _U64_BYTE).view(np.int64)
    magnitude = (draws >> _U64_9) & _U64_LOW52
    drawn = magnitude.astype(np.float64) * _ZIGGURAT_WI.take(layer)  # >= 0
    # bit 8 of the raw word is the sign: it becomes the float's sign bit
    signed = (drawn.view(np.uint64) | (draws >> _U64_8 << _U64_63)).view(np.float64)
    normals = np.ascontiguousarray(signed.T)
    slow = (magnitude >= _ZIGGURAT_KI.take(layer)).any(axis=0).nonzero()[0]
    if len(slow):
        bit_generator, sampler = _stream_sampler()
        state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
        stream = state["state"]
        keys = np.array([hi[0], lo[0], words[2], words[3]]).take(slow, axis=1).T.tolist()
        for row, (high, low, inc_high, inc_low) in zip(slow.tolist(), keys):
            stream["state"], stream["inc"] = high << 64 | low, inc_high << 64 | inc_low
            bit_generator.state = state
            sampler.standard_normal(out=normals[row])
    return uniform, normals


def detect(tag_map: TagMap, cam: CameraModel, noise: NoiseModel,
           body_pose_true: Pose, frame_index: int) -> DetectionRows:
    """Simulated detections for one frame, deterministic in (seed, frame, tag).

    Each visible tag draws from its own stream, `default_rng((seed, frame,
    tag))`, so adding or removing a tag never shifts any other tag's noise:
    one uniform decides whether the detection is an outlier, then seven
    normals give the position error (3), the rotation axis (3) and the
    rotation angle (1). The sigmas scale with (reference / apparent) **
    size_exponent; the rotation error is right-multiplied. A perturbation
    extreme enough to push the tag behind the camera counts as a failed
    detection and the tag is skipped for that frame.

    The streams are still `default_rng((seed, frame, tag))` value for value,
    but their seeding (SeedSequence hashing and PCG64 set-up), their raw
    outputs and the draws are computed for all tags at once (`_noise_draws`):
    the normals by the fast path of numpy's ziggurat, and only for the tags
    with a draw off that path (about one in ten) by numpy's sampler, run
    from the tag's stream state.

    All tags of the frame are perturbed at once, with the rounding of the
    per-tag form (`oracles.loop_detect` in the tests): Python's pow, the
    one ** calls, for the scale (numpy's array power differs in the last
    bit), math.cos/math.sin
    (numpy's may follow its SIMD build), and the axis norm as a row-wise dot
    product, the BLAS route np.linalg.norm takes ((a * a).sum rounds
    differently).
    """
    exact = visible_tags(tag_map, cam, body_pose_true)
    n = len(exact)
    uniform, normals = _noise_draws(noise.seed, int(frame_index), exact.ids)
    ref, exponent = noise.reference_apparent_size, noise.size_exponent
    scale = np.fromiter(map(pow, (ref / exact.apparent).tolist(), repeat(exponent, n)), float, n)

    outlier = uniform < noise.outlier_probability
    sigma_p = noise.position_sigma_at_ref * scale
    sigma_r = noise.rotation_sigma_at_ref * scale
    sigma_p = np.where(outlier, sigma_p * noise.outlier_position_scale, sigma_p)
    sigma_r = np.where(outlier, sigma_r * noise.outlier_rotation_scale, sigma_r)
    delta_p = normals[:, :3] * sigma_p[:, None]
    axis = normals[:, 3:6]
    norm = np.sqrt((axis[:, None, :] @ axis[:, :, None])[:, 0, 0])
    unusable = ~(norm > 1e-12)
    axis = axis / np.where(unusable, 1.0, norm)[:, None]
    axis[unusable] = _Z_AXIS
    half = (0.5 * np.abs(normals[:, 6] * sigma_r)).tolist()
    # (cos h, sin h * unit axis) is unit to a few ulps, a row UnitQuaternion keeps as it is
    delta_q = np.empty((n, 4))
    delta_q[:, 0] = np.fromiter(map(math.cos, half), float, n)
    delta_q[:, 1:] = np.fromiter(map(math.sin, half), float, n)[:, None] * axis
    noisy_p = exact.positions + delta_p
    noisy_q = quat_multiply_rows(exact.quats, delta_q)
    # a NaN depth is not behind: it reaches DetectionRows, which rejects it
    behind = noisy_p[:, 2] <= 0.0
    if not np.count_nonzero(behind):
        return DetectionRows(exact.ids, noisy_p, noisy_q, exact.apparent)
    keep = (~behind).nonzero()[0]
    return DetectionRows(exact.ids.take(keep), noisy_p.take(keep, axis=0),
                         noisy_q.take(keep, axis=0), exact.apparent.take(keep))


# --- detection-stream dump (one line per detection, for replay/debugging) ---

def format_detection_lines(frame: int, t: float, rows: DetectionRows) -> list[str]:
    """One stream line per detection: frame, time, id, position, quaternion
    and apparent side, every float written with repr so it reads back exactly."""
    return [f"{frame} {t!r} {tag_id} {p[0]!r} {p[1]!r} {p[2]!r} "
            f"{q[0]!r} {q[1]!r} {q[2]!r} {q[3]!r} {apparent!r}"
            for tag_id, p, q, apparent in zip(rows.ids.tolist(), rows.positions.tolist(),
                                              rows.quats.tolist(), rows.apparent.tolist())]


_LINE_FLOAT_FIELDS = ("t", "px", "py", "pz", "qw", "qx", "qy", "qz", "apparent_side")
# one parsed stream line as parse_detection_stream packs it: frame, tag id,
# then position, quaternion and apparent side as 8 floats
_STREAM_ROW = struct.Struct("=qq8d")
_STREAM_ROW_DTYPE = np.dtype([("frame", np.int64), ("id", np.int64), ("floats", np.float64, 8)])


def parse_detection_line(line: str) -> tuple[int, float, int, tuple, tuple, float]:
    """(frame, t, tag id, (px, py, pz), (qw, qx, qy, qz), apparent side) of
    one stream line, the quaternion as written (the frame chain normalizes
    it) unless UnitQuaternion refuses it, which raises its error."""
    tokens = line.split()
    if len(tokens) != 11:
        raise ValueError(f"expected 11 fields in detection line, got {len(tokens)}")
    frame = int(tokens[0])
    if not -2**63 <= frame < 2**63:
        raise ValueError(f"frame {tokens[0]!r} out of range")
    tag_id = int(tokens[2])
    if not -2**63 <= tag_id < 2**63:
        raise ValueError(f"tag id {tokens[2]!r} out of range")
    float_tokens = [tokens[1], *tokens[3:]]
    t, px, py, pz, qw, qx, qy, qz, apparent = values = tuple(map(float, float_tokens))
    if not all(map(math.isfinite, values)):
        name, token = next((name, token) for name, token, value
                           in zip(_LINE_FLOAT_FIELDS, float_tokens, values)
                           if not math.isfinite(value))
        raise ValueError(f"non-finite {name} {token!r}")
    if not pz > 0:
        raise ValueError("detected tag must lie in front of the camera (z > 0)")
    # a squared norm this close to 1 is a norm unit_components accepts
    if not abs(qw * qw + qx * qx + qy * qy + qz * qz - 1.0) <= 0.5 * _NORM_TOL:
        unit_components(qw, qx, qy, qz)
    return frame, t, tag_id, (px, py, pz), (qw, qx, qy, qz), apparent


def parse_detection_stream(text: str) -> list[Frame]:
    """Frames of a dumped detection stream's text in frame order, without
    ground truth. A frame takes its time from its first line and keeps its
    lines in stream order; errors name the line.

    Each line is packed into one whole-stream buffer as it is parsed, and
    every frame's arrays are slices of the columns read back from it, so no
    per-line object outlives its line."""
    packed, first_t = bytearray(), {}
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            index, t, tag_id, position, quat, apparent = parse_detection_line(line)
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
        packed += _STREAM_ROW.pack(index, tag_id, *position, *quat, apparent)
        first_t.setdefault(index, t)
    if not first_t:
        return []
    rows = np.frombuffer(packed, dtype=_STREAM_ROW_DTYPE)
    order = np.argsort(rows["frame"], kind="stable")
    floats = rows["floats"]
    columns = (rows["id"][order], floats[:, :3][order], floats[:, 3:7][order],
               floats[:, 7][order])
    in_order = rows["frame"][order]
    bounds = [0, *(np.flatnonzero(in_order[1:] != in_order[:-1]) + 1).tolist(), len(order)]
    return [Frame(index, first_t[index], None,
                  DetectionRows(*(column[start:end] for column in columns)))
            for index, start, end in zip(sorted(first_t), bounds, bounds[1:])]
