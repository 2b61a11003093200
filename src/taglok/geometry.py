"""Rigid-body geometry: unit quaternions, rotation matrices, poses.

Conventions (used everywhere in this package):
  - quaternions are scalar-first (w, x, y, z), Hamilton product;
  - rotation matrices are 3x3, right-handed, acting on column vectors;
  - a Pose (p, q) maps local coordinates v to parent coordinates R(q) @ v + p;
  - angles are radians; degrees appear only at reporting boundaries.

All types are immutable values and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-12


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


def unit_components(w: float, x: float, y: float, z: float) -> tuple[float, ...]:
    """(w, x, y, z) as floats, rescaled to unit norm when it is off by more
    than the tolerance; ValueError on a non-finite or near-zero norm."""
    try:
        norm = math.sqrt(w**2 + x**2 + y**2 + z**2)
    except OverflowError:  # a float component of about 1.4e154 or more
        norm = math.inf
    if not math.isfinite(norm):
        raise ValueError("quaternion norm is not finite")
    if norm < _NORM_TOL:
        raise ValueError("quaternion norm too small to normalize")
    scale = 1.0 / norm if abs(norm - 1.0) > _NORM_TOL else 1.0
    return float(w) * scale, float(x) * scale, float(y) * scale, float(z) * scale


# the constructors below set their frozen fields once each, which the
# generated __init__ followed by a __post_init__ would do twice, at about
# three times the cost; the value types are built in every frame
@dataclass(frozen=True, init=False)
class UnitQuaternion:
    """Unit quaternion (w, x, y, z), scalar first.

    Construction renormalizes whenever the input has drifted off unit norm,
    so the unit invariant holds after every operation. Both q and -q map to
    the same rotation matrix; `canonical()` picks a deterministic sign.
    """

    w: float
    x: float
    y: float
    z: float

    def __init__(self, w: float, x: float, y: float, z: float) -> None:
        w, x, y, z = unit_components(w, x, y, z)
        setattr_ = object.__setattr__
        setattr_(self, "w", w)
        setattr_(self, "x", x)
        setattr_(self, "y", y)
        setattr_(self, "z", z)

    @staticmethod
    def identity() -> "UnitQuaternion":
        return UnitQuaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_array(q: np.ndarray) -> "UnitQuaternion":
        return UnitQuaternion(*q.tolist()[:4])

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def conjugate(self) -> "UnitQuaternion":
        return UnitQuaternion(self.w, -self.x, -self.y, -self.z)

    def negate(self) -> "UnitQuaternion":
        return UnitQuaternion(-self.w, -self.x, -self.y, -self.z)

    def canonical(self) -> "UnitQuaternion":
        """Deterministic sign: w > 0, or first nonzero component > 0 when w == 0."""
        for component in (self.w, self.x, self.y, self.z):
            if component > 0.0:
                return self
            if component < 0.0:
                return self.negate()
        return self


def _hamilton(aw: float, ax: float, ay: float, az: float,
              bw: float, bx: float, by: float, bz: float) -> tuple[float, float, float, float]:
    """The components of the Hamilton product a * b."""
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def quat_multiply(a: UnitQuaternion, b: UnitQuaternion) -> UnitQuaternion:
    """Hamilton product a * b (apply b first, then a)."""
    return UnitQuaternion(*_hamilton(a.w, a.x, a.y, a.z, b.w, b.x, b.y, b.z))


def _matrix(w: float, x: float, y: float, z: float) -> list[list[float]]:
    """The rows of the rotation matrix of the unit quaternion (w, x, y, z)."""
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return [
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
        [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
        [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
    ]


def quat_to_matrix(q: UnitQuaternion) -> np.ndarray:
    """Rotation matrix of q; identical for q and -q."""
    return np.array(_matrix(q.w, q.x, q.y, q.z))


def _rotated(w, x, y, z, vx, vy, vz) -> tuple:
    """The components of (vx, vy, vz) rotated by the unit quaternion
    (w, x, y, z), as v + w * (2 u x v) + u x (2 u x v), expanded to avoid
    np.cross overhead. Floats and arrays alike: the row helpers pass columns."""
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (vx + w * tx + (y * tz - z * ty),
            vy + w * ty + (z * tx - x * tz),
            vz + w * tz + (x * ty - y * tx))


def rotate_vector(q: UnitQuaternion, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector by q (equivalent to quat_to_matrix(q) @ v)."""
    return np.array(_rotated(q.w, q.x, q.y, q.z, float(v[0]), float(v[1]), float(v[2])))


def _normalize_rows(q: np.ndarray) -> np.ndarray:
    """UnitQuaternion's construction applied to each (w, x, y, z) row of an
    (n, 4) array, bit for bit: rows whose squared norm is within the
    tolerance of 1 stay as they are, any other row is rescaled by its
    unit_components, and a row it refuses (a zero or non-finite norm) comes
    back all NaN. Only the scalar route reproduces its scaling: Python's
    float ** 2 goes through libm pow, which can differ from x * x in the
    last bit. A row that stays has a norm within about half the tolerance
    of 1, which unit_components would return unchanged, so how the squared
    norm is rounded decides nothing."""
    near = np.abs(np.einsum("ij,ij->i", q, q) - 1.0) <= _NORM_TOL
    if near.all():
        return q
    q = q.copy()
    for i in np.flatnonzero(~near).tolist():
        try:
            q[i] = unit_components(*q[i].tolist())
        except ValueError:
            q[i] = np.nan
    return q


def _columns(rows: np.ndarray):
    """The columns of an (n, k) array as (n,) views, or the entries of a
    single (k,) row as 0-d views, which numpy combines with an array in
    less time than floats."""
    return rows.T if rows.ndim == 2 else [rows[k, ...] for k in range(len(rows))]


def _side_by_side(columns: tuple) -> np.ndarray:
    """The (n,) columns as the columns of one (n, k) array."""
    out = np.empty((len(columns[0]), len(columns)))
    for k, column in enumerate(columns):
        out[:, k] = column
    return out


def quat_multiply_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton products a * b of (n, 4) arrays (one of them may be
    a single (4,) row), renormalized like UnitQuaternion. Each row is
    bit-for-bit the quat_multiply of the same pair: quat_multiply's
    expressions, evaluated on columns."""
    return _normalize_rows(_side_by_side(_hamilton(*_columns(a), *_columns(b))))


def rotate_rows(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise rotate_vector: rotate each row of v (n, 3) by the matching
    quaternion row of q (n, 4); one of them may be a single row. Each result
    row is bit-for-bit rotate_vector of the same pair: its expressions,
    evaluated on columns."""
    return _side_by_side(_rotated(*_columns(q), *_columns(v)))


@dataclass(frozen=True, init=False)
class Pose:
    """SE(3) element: position [m] plus orientation quaternion."""

    position: np.ndarray
    orientation: UnitQuaternion

    def __init__(self, position: np.ndarray, orientation: UnitQuaternion) -> None:
        p = np.array(position, dtype=float).reshape(3)
        p.setflags(write=False)
        object.__setattr__(self, "position", p)
        object.__setattr__(self, "orientation", orientation)

    @staticmethod
    def holding(position: np.ndarray, orientation: UnitQuaternion) -> "Pose":
        """A Pose of a new (3,) float row that nothing else holds: the row
        itself, made read-only, where the constructor would copy it."""
        position.setflags(write=False)
        pose = object.__new__(Pose)
        pose.__dict__.update(position=position, orientation=orientation)
        return pose

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), UnitQuaternion.identity())


def compose(a: Pose, b: Pose) -> Pose:
    """Chain rigid transforms: (a o b) maps b-local coordinates through a."""
    return Pose(
        a.position + rotate_vector(a.orientation, b.position),
        quat_multiply(a.orientation, b.orientation),
    )


def inverse(p: Pose) -> Pose:
    q_inv = p.orientation.conjugate()
    return Pose(-rotate_vector(q_inv, p.position), q_inv)


def quat_rotation_angle(a: UnitQuaternion, b: UnitQuaternion) -> float:
    """Angle [rad] of the relative rotation between a and b, in [0, pi].

    atan2 formulation: accurate to machine precision near both 0 and pi,
    unlike the arccos-of-trace form.
    """
    # quat_multiply(a, b.conjugate()) without its two objects: the conjugate
    # holds b's components negated, and the product is kept to unit norm as
    # a UnitQuaternion keeps it
    w, x, y, z = unit_components(*_hamilton(a.w, a.x, a.y, a.z, b.w, -b.x, -b.y, -b.z))
    vec_norm = math.sqrt(x**2 + y**2 + z**2)
    return 2.0 * math.atan2(vec_norm, abs(w))


def quat_from_yaw(yaw: float) -> UnitQuaternion:
    """Quaternion of a pure z-axis rotation."""
    half = 0.5 * yaw
    return UnitQuaternion(math.cos(half), 0.0, 0.0, math.sin(half))
