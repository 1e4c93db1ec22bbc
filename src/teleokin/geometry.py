"""Quaternion algebra and the rotation decompositions used for retargeting.

Conventions, fixed once here and used everywhere in the package:

- Quaternions are float64 numpy arrays ``[w, x, y, z]`` — Hamilton product,
  right-handed, scalar first.
- Every function returns unit quaternions in *canonical sign*: ``w >= 0``,
  and when ``w == 0`` the first nonzero of ``x, y, z`` is positive.  Equal
  rotations therefore compare equal component-by-component.
- Angles are radians in ``(-pi, pi]``; rotation axes are unit 3-vectors.
- Vectors rotate actively: ``quat_rotate_vector(q, v) == R(q) @ v``.

The implementations unpack to plain floats internally; at 4 elements that is
several times faster than numpy elementwise ops, which matters in the
per-frame retargeting path.  The algebra is written once, as private
plain-float helpers: ``_quat_mul`` and ``_quat_rotate`` on float tuples, and
``_twist_angle``, ``_euler_angles`` and ``_euler_axes``.  The public
functions call them, and so do the retarget map compiled at load time and the
validator's one-row forward kinematics, which run them on the floats of a
whole frame or command without building arrays.

The row kernels at the end are the package's one copy of this algebra over
stacked ``(..., 4)`` quaternions; the scalar functions are their test oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateQuaternion

# Norm below which a quadruple no longer encodes a usable rotation.
DEGENERATE_NORM = 1e-12

# How close the middle angle may come to +-pi/2 before a three-angle
# decomposition is flagged as gimbal-proximate.
GIMBAL_MARGIN = 1e-3

EULER_ORDERS = ("XYZ", "ZXY", "ZYX", "YXZ", "XZY", "YZX")

_AXIS_INDEX = {"X": 0, "Y": 1, "Z": 2}
_UNIT_AXES = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
_CYCLIC = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def quat_identity() -> np.ndarray:
    """The identity rotation."""
    return np.array([1.0, 0.0, 0.0, 0.0])


def _canonical(w: float, x: float, y: float, z: float) -> np.ndarray:
    if w < 0.0 or (w == 0.0 and (x < 0.0 or (x == 0.0 and (y < 0.0 or (y == 0.0 and z < 0.0))))):
        return np.array([-w, -x, -y, -z])
    return np.array([w, x, y, z])


def _quat_mul(a: tuple, b: tuple) -> tuple:
    # Hamilton product a * b of two float quadruples, without re-normalization or sign fixing.
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by + ay * bw + az * bx - ax * bz,
        aw * bz + az * bw + ax * by - ay * bx,
    )


def _quat_rotate(q: tuple, v: tuple) -> tuple:
    # The 3-vector v rotated by the unit quadruple q:
    # v' = v + w*t + q_vec x t  with  t = 2 * (q_vec x v), summed in quat_rotate_rows'
    # order, so the row FK gives the batch FK's bits.
    w, x, y, z = q
    vx, vy, vz = v
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


def quat_normalize(q) -> np.ndarray:
    """Scale a quadruple to unit norm and canonical sign.

    Inputs already inside the unit band (norm within 1e-9 of 1) are passed
    through unscaled, which makes normalization exactly idempotent.  Raises
    DegenerateQuaternion when the norm is at or below 1e-12, which in this
    pipeline means corrupt sensor data rather than a programming error.
    """
    w, x, y, z = (float(c) for c in q)
    n2 = w * w + x * x + y * y + z * z
    if n2 <= DEGENERATE_NORM * DEGENERATE_NORM:
        raise DegenerateQuaternion(f"quaternion norm {math.sqrt(n2):.3e} too small to normalize")
    if abs(n2 - 1.0) > 2e-9:
        inv = 1.0 / math.sqrt(n2)
        w, x, y, z = w * inv, x * inv, y * inv, z * inv
    return _canonical(w, x, y, z)


def quat_conjugate(q) -> np.ndarray:
    """Inverse of a unit quaternion, canonical sign."""
    w, x, y, z = (float(c) for c in q)
    return _canonical(w, -x, -y, -z)


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product ``a * b``, re-normalized to canonical sign."""
    return quat_normalize(_quat_mul(tuple(float(c) for c in a), tuple(float(c) for c in b)))


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Unit quaternion rotating by ``angle`` radians about ``axis``."""
    ax, ay, az = (float(c) for c in axis)
    n = math.sqrt(ax * ax + ay * ay + az * az)
    if n <= DEGENERATE_NORM:
        raise ValueError("rotation axis has zero norm")
    s = math.sin(angle / 2.0) / n
    return _canonical(math.cos(angle / 2.0), ax * s, ay * s, az * s)


def quat_rotate_vector(q, v) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion (active rotation)."""
    return np.array(_quat_rotate(tuple(float(c) for c in q), tuple(float(c) for c in v)))


def _wrap_angle(a: float) -> float:
    # Fold into (-pi, pi]; callers only produce values in [-pi, pi].
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


def _twist_angle(w: float, x: float, y: float, z: float, ax: float, ay: float, az: float):
    # Twist of (w, x, y, z) about the unit axis, in (-pi, pi]; None when the
    # vector part is orthogonal to the axis and there is no twist component.
    proj = x * ax + y * ay + z * az
    if math.hypot(w, proj) <= DEGENERATE_NORM:
        return None
    return _wrap_angle(2.0 * math.atan2(proj, w))


def swing_twist(q, axis) -> tuple[np.ndarray, float]:
    """Split a rotation into swing and twist about ``axis``.

    Returns ``(swing, twist_angle)`` such that ``q = swing * twist`` where
    ``twist`` rotates by ``twist_angle`` about ``axis`` and the swing's
    vector part is orthogonal to ``axis``.  ``twist_angle`` lies in
    ``(-pi, pi]``.

    When the vector part of ``q`` is orthogonal to the axis there is no
    twist component; the natural degenerate result ``(q, 0.0)`` is returned.
    """
    w, x, y, z = (float(c) for c in q)
    ax, ay, az = (float(c) for c in axis)
    angle = _twist_angle(w, x, y, z, ax, ay, az)
    if angle is None:
        return _canonical(w, x, y, z), 0.0
    # swing = q * twist^-1
    half = 0.5 * angle
    tw = math.cos(half)
    ts = math.sin(half)
    swing = quat_normalize(_quat_mul((w, x, y, z), (tw, -ts * ax, -ts * ay, -ts * az)))
    return swing, angle


def _matrix(w: float, x: float, y: float, z: float):
    # Rows of R(q) for a unit quaternion.
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return (
        (1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)),
        (2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)),
        (2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)),
    )


def _euler_axes(order: str) -> tuple[int, int, int, float]:
    # Axis indices of an order and the sign of its permutation.
    i, j, k = (_AXIS_INDEX[c] for c in order)
    return i, j, k, 1.0 if (i, j, k) in _CYCLIC else -1.0


def _euler_angles(w: float, x: float, y: float, z: float, i: int, j: int, k: int, s: float):
    # (a1, a2, a3, gimbal) for the axes of _euler_axes; a1 and a3 are only
    # meaningful when gimbal is False (callers tie-break the gimbal case).
    m = _matrix(w, x, y, z)
    a2 = math.asin(max(-1.0, min(1.0, s * m[i][k])))
    if (math.pi / 2.0 - abs(a2)) <= GIMBAL_MARGIN:
        return 0.0, a2, 0.0, True
    a1 = math.atan2(-s * m[j][k], m[k][k])
    a3 = math.atan2(-s * m[i][j], m[i][i])
    return _wrap_angle(a1), a2, _wrap_angle(a3), False


def euler_decompose(q, order: str) -> tuple[np.ndarray, bool]:
    """Decompose a rotation into three intrinsic rotations.

    ``order`` is one of ``XYZ, ZXY, ZYX, YXZ, XZY, YZX``; the returned
    angles ``(a1, a2, a3)`` reproduce ``q`` as the intrinsic sequence
    ``R(order[0], a1) * R(order[1], a2) * R(order[2], a3)``.

    Returns ``(angles, gimbal)``.  ``gimbal`` is True when the middle angle
    is within GIMBAL_MARGIN of +-pi/2; in that regime the first and last
    rotations are not independently observable, so the decomposition is
    tie-broken deterministically: ``a3 = 0`` and ``a1`` absorbs the free
    rotation.
    """
    order = order.upper()
    if order not in EULER_ORDERS:
        raise ValueError(f"unsupported axis order {order!r}; expected one of {EULER_ORDERS}")
    i, j, k, s = _euler_axes(order)
    w, x, y, z = (float(c) for c in q)
    a1, a2, a3, gimbal = _euler_angles(w, x, y, z, i, j, k, s)
    if gimbal:
        # Near the singularity a1/a3 trade off freely; a3 stays 0 and a1 is
        # the twist of the residual q * R(axis_j, a2)^-1 about axis_i.
        residual = quat_multiply(q, quat_conjugate(quat_from_axis_angle(_UNIT_AXES[j], a2)))
        _, a1 = swing_twist(residual, _UNIT_AXES[i])
    return np.array([a1, a2, a3]), gimbal


# ---------------------------------------------------------------------------
# Row kernels over stacked quaternions; leading axes broadcast.


def quat_multiply_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton product ``a * b``, without re-normalization or sign fixing."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by + ay * bw + az * bx - ax * bz,
            aw * bz + az * bw + ax * by - ay * bx,
        ],
        axis=-1,
    )


def quat_rotate_rows(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate (..., 3) vectors by (..., 4) unit quaternions; bitwise the np.cross form, 2x faster."""
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return np.stack(
        [
            vx + w * tx + (y * tz - z * ty),
            vy + w * ty + (z * tx - x * tz),
            vz + w * tz + (x * ty - y * tx),
        ],
        axis=-1,
    )


def canonicalize_rows(quats: np.ndarray) -> np.ndarray:
    """Flip rows of ``(..., 4)`` quaternions into canonical sign, in place; returns ``quats``."""
    w = quats[..., 0]
    flip = w < 0
    zero = w == 0
    if zero.any():  # the x/y/z tie-break is needed only for an exact w == 0
        x, y, z = quats[..., 1], quats[..., 2], quats[..., 3]
        flip |= zero & ((x < 0) | ((x == 0) & ((y < 0) | ((y == 0) & (z < 0)))))
    np.negative(quats, out=quats, where=flip[..., None])
    return quats
