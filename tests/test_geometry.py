"""Quaternion algebra tests, checked against independent oracles.

The rotation oracle below builds 3x3 matrices straight from the axis-angle
formula and never touches the quaternion code it is checking.
"""

import math

import numpy as np
import pytest

from teleokin.errors import DegenerateQuaternion
from teleokin.geometry import (
    EULER_ORDERS,
    canonicalize_rows,
    euler_decompose,
    quat_conjugate,
    quat_from_axis_angle,
    quat_identity,
    quat_multiply,
    quat_multiply_rows,
    quat_normalize,
    quat_rotate_rows,
    quat_rotate_vector,
    swing_twist,
)


def axis_angle_matrix(axis, angle):
    """Rodrigues rotation matrix, written independently of the library."""
    ux, uy, uz = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    c, s = math.cos(angle), math.sin(angle)
    cc = 1.0 - c
    return np.array(
        [
            [c + ux * ux * cc, ux * uy * cc - uz * s, ux * uz * cc + uy * s],
            [uy * ux * cc + uz * s, c + uy * uy * cc, uy * uz * cc - ux * s],
            [uz * ux * cc - uy * s, uz * uy * cc + ux * s, c + uz * uz * cc],
        ]
    )


def random_unit_quat(rng):
    return quat_normalize(rng.normal(size=4))


def random_unit_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


X, Y, Z = np.eye(3)


class TestNormalize:
    def test_scaled_identity(self):
        assert np.array_equal(quat_normalize((2.0, 0.0, 0.0, 0.0)), [1.0, 0.0, 0.0, 0.0])

    def test_canonical_sign_flips_negative_w(self):
        assert np.array_equal(quat_normalize((-1.0, 0.0, 0.0, 0.0)), [1.0, 0.0, 0.0, 0.0])

    def test_norm_exactly_two(self):
        assert np.array_equal(quat_normalize((1.0, 1.0, 1.0, 1.0)), [0.5, 0.5, 0.5, 0.5])

    def test_zero_w_uses_first_nonzero_vector_component(self):
        q = quat_normalize((0.0, 0.0, -1.0, 0.0))
        assert np.array_equal(q, [0.0, 0.0, 1.0, 0.0])

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateQuaternion):
            quat_normalize((0.0, 0.0, 0.0, 0.0))
        with pytest.raises(DegenerateQuaternion):
            quat_normalize((1e-13, 0.0, 0.0, 0.0))

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = random_unit_quat(rng)
            assert np.array_equal(quat_normalize(q), q)


class TestMultiply:
    def test_identity_element(self):
        rng = np.random.default_rng(1)
        q = random_unit_quat(rng)
        assert np.allclose(quat_multiply(quat_identity(), q), q, atol=1e-12)
        assert np.allclose(quat_multiply(q, quat_identity()), q, atol=1e-12)

    def test_conjugate_is_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            q = random_unit_quat(rng)
            assert np.allclose(quat_multiply(q, quat_conjugate(q)), quat_identity(), atol=1e-12)

    def test_angle_addition_about_fixed_axis(self):
        quarter = quat_from_axis_angle(Z, math.pi / 2)
        half = quat_multiply(quarter, quarter)
        assert np.allclose(half, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_matches_matrix_composition(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ax1, ax2 = random_unit_axis(rng), random_unit_axis(rng)
            a1, a2 = rng.uniform(-math.pi, math.pi, size=2)
            q = quat_multiply(quat_from_axis_angle(ax1, a1), quat_from_axis_angle(ax2, a2))
            m = axis_angle_matrix(ax1, a1) @ axis_angle_matrix(ax2, a2)
            v = random_unit_axis(rng)
            assert np.allclose(quat_rotate_vector(q, v), m @ v, atol=1e-9)


class TestRotateVector:
    def test_identity(self):
        assert np.allclose(quat_rotate_vector(quat_identity(), X), X)

    def test_quarter_turn_about_z(self):
        q = quat_from_axis_angle(Z, math.pi / 2)
        assert np.allclose(quat_rotate_vector(q, X), Y, atol=1e-12)

    def test_thirty_degrees_about_x(self):
        # Frozen from the matrix oracle: R(x, 30deg) @ (0,0,1) = (0, -1/2, sqrt(3)/2).
        q = quat_from_axis_angle(X, math.pi / 6)
        expected = axis_angle_matrix(X, math.pi / 6) @ Z
        assert np.allclose(expected, [0.0, -0.5, 0.8660254037844387], atol=1e-15)
        assert np.allclose(quat_rotate_vector(q, Z), expected, atol=1e-9)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = random_unit_quat(rng)
            v = rng.normal(size=3) * rng.uniform(0.1, 10.0)
            assert math.isclose(
                np.linalg.norm(quat_rotate_vector(q, v)), np.linalg.norm(v), rel_tol=0, abs_tol=1e-9
            )


class TestSwingTwist:
    def test_identity_has_zero_twist(self):
        swing, angle = swing_twist(quat_identity(), Z)
        assert angle == 0.0
        assert np.array_equal(swing, quat_identity())

    def test_pure_twist(self):
        q = quat_from_axis_angle(Z, math.pi / 2)
        swing, angle = swing_twist(q, Z)
        assert math.isclose(angle, math.pi / 2, abs_tol=1e-12)
        assert np.allclose(swing, quat_identity(), atol=1e-12)

    def test_orthogonal_vector_part_degenerates_to_zero_twist(self):
        q = quat_from_axis_angle(X, math.pi)  # vector part along x, orthogonal to z
        swing, angle = swing_twist(q, Z)
        assert angle == 0.0
        assert np.array_equal(swing, q)

    def test_composite_recomposes(self):
        q = quat_multiply(quat_from_axis_angle(X, math.pi / 6), quat_from_axis_angle(Z, math.pi / 4))
        swing, angle = swing_twist(q, Z)
        recomposed = quat_multiply(swing, quat_from_axis_angle(Z, angle))
        assert np.allclose(recomposed, q, atol=1e-9)
        # Cross-check the twist value from the projection of the vector part.
        expected = 2.0 * math.atan2(float(np.dot(q[1:], Z)), float(q[0]))
        assert math.isclose(angle, expected, abs_tol=1e-12)

    def test_recomposition_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            q = random_unit_quat(rng)
            axis = random_unit_axis(rng)
            swing, angle = swing_twist(q, axis)
            assert -math.pi < angle <= math.pi
            recomposed = quat_multiply(swing, quat_from_axis_angle(axis, angle))
            assert np.allclose(recomposed, q, atol=1e-9)
            # Swing must carry no rotation component about the axis.
            assert abs(float(np.dot(swing[1:], axis))) < 1e-9


class TestEulerDecompose:
    def test_identity_all_orders(self):
        for order in EULER_ORDERS:
            angles, gimbal = euler_decompose(quat_identity(), order)
            assert not gimbal
            assert np.array_equal(angles, [0.0, 0.0, 0.0])

    def test_single_axis_case(self):
        angles, gimbal = euler_decompose(quat_from_axis_angle(Z, math.pi / 2), "ZXY")
        assert not gimbal
        assert np.allclose(angles, [math.pi / 2, 0.0, 0.0], atol=1e-12)

    def test_zxy_composite(self):
        # Intrinsic (20deg z)(10deg x)(5deg y); frozen values are the exact radians.
        q = quat_multiply(
            quat_from_axis_angle(Z, math.radians(20)),
            quat_multiply(
                quat_from_axis_angle(X, math.radians(10)), quat_from_axis_angle(Y, math.radians(5))
            ),
        )
        angles, gimbal = euler_decompose(q, "ZXY")
        assert not gimbal
        assert np.allclose(
            angles, [0.3490658503988659, 0.17453292519943295, 0.08726646259971647], atol=1e-9
        )
        assert np.allclose(_recompose(angles, "ZXY"), q, atol=1e-9)

    def test_round_trip_all_orders(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(2000):
            q = random_unit_quat(rng)
            order = EULER_ORDERS[int(rng.integers(len(EULER_ORDERS)))]
            angles, gimbal = euler_decompose(q, order)
            if gimbal:
                continue
            checked += 1
            assert all(-math.pi < a <= math.pi for a in angles)
            assert np.allclose(_recompose(angles, order), q, atol=1e-9)
        assert checked > 1900  # gimbal-proximate draws are rare

    def test_gimbal_flag_and_tie_break(self):
        # Middle angle within 1e-3 of pi/2 must flag; a3 is pinned to zero.
        q = quat_multiply(
            quat_from_axis_angle(X, 0.7),
            quat_multiply(
                quat_from_axis_angle(Y, math.pi / 2 - 5e-4), quat_from_axis_angle(Z, 0.3)
            ),
        )
        angles, gimbal = euler_decompose(q, "XYZ")
        assert gimbal
        assert angles[2] == 0.0
        assert math.isclose(angles[1], math.pi / 2 - 5e-4, abs_tol=1e-6)

    def test_exact_gimbal_lock_absorbs_into_a1(self):
        # At exact lock only a1 - a3 (or a1 + a3) is observable; with a3 = 0
        # the decomposition must still reproduce q.
        q = quat_multiply(
            quat_from_axis_angle(X, 0.4), quat_from_axis_angle(Y, math.pi / 2)
        )
        angles, gimbal = euler_decompose(q, "XYZ")
        assert gimbal
        assert np.allclose(_recompose(angles, "XYZ"), q, atol=1e-9)

    def test_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            euler_decompose(quat_identity(), "XXY")


def _recompose(angles, order):
    axes = {"X": X, "Y": Y, "Z": Z}
    q = quat_from_axis_angle(axes[order[0]], float(angles[0]))
    q = quat_multiply(q, quat_from_axis_angle(axes[order[1]], float(angles[1])))
    return quat_multiply(q, quat_from_axis_angle(axes[order[2]], float(angles[2])))


def random_unit_rows(rng, shape):
    q = rng.normal(size=shape + (4,))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def cross_rotate(q, v):
    """The np.cross form of the row rotate, kept as its bitwise reference."""
    qv = q[..., 1:]
    t = 2.0 * np.cross(qv, v)
    return v + q[..., :1] * t + np.cross(qv, t)


class TestRowKernels:
    """The batched kernels against the scalar functions, row by row."""

    def test_multiply_matches_scalar(self):
        rng = np.random.default_rng(11)
        a, b = random_unit_rows(rng, (500,)), random_unit_rows(rng, (500,))
        rows = canonicalize_rows(quat_multiply_rows(a, b))
        for i in range(len(a)):
            assert np.allclose(rows[i], quat_multiply(a[i], b[i]), rtol=0, atol=1e-12)

    def test_multiply_broadcasts_one_quaternion(self):
        rng = np.random.default_rng(12)
        a, b = random_unit_rows(rng, (50,)), random_unit_quat(rng)
        rows = canonicalize_rows(quat_multiply_rows(a, b))
        for i in range(len(a)):
            assert np.allclose(rows[i], quat_multiply(a[i], b), rtol=0, atol=1e-12)

    def test_rotate_matches_scalar(self):
        rng = np.random.default_rng(13)
        q = random_unit_rows(rng, (40, 14))
        v = rng.normal(size=(14, 3))
        rows = quat_rotate_rows(q, v)
        assert rows.shape == (40, 14, 3)
        for i in range(40):
            for j in range(14):
                assert np.allclose(rows[i, j], quat_rotate_vector(q[i, j], v[j]), rtol=0, atol=1e-12)

    def test_rotate_is_bitwise_the_cross_product_form(self):
        rng = np.random.default_rng(14)
        # The shapes the batch FK and the validator's sphere blocks use.
        for q_shape, v_shape in (((1, 14), (14, 3)), ((128, 14), (14, 3)), ((1000,), (1, 3)), ((1000,), (3,))):
            q = random_unit_rows(rng, q_shape)
            v = rng.normal(size=v_shape)
            assert np.array_equal(quat_rotate_rows(q, v), cross_rotate(q, v))

    def test_canonical_sign_matches_scalar(self):
        rng = np.random.default_rng(15)
        with_zeros = rng.normal(size=(2000, 4))
        # Zero leading components exercise every tie-break of the sign rule.
        with_zeros[rng.random(with_zeros.shape) < 0.3] = 0.0
        # No exact-zero w: the sign rule is w < 0 alone, without the tie-break.
        without_zeros = rng.normal(size=(2000, 4))
        without_zeros[without_zeros[:, 0] == 0.0, 0] = 0.5
        for q in (with_zeros, without_zeros):
            q = q[np.linalg.norm(q, axis=1) > 0]
            q /= np.linalg.norm(q, axis=1, keepdims=True)
            rows = canonicalize_rows(q.copy())
            for i in range(len(q)):
                assert np.allclose(rows[i], quat_normalize(q[i]), rtol=0, atol=1e-12)
        assert (with_zeros[:, 0] == 0).any() and not (without_zeros[:, 0] == 0).any()
        assert (without_zeros[:, 0] < 0).any()


def test_a_zero_axis_is_rejected():
    with pytest.raises(ValueError, match="rotation axis has zero norm"):
        quat_from_axis_angle([0.0, 0.0, 0.0], 0.5)
