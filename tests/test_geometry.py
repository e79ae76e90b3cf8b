"""Sphere geometry: constructors, maps, and their invariants."""

import numpy as np
import pytest

from snmix.geometry import (
    SpherePoint,
    _angles,
    batch_exp,
    batch_log,
    batch_project,
    geodesic_distance,
    unitize,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def random_points(rng, n, dim):
    return unitize(rng.standard_normal((n, dim)))


class TestSpherePoint:
    def test_normalizes_input(self):
        x = SpherePoint([3.0, 4.0])
        np.testing.assert_allclose(x.coords, [0.6, 0.8], atol=1e-15)
        assert abs(np.linalg.norm(x.coords) - 1.0) < 1e-12
        assert x.p == 1

    def test_rejects_near_zero(self):
        with pytest.raises(ValueError):
            SpherePoint([1e-9, 0.0, 0.0])

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SpherePoint([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            SpherePoint([1.0])
        with pytest.raises(ValueError):
            SpherePoint([np.nan, 1.0])

    def test_coords_read_only(self):
        x = SpherePoint(E1)
        with pytest.raises(ValueError):
            x.coords[0] = 0.5

    def test_reads_as_array(self):
        x = SpherePoint(E1)
        # the batch functions read a point through np.asarray without a copy,
        # while np.array hands out a writable copy of the coordinates
        assert np.asarray(x, dtype=float) is x.coords
        copy = np.array(x)
        assert copy.flags.writeable and not np.shares_memory(copy, x.coords)
        np.testing.assert_array_equal(copy, E1)

    def test_array_protocol_without_copy_argument(self):
        # NumPy 1.x calls __array__ with no ``copy`` argument and NumPy 2 with
        # ``copy=None`` for np.asarray; both must hand back the coordinates
        x = SpherePoint(E1)
        assert x.__array__() is x.coords
        assert x.__array__(None, None) is x.coords
        copied = x.__array__(copy=True)
        assert copied.flags.writeable and not np.shares_memory(copied, x.coords)
        single = x.__array__(np.float32)
        assert single.dtype == np.float32
        np.testing.assert_array_equal(single, E1)


class TestGeodesicDistance:
    def test_identical_points(self):
        assert geodesic_distance(E1, E1) == 0.0

    def test_orthogonal_points(self):
        assert geodesic_distance(E1, E2) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_antipodal_points(self):
        assert geodesic_distance(E1, -E1) == pytest.approx(np.pi, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            geodesic_distance(E1, np.array([1.0, 0.0]))

    def test_clamps_drifted_inner_product(self):
        # norms slightly above 1 would push the dot product past the domain
        x = E1 * (1.0 + 1e-16)
        assert geodesic_distance(x, x) == 0.0


class TestProjection:
    def test_base_point_projects_to_zero(self):
        np.testing.assert_array_equal(batch_project(E1, E1), np.zeros(3))

    def test_already_tangent(self):
        np.testing.assert_allclose(batch_project(E1, E2), E2, atol=1e-15)

    def test_mixed_vector(self):
        np.testing.assert_allclose(batch_project(E1, E1 + E2), E2, atol=1e-15)

    def test_batch_of_bases(self):
        bases = np.array([E1, E2])
        np.testing.assert_array_equal(batch_project(bases, E1 + E2), [E2, E1])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = random_points(rng, 1, 5)[0]
        z = rng.standard_normal(5)
        once = batch_project(x, z)
        np.testing.assert_allclose(batch_project(x, once), once, atol=1e-14)


class TestExpMap:
    def test_zero_vector(self):
        # the zero tangent vector maps back to the base exactly
        np.testing.assert_array_equal(batch_exp(E1, np.zeros(3)), E1)

    def test_quarter_turn(self):
        np.testing.assert_allclose(batch_exp(E1, (np.pi / 2) * E2), E2, atol=1e-15)

    def test_half_turn(self):
        np.testing.assert_allclose(batch_exp(E1, np.pi * E2), -E1, atol=1e-15)


class TestLogMap:
    def test_coincident_points(self):
        np.testing.assert_array_equal(batch_log(E1, E1), np.zeros(3))

    def test_quarter_turn(self):
        np.testing.assert_allclose(batch_log(E1, E2), (np.pi / 2) * E2, atol=1e-15)

    def test_norm_equals_distance(self):
        rng = np.random.default_rng(1)
        x = random_points(rng, 100, 4)
        y = random_points(rng, 100, 4)
        norms = np.linalg.norm(batch_log(x, y), axis=1)
        np.testing.assert_allclose(norms, geodesic_distance(x, y), atol=1e-12)

    def test_cut_locus_rejected(self):
        with pytest.raises(ValueError, match="cut locus"):
            batch_log(E1, -E1)
        # one antipodal pair rejects the whole batch
        with pytest.raises(ValueError, match="cut locus"):
            batch_log(np.array([E1, E1]), np.array([E2, -E1]))

    def test_accepts_sphere_points(self):
        # a SpherePoint reads as its coordinate array
        np.testing.assert_array_equal(batch_log(SpherePoint(E1), SpherePoint(E2)), batch_log(E1, E2))


class TestInvariants:
    """Property checks on batches of random instances."""

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(42)
        for dim in (2, 3, 6, 11):
            x = random_points(rng, 2000, dim)
            v = batch_project(x, rng.standard_normal((2000, dim)))
            lengths = rng.uniform(0.0, np.pi - 0.01, size=(2000, 1))
            u = unitize(v) * lengths
            y = batch_exp(x, u)
            np.testing.assert_allclose(
                geodesic_distance(y, x), lengths[:, 0], atol=1e-9
            )
            np.testing.assert_allclose(batch_log(x, y), u, atol=1e-8)

    def test_tangency(self):
        rng = np.random.default_rng(7)
        x = random_points(rng, 5000, 5)
        y = random_points(rng, 5000, 5)
        inner = np.sum(x * batch_log(x, y), axis=1)
        assert np.max(np.abs(inner)) < 1e-10

    def test_metric_axioms(self):
        rng = np.random.default_rng(11)
        x, y, z = (random_points(rng, 3000, 4) for _ in range(3))
        dxy = geodesic_distance(x, y)
        assert np.array_equal(dxy, geodesic_distance(y, x))
        assert np.all(dxy >= 0.0)
        assert np.all(dxy <= np.pi)
        assert np.all(dxy <= geodesic_distance(x, z) + geodesic_distance(z, y) + 1e-12)

    def test_small_distance_matches_chord(self):
        rng = np.random.default_rng(13)
        x = random_points(rng, 200, 3)
        v = unitize(batch_project(x, rng.standard_normal((200, 3)))) * 1e-3
        y = batch_exp(x, v)
        ratio = geodesic_distance(x, y) / np.linalg.norm(x - y, axis=1)
        np.testing.assert_allclose(ratio, 1.0, atol=1e-4)


def old_unitize(v, axis=-1):
    """The np.linalg.norm form that :func:`unitize` writes out."""
    v = np.asarray(v, dtype=float)
    norms = np.linalg.norm(v, axis=axis, keepdims=True)
    if np.any(norms < 1e-8):
        raise ValueError("cannot normalize a near-zero vector")
    return v / norms


def old_batch_exp(base, v):
    """The np.linalg.norm / np.sinc form that :func:`batch_exp` writes out."""
    nv = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.cos(nv) * base + np.sinc(nv / np.pi) * v


class TestKernelsMatchLibraryForms:
    """unitize, batch_exp and _angles write out NumPy's norm, sinc and clip, and stay
    bit-identical."""

    @pytest.mark.parametrize(
        "base_shape, v_shape",
        [((4,), (4,)), ((7, 3), (7, 3)), ((5,), (9, 5)), ((2, 1, 4), (1, 6, 4)), ((0, 3), (0, 3))],
    )
    def test_batch_exp_bit_identical(self, base_shape, v_shape):
        rng = np.random.default_rng(67)
        base = rng.standard_normal(base_shape)
        base /= np.linalg.norm(base, axis=-1, keepdims=True)
        v = rng.standard_normal(v_shape) * rng.uniform(0.0, 4.0, v_shape[:-1] + (1,))
        if v.size:
            v.reshape(-1, v_shape[-1])[0] = 0.0  # a zero tangent vector
            v.reshape(-1, v_shape[-1])[-1] *= 1e-12
        got = batch_exp(base, v)
        assert np.array_equal(got, old_batch_exp(base, v))
        if v.size:
            first = np.broadcast_to(base, got.shape).reshape(-1, v_shape[-1])[0]
            assert np.array_equal(got.reshape(-1, v_shape[-1])[0], first)

    @pytest.mark.parametrize("shape, axis", [((5,), -1), ((40, 3), -1), ((40, 3), 0), ((2, 6, 4), 1), ((0, 3), -1)])
    def test_unitize_bit_identical(self, shape, axis):
        # unitize normalizes the last axis; coordinates held on another axis
        # are moved there first (a strided view), and the bits match the
        # library form along the original axis
        rng = np.random.default_rng(71)
        v = rng.standard_normal(shape) * rng.uniform(1e-6, 1e3, shape)
        ref = np.moveaxis(old_unitize(v, axis), axis, -1)
        assert np.array_equal(unitize(np.moveaxis(v, axis, -1)), ref)

    def test_angles_bit_identical_to_clip(self):
        # the clamp is np.clip's arithmetic, cosines rounded past +-1 included
        rng = np.random.default_rng(73)
        y = random_points(rng, 60, 4)
        x = np.vstack([y[:5], -y[5:10], random_points(rng, 5, 4), [[np.nan, 0.0, 0.0, 1.0]]])
        x[:10] *= 1.0 + 4e-16
        C, theta = _angles(x, y)
        ref = np.clip(x @ y.T, -1.0, 1.0)
        assert np.nanmax(np.abs(x @ y.T)) > 1.0
        assert C.tobytes() == ref.tobytes()
        assert theta.tobytes() == np.arccos(ref).tobytes()

    def test_unitize_floor_unchanged(self):
        v = np.array([[1.0, 0.0], [1e-9, 0.0]])
        for fn in (unitize, old_unitize):
            with pytest.raises(ValueError, match="near-zero"):
                fn(v)
