"""Spherical normal density, partition function, derivatives, and sampling."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import erf, gammaln

from snmix.distribution import (
    LAMBDA_MAX,
    SNParams,
    _log_partition_many,
    grad_log_partition,
    log_density,
    log_partition,
    sample,
)
from snmix.geometry import geodesic_distance, unitize


def closed_form_log_z1(lam: float) -> float:
    """Independent oracle for p=1: the radial integrand has no sine factor,
    so the partition function is a truncated Gaussian integral."""
    return math.log(math.sqrt(2.0 * math.pi / lam) * erf(math.pi * math.sqrt(lam / 2.0)))


def closed_form_dlog_z1(lam: float) -> float:
    """d/dlam of the p=1 closed form, differentiated by hand."""
    u = math.pi * math.sqrt(lam / 2.0)
    return -0.5 / lam + math.sqrt(math.pi / (2.0 * lam)) * math.exp(-(u * u)) / erf(u)


def sphere_hypervolume(p: int) -> float:
    return 2.0 * math.pi ** ((p + 1) / 2.0) / math.exp(gammaln((p + 1) / 2.0))


def scalar_call_grad_log_partition(p: int, lam: float, order: int) -> float:
    """Reference: the stencil of ``grad_log_partition`` built from one scalar
    ``log_partition`` call per node, at the default step."""
    h = 1e-4 * max(1.0, lam)

    def f(t: float) -> float:
        return log_partition(p, t)

    if order == 1:
        return (f(lam + h) - f(lam - h)) / (2.0 * h)
    if order == 2:
        return (f(lam + h) - 2.0 * f(lam) + f(lam - h)) / (h * h)
    return (f(lam + 2 * h) - 2 * f(lam + h) + 2 * f(lam - h) - f(lam - 2 * h)) / (2.0 * h**3)


class TestLogPartition:
    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            log_partition(2, 1.0, order=1)

    def test_uniform_on_s2(self):
        assert log_partition(2, 0.0) == pytest.approx(math.log(4.0 * math.pi), abs=1e-12)

    def test_p1_closed_form(self):
        for lam in (0.5, 1.0, 5.0, 10.0, 50.0):
            assert log_partition(1, lam) == pytest.approx(closed_form_log_z1(lam), abs=1e-10)

    def test_self_convergence_reference_order(self):
        assert log_partition(5, 10.0) == pytest.approx(log_partition(5, 10.0, order=4096), abs=1e-10)

    def test_self_convergence_across_lambda(self):
        for p in (1, 2, 5, 10, 20):
            for lam in (0.0, 1.0, 100.0, 1e4):
                a = log_partition(p, lam, order=128)
                b = log_partition(p, lam, order=4096)
                assert abs(a - b) < 1e-10, (p, lam)

    def test_hypervolume_at_zero(self):
        for p in range(1, 7):
            assert log_partition(p, 0.0) == pytest.approx(math.log(sphere_hypervolume(p)), abs=1e-9)

    def test_strictly_decreasing_in_lambda(self):
        for p in (1, 3, 7):
            values = [log_partition(p, lam) for lam in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0, 1e4)]
            assert np.all(np.diff(values) < 0.0)

    def test_batched_rows_equal_scalar_calls(self):
        lams = [0.0, 1e-3, 1.0, 130.0, 1e4, 1e8]
        for p in (1, 2, 5, 20):
            assert list(_log_partition_many(p, lams)) == [log_partition(p, lam) for lam in lams]

    def test_extreme_concentration_is_finite(self):
        assert math.isfinite(log_partition(2, LAMBDA_MAX))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            log_partition(0, 1.0)
        with pytest.raises(ValueError):
            log_partition(2, float("nan"))
        with pytest.raises(ValueError):
            log_partition(2, -1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-300])
    def test_public_entries_validate_concentration(self, bad):
        # the concentration solver's stencil skips these checks; calls from
        # outside it keep them
        with pytest.raises(ValueError, match="finite and non-negative"):
            log_partition(3, bad)
        with pytest.raises(ValueError, match="finite and non-negative"):
            _log_partition_many(3, [1.0, bad])

    def test_uniform_cutoff_has_no_warning(self):
        # lam = 0 takes the whole half-turn; the 1/sqrt(0) there raises no
        # floating-point warning, alone or next to positive concentrations
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _log_partition_many(4, [0.0, 2.0])
            assert math.isfinite(log_partition(4, 0.0)) and np.all(np.isfinite(values))
            assert values[0] == log_partition(4, 0.0)


class TestLogDensity:
    def test_at_the_mode(self):
        params = SNParams(np.array([0.0, 0.0, 1.0]), 7.0)
        assert log_density(params.mu.coords, params) == pytest.approx(
            -log_partition(2, 7.0), abs=1e-12
        )

    def test_uniform_limit(self):
        params = SNParams(np.array([0.0, 0.0, 1.0]), 0.0)
        x = unitize(np.array([1.0, 2.0, -0.5]))
        assert log_density(x, params) == pytest.approx(-math.log(4.0 * math.pi), abs=1e-12)

    def test_monte_carlo_normalization(self):
        # integral of the density over S^2 estimated from uniform draws
        rng = np.random.default_rng(21)
        params = SNParams(np.array([0.0, 0.0, 1.0]), 5.0)
        x = unitize(rng.standard_normal((1_000_000, 3)))
        values = np.exp(log_density(x, params)) * (4.0 * math.pi)
        stderr = float(values.std(ddof=1)) / math.sqrt(len(values))
        assert abs(float(values.mean()) - 1.0) < 3.0 * stderr


class TestGradLogPartition:
    def test_first_derivative_p1(self):
        got = grad_log_partition(1, 10.0, order=1)
        assert got == pytest.approx(closed_form_dlog_z1(10.0), abs=1e-6)

    def test_flat_limit_matches_uniform_moment(self):
        # at lam -> 0+ the derivative is -E[r^2/2] under the uniform law
        p = 2
        num, _ = integrate.quad(lambda r: (r * r / 2.0) * math.sin(r), 0.0, math.pi)
        den, _ = integrate.quad(math.sin, 0.0, math.pi)
        got = grad_log_partition(p, 1e-3, order=1)
        assert got == pytest.approx(-num / den, abs=5e-3)

    def test_second_derivative_p1(self):
        import mpmath

        mpmath.mp.dps = 40
        f = lambda t: mpmath.log(mpmath.sqrt(2 * mpmath.pi / t) * mpmath.erf(mpmath.pi * mpmath.sqrt(t / 2)))
        oracle = float(mpmath.diff(f, mpmath.mpf(10), 2))
        assert grad_log_partition(1, 10.0, order=2) == pytest.approx(oracle, abs=1e-4)

    def test_third_derivative_consistent(self):
        import mpmath

        mpmath.mp.dps = 40
        f = lambda t: mpmath.log(mpmath.sqrt(2 * mpmath.pi / t) * mpmath.erf(mpmath.pi * mpmath.sqrt(t / 2)))
        oracle = float(mpmath.diff(f, mpmath.mpf(10), 3))
        assert grad_log_partition(1, 10.0, order=3, h=0.05) == pytest.approx(oracle, rel=1e-2)

    def test_one_call_stencil_equals_scalar_calls(self):
        for p in (1, 2, 3, 5, 10, 20):
            for lam in np.logspace(-2.0, 7.0, 60):
                for order in (1, 2, 3):
                    got = grad_log_partition(p, float(lam), order=order)
                    assert got == scalar_call_grad_log_partition(p, float(lam), order), (p, lam, order)

    def test_stencil_guard(self):
        with pytest.raises(ValueError, match="shrink h"):
            grad_log_partition(2, 1e-5, order=1)
        with pytest.raises(ValueError):
            grad_log_partition(2, 1.0, order=4)

    def test_stencil_inputs_validated_before_the_nodes(self):
        # the stencil's log partition calls skip their input checks, so the
        # dimension and the step are checked here
        with pytest.raises(ValueError, match="dimension"):
            grad_log_partition(0, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            grad_log_partition(1.5, 1.0)
        for h in (float("nan"), 0.0, -1e-3):
            with pytest.raises(ValueError, match="h must be positive"):
                grad_log_partition(2, 1.0, h=h)
        with pytest.raises(ValueError, match="shrink h"):
            grad_log_partition(2, 1.0, h=float("inf"))


class TestSampler:
    def test_concentration_limit(self):
        params = SNParams(np.array([0.0, 0.0, 1.0]), 1e6)
        x = sample(params, 500, 0)
        assert np.max(geodesic_distance(x, params.mu)) < 0.01

    def test_mean_direction(self):
        params = SNParams(unitize(np.array([1.0, -2.0, 0.5])), 20.0)
        x = sample(params, 100_000, 5)
        mean_dir = unitize(x.mean(axis=0))
        assert geodesic_distance(mean_dir, params.mu) < 0.02

    def test_moment_matches_partition_derivative(self):
        mu = np.zeros(6)
        mu[-1] = 1.0
        params = SNParams(mu, 10.0)
        x = sample(params, 100_000, 42)
        emp = float(np.mean(0.5 * np.square(geodesic_distance(x, params.mu))))
        oracle = -grad_log_partition(5, 10.0, order=1)
        assert abs(emp - oracle) / oracle < 0.01

    def test_radial_goodness_of_fit(self):
        p, lam = 3, 20.0
        mu = np.zeros(p + 1)
        mu[0] = 1.0
        params = SNParams(mu, lam)
        radii = geodesic_distance(sample(params, 100_000, 99), mu)

        def radial(r):
            return math.exp(-0.5 * lam * r * r) * math.sin(r) ** (p - 1)

        total, _ = integrate.quad(radial, 0.0, math.pi)
        edges = np.linspace(0.0, float(radii.max()) * 1.0001, 51)
        probs = np.array(
            [integrate.quad(radial, a, b)[0] for a, b in zip(edges[:-1], edges[1:])]
        ) / total
        counts, _ = np.histogram(radii, bins=edges)
        chi2 = float(np.sum((counts - probs * len(radii)) ** 2 / (probs * len(radii))))
        assert chi2 < stats.chi2.ppf(0.999, len(probs) - 1)

    def test_deterministic_given_seed(self):
        params = SNParams(np.array([0.0, 1.0, 0.0]), 3.0)
        np.testing.assert_array_equal(sample(params, 50, 7), sample(params, 50, 7))

    def test_rows_are_unit(self):
        params = SNParams(np.array([0.0, 1.0, 0.0, 0.0]), 2.5)
        x = sample(params, 1000, 1)
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)

    def test_p1_sampling(self):
        # on the circle the tangent direction is a fair coin
        params = SNParams(np.array([1.0, 0.0]), 50.0)
        x = sample(params, 4000, 3)
        signs = np.sign(x[:, 1])
        assert abs(signs.mean()) < 0.05

    def test_rejects_empty_request(self):
        with pytest.raises(ValueError):
            sample(SNParams(np.array([1.0, 0.0]), 1.0), 0, 0)


class TestSNParams:
    def test_rejects_out_of_range_concentration(self):
        with pytest.raises(ValueError):
            SNParams(np.array([1.0, 0.0]), -0.5)
        with pytest.raises(ValueError):
            SNParams(np.array([1.0, 0.0]), 2.0 * LAMBDA_MAX)
        with pytest.raises(ValueError):
            SNParams(np.array([1.0, 0.0]), float("inf"))

    def test_uniform_limit_allowed(self):
        assert SNParams(np.array([1.0, 0.0]), 0.0).lam == 0.0
