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
    _log_partition_moments,
    _log_sphere_area,
    _radial_cutoff,
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


def mpmath_grad_log_partition(p: int, lam: float) -> list:
    """Reference: derivatives 1-3 of log Z from 30-digit moments of r^2 under the
    radial law exp(-lam r^2 / 2) sin^(p-1) r on [0, pi].

    The integrals are split every half standard deviation 1 / (2 sqrt(lam)) up
    to 20 of them, so each piece is smooth enough for mpmath's Gauss-Legendre
    rule at any concentration.
    """
    import mpmath

    with mpmath.workdps(30):
        lam = mpmath.mpf(lam)
        step = 1 / (2 * mpmath.sqrt(lam))
        inner = [j * step for j in range(1, 41) if j * step < mpmath.pi]
        edges = [mpmath.mpf(0), *inner, mpmath.pi]

        def moment(k):
            return mpmath.quad(
                lambda r: r ** (2 * k) * mpmath.exp(-lam * r * r / 2) * mpmath.sin(r) ** (p - 1),
                edges,
                method="gauss-legendre",
            )

        m0, m1, m2, m3 = (moment(k) for k in range(4))
        e1, e2, e3 = m1 / m0, m2 / m0, m3 / m0
        central_3 = e3 - 3 * e1 * e2 + 2 * e1**3
        return [float(-e1 / 2), float((e2 - e1 * e1) / 4), float(-central_3 / 8)]


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

    def test_log_sphere_area_matches_mpmath(self):
        # log(2 pi^(p/2) / Gamma(p/2)) within 1e-14 (about 45 ulp of 1) of a
        # 30-digit reference, relative where the value exceeds 1 in size
        import mpmath

        with mpmath.workdps(30):
            for p in range(1, 51):
                half = mpmath.mpf(p) / 2
                ref = float(mpmath.log(2) + half * mpmath.log(mpmath.pi) - mpmath.loggamma(half))
                assert abs(_log_sphere_area(p) - ref) <= 1e-14 * max(1.0, abs(ref)), p

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

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-300, 2.0 * LAMBDA_MAX]
    )
    def test_public_entries_validate_concentration(self, bad):
        # the concentration solver's moments skip these checks; calls from
        # outside it keep them, with the range every model concentration obeys
        with pytest.raises(ValueError, match=r"concentration must be in \[0, 1e\+08\]"):
            log_partition(3, bad)
        with pytest.raises(ValueError, match=r"concentration must be in \[0, 1e\+08\]"):
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
        assert grad_log_partition(1, 10.0, order=3) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("p", [1, 2, 5, 20])
    def test_orders_match_mpmath(self, p):
        # exact moments on the quadrature nodes, so every order holds at the
        # relative accuracy of the quadrature itself, from nearly flat to
        # LAMBDA_MAX
        for lam in (1e-3, 1.0, 130.0, 1e4, 1e8):
            oracle = mpmath_grad_log_partition(p, lam)
            for order in (1, 2, 3):
                got = grad_log_partition(p, lam, order=order)
                assert got == pytest.approx(oracle[order - 1], rel=1e-12), (lam, order)

    def test_inputs_validated_before_the_nodes(self):
        # the quadrature nodes skip their input checks, so the dimension, the
        # concentration and the order are checked here
        with pytest.raises(ValueError, match="dimension"):
            grad_log_partition(0, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            grad_log_partition(1.5, 1.0)
        for bad in (float("nan"), float("inf"), -1e-3, 2.0 * LAMBDA_MAX):
            with pytest.raises(ValueError, match=r"concentration must be in \[0, 1e\+08\]"):
                grad_log_partition(2, bad)
        with pytest.raises(ValueError, match="order"):
            grad_log_partition(2, 1.0, order=4)


def reference_radial_moments(p, lams):
    """The moment pass written with a fresh array per step, as before it worked in place."""
    x, w = np.polynomial.legendre.leggauss(128)
    upper = _radial_cutoff(p, lams)[:, None]
    r = 0.5 * upper * (x + 1.0)
    log_f = -0.5 * lams[:, None] * r * r
    if p > 1:
        log_f = log_f + (p - 1) * np.log(np.sin(r))
    peak = log_f.max(axis=1)
    mass = 0.5 * upper * w * np.exp(log_f - peak[:, None])
    total = mass.sum(axis=1)
    r2 = r * r
    mean = (mass * r2).sum(axis=1) / total
    dev = r2 - mean[:, None]
    sq = mass * dev * dev
    return mean, sq.sum(axis=1) / total, (sq * dev).sum(axis=1) / total


@pytest.mark.parametrize("p", [1, 2, 3, 7, 50])
def test_radial_moments_equal_reference_bit_for_bit(p):
    lams = np.array([0.0, 1e-3, 0.7, 3.0, 47.5, 1e3, 2.5e5, 1e8])
    got, want = _log_partition_moments(p, lams)[1:], reference_radial_moments(p, lams)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("p", [1, 2, 3, 7, 50])
def test_one_pass_gives_log_partition_and_moments_bit_for_bit(p):
    # the E-step's pass hands its moments to the next concentration solve
    lams = np.array([0.0, 1e-3, 0.7, 3.0, 47.5, 1e3, 2.5e5, 1e8])
    log_z, *moments = _log_partition_moments(p, lams)
    np.testing.assert_array_equal(log_z, _log_partition_many(p, lams))
    for a, b in zip(moments, reference_radial_moments(p, lams)):
        np.testing.assert_array_equal(a, b)
    # and each row is the pass at that concentration alone
    for k, lam in enumerate(lams):
        for a, b in zip((log_z, *moments), _log_partition_moments(p, lams[k:k + 1])):
            assert a[k] == b[0]


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
