"""Location and concentration maximum likelihood estimation."""

import math

import numpy as np
import pytest

from snmix.distribution import SNParams, grad_log_partition, log_partition, sample
from snmix.estimation import (
    MAX_DISPERSION,
    ConcentrationConfig,
    FrechetConfig,
    MLEResult,
    _concentration,
    _concentration_columns,
    _dispersions,
    _frechet,
    _frechet_columns,
    _log_factor,
    concentration_mle,
    concentration_objective,
    fit_sn,
    weighted_frechet_mean,
)
from snmix.geometry import batch_exp, batch_log, batch_project, geodesic_distance, unitize
from snmix.mixture import MixtureModel, log_likelihood

from test_distribution import closed_form_dlog_z1


def frechet_value(points, weights, mu):
    w = np.asarray(weights, float)
    w = w / w.sum()
    return float(np.sum(w * np.square(geodesic_distance(points, mu))))


class TestWeightedFrechetMean:
    def test_single_point(self):
        x = unitize(np.array([1.0, 2.0, 2.0]))
        out = weighted_frechet_mean(x[None, :], [1.0])
        np.testing.assert_allclose(out.coords, x, atol=1e-12)

    def test_two_point_midpoint(self):
        rng = np.random.default_rng(3)
        x = unitize(rng.standard_normal(4))
        v = unitize(batch_project(x, rng.standard_normal(4))) * 1.1  # d(x, y) < pi/2
        y = batch_exp(x, v)
        midpoint = batch_exp(x, 0.5 * batch_log(x, y))
        out = weighted_frechet_mean(np.stack([x, y]), [0.5, 0.5])
        np.testing.assert_allclose(out.coords, midpoint, atol=1e-7)
        # the midpoint beats every other candidate along the geodesic
        f_mid = frechet_value(np.stack([x, y]), [1, 1], midpoint)
        for t in np.linspace(0.05, 0.95, 19):
            if abs(t - 0.5) < 1e-9:
                continue
            cand = batch_exp(x, t * batch_log(x, y))
            assert frechet_value(np.stack([x, y]), [1, 1], cand) > f_mid

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(8)
        pts = unitize(rng.standard_normal((20, 3)) + np.array([4.0, 0.0, 0.0]))
        w = rng.uniform(0.1, 2.0, 20)
        a = weighted_frechet_mean(pts, w)
        b = weighted_frechet_mean(pts, 10.0 * w)
        # rescaling perturbs the renormalized weights only in the last ulp
        np.testing.assert_allclose(a.coords, b.coords, atol=1e-9)

    def test_all_zero_weights_rejected(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="weights"):
            weighted_frechet_mean(pts, [0.0, 0.0])

    def test_antipodal_initialization_rejected(self):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="ill-posed"):
            weighted_frechet_mean(pts, [0.5, 0.5])

    def test_max_iter_flagged_not_raised(self):
        rng = np.random.default_rng(5)
        pts = unitize(rng.standard_normal((50, 4)) + np.array([3.0, 0, 0, 0]))
        w = np.full(50, 0.02)
        _, iterations, converged = _frechet(pts, w, FrechetConfig(max_iter=2))
        assert iterations == 2 and not converged

    def test_gradient_matches_finite_differences(self):
        # Riemannian gradient of the objective vs central differences along
        # random geodesic directions
        rng = np.random.default_rng(17)
        pts = unitize(rng.standard_normal((30, 4)) + np.array([2.5, 0, 0, 0]))
        w = rng.uniform(0.2, 1.0, 30)
        w /= w.sum()
        mu = unitize(rng.standard_normal(4) + np.array([2.0, 0, 0, 0]))
        grad = -2.0 * (w @ batch_log(mu, pts))
        t = 1e-5
        for _ in range(5):
            direction = unitize(batch_project(mu, rng.standard_normal(4)))
            fd = (
                frechet_value(pts, w, batch_exp(mu, t * direction))
                - frechet_value(pts, w, batch_exp(mu, -t * direction))
            ) / (2.0 * t)
            assert fd == pytest.approx(float(grad @ direction), rel=1e-5, abs=1e-8)

    def test_descent_under_line_search(self):
        rng = np.random.default_rng(23)
        pts = unitize(rng.standard_normal((40, 5)))  # widely spread data
        w = np.full(40, 1.0 / 40)
        cfg = FrechetConfig(step_rule="line_search")
        mu = unitize(w @ pts)
        values = [frechet_value(pts, w, mu)]
        for _ in range(30):
            mean_log = w @ batch_log(mu, pts)
            grad_norm = 2.0 * float(np.linalg.norm(mean_log))
            if grad_norm < cfg.epsilon:
                break
            from snmix.estimation import _armijo_columns

            nxt, found = _armijo_columns(
                pts, w[:, None], mu[None, :], mean_log[None, :], np.array([grad_norm])
            )
            if not found[0]:
                break
            mu = nxt[0]
            values.append(frechet_value(pts, w, mu))
        assert np.all(np.diff(values) <= 0.0)

    @pytest.mark.parametrize("alpha", [0.25, 0.5])
    def test_descent_under_fixed_step_concentrated(self, alpha):
        # monotone decrease is only promised when the data sit well inside a
        # quarter-sphere; alpha = 0.5 is the 1/L step
        rng = np.random.default_rng(29)
        center = np.zeros(4)
        center[0] = 1.0
        pts = sample(SNParams(center, 60.0), 60, rng)
        assert np.max(geodesic_distance(pts, center)) < math.pi / 4
        w = np.full(60, 1.0 / 60)
        mu = unitize(w @ pts)
        values = [frechet_value(pts, w, mu)]
        for _ in range(50):
            mean_log = w @ batch_log(mu, pts)
            if 2.0 * np.linalg.norm(mean_log) < 1e-10:
                break
            mu = unitize(batch_exp(mu, 2.0 * alpha * mean_log))
            values.append(frechet_value(pts, w, mu))
        assert np.all(np.diff(values) <= 1e-15)

    def test_step_rules_agree(self):
        rng = np.random.default_rng(31)
        center = np.zeros(6)
        center[-1] = 1.0
        pts = sample(SNParams(center, 10.0), 150, rng)
        fixed = weighted_frechet_mean(pts, cfg=FrechetConfig(step_rule="fixed"))
        searched = weighted_frechet_mean(pts, cfg=FrechetConfig(step_rule="line_search"))
        assert np.max(np.abs(fixed.coords - searched.coords)) < 1e-6


class TestConcentrationObjective:
    def test_zero_dispersion_is_log_partition(self):
        lams = np.array([0.5, 1.0, 3.0, 9.0])
        values = [concentration_objective(lam, 0.0, 3) for lam in lams]
        assert np.all(np.diff(values) < 0.0)
        assert values[0] == pytest.approx(log_partition(3, 0.5), abs=1e-12)

    def test_p1_closed_form(self):
        from test_distribution import closed_form_log_z1

        got = concentration_objective(4.0, 0.3, 1)
        assert got == pytest.approx(0.3 * 4.0 + closed_form_log_z1(4.0), abs=1e-10)

    def test_fitted_point_is_a_local_minimum(self):
        dispersion = 0.21
        lam_star = concentration_mle(dispersion, 4)
        g_star = concentration_objective(lam_star, dispersion, 4)
        for delta in (0.1, 0.01):
            assert concentration_objective(lam_star + delta, dispersion, 4) > g_star
            assert concentration_objective(lam_star - delta, dispersion, 4) > g_star

    def test_rejects_out_of_range_dispersion(self):
        with pytest.raises(ValueError):
            concentration_objective(1.0, -0.1, 2)
        with pytest.raises(ValueError):
            concentration_objective(1.0, MAX_DISPERSION + 0.1, 2)


class TestConcentrationMLE:
    def test_p1_oracle(self):
        # stationarity: the dispersion implied by lam=10 must map back to 10
        dispersion = -closed_form_dlog_z1(10.0)
        assert concentration_mle(dispersion, 1) == pytest.approx(10.0, abs=1e-6)

    def test_newton_halley_agree(self):
        for dispersion, p in [(0.05, 1), (0.21, 4), (0.8, 2), (1.2, 10)]:
            newton = concentration_mle(dispersion, p, ConcentrationConfig(method="newton"))
            halley = concentration_mle(dispersion, p, ConcentrationConfig(method="halley"))
            assert abs(newton - halley) < 1e-6

    def test_monotone_decreasing_in_dispersion(self):
        values = [concentration_mle(c, 3) for c in np.linspace(0.05, 1.0, 12)]
        assert np.all(np.diff(values) < 0.0)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError, match="degenerate sample"):
            concentration_mle(0.0, 3)

    @pytest.mark.parametrize("method", ["newton", "halley"])
    @pytest.mark.parametrize("p", [1, 3, 10])
    def test_large_concentration_converges(self, method, p):
        # the step test is relative, so finite-difference noise at large lam
        # cannot keep the iteration from stopping
        for lam in (1e3, 1e4, 1e6):
            dispersion = -grad_log_partition(p, lam)
            got, iterations, converged = _concentration(
                dispersion, p, ConcentrationConfig(method=method)
            )
            assert converged and iterations < 20
            assert got == pytest.approx(lam, rel=1e-6)

    def test_excess_dispersion_rejected(self):
        with pytest.raises(ValueError):
            concentration_mle(MAX_DISPERSION, 3)

    def test_bad_dispersion_or_dimension_rejected(self):
        # checked once before the solve, whose stencil nodes are not re-validated
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                concentration_mle(bad, 3)
        for p in (0, 2.0):
            with pytest.raises(ValueError, match="dimension"):
                concentration_mle(0.2, p)

    def test_simulated_accuracy(self):
        # p=5, lam=10, n=200: relative error stays in the few-percent range
        mu = np.zeros(6)
        mu[-1] = 1.0
        errors = []
        for rep in range(20):
            x = sample(SNParams(mu, 10.0), 200, np.random.default_rng(rep))
            errors.append(abs(fit_sn(x).params.lam - 10.0) / 10.0)
        assert np.median(errors) < 0.10


class TestFitSN:
    def test_identical_points_degenerate(self):
        x = unitize(np.array([1.0, 1.0, 0.0]))
        pts = np.tile(x, (10, 1))
        np.testing.assert_allclose(
            weighted_frechet_mean(pts).coords, x, atol=1e-12
        )
        with pytest.raises(ValueError, match="degenerate sample"):
            fit_sn(pts)

    def test_explicit_uniform_weights_bit_identical(self):
        rng = np.random.default_rng(37)
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 8.0), 64, rng)
        a = fit_sn(pts)
        b = fit_sn(pts, weights=np.full(64, 1.0 / 64))
        assert np.array_equal(a.params.mu.coords, b.params.mu.coords)
        assert a.params.lam == b.params.lam

    def test_dispersion_ordering_across_groups(self):
        # two synthetic groups with the published concentrations keep their
        # ordering after a fresh fit
        rng = np.random.default_rng(41)
        tight_mu = unitize(np.array([0.954, 0.266, 0.135]))
        spread_mu = unitize(np.array([0.643, 0.407, 0.648]))
        tight = fit_sn(sample(SNParams(tight_mu, 95.743), 200, rng))
        spread = fit_sn(sample(SNParams(spread_mu, 19.638), 200, rng))
        assert tight.params.lam > spread.params.lam

    def test_loglik_improves_over_initialization(self):
        rng = np.random.default_rng(43)
        pts = sample(SNParams(np.array([0.0, 0.0, 0.0, 1.0]), 6.0), 120, rng)
        res = fit_sn(pts)
        mu0 = unitize(pts.mean(axis=0))
        d2 = np.square(geodesic_distance(pts, mu0))
        lam0 = 3 / (2.0 * (0.5 * float(d2.mean())))

        def loglik(mu, lam):
            model = MixtureModel((SNParams(mu, lam),), np.array([1.0]))
            return log_likelihood(pts, model)

        assert loglik(res.params.mu.coords, res.params.lam) >= loglik(mu0, lam0)

    def test_result_fields(self):
        rng = np.random.default_rng(47)
        pts = sample(SNParams(np.array([0.0, 1.0, 0.0]), 25.0), 80, rng)
        res = fit_sn(pts)
        assert isinstance(res, MLEResult)
        assert 0.0 <= res.dispersion <= MAX_DISPERSION
        assert res.converged and res.support_ok
        assert res.iterations_mu >= 1 and res.iterations_lambda >= 1

    def test_support_flag_reports_wide_data(self):
        rng = np.random.default_rng(53)
        pts = unitize(rng.standard_normal((300, 3)) + np.array([0.8, 0.0, 0.0]))
        res = fit_sn(pts)
        assert not res.support_ok  # wide support is flagged, not rejected


class TestColumnSolvers:
    """The column-batched solvers agree with one single-column solve per column."""

    # The line search runs to max_iter: its last steps before the gradient
    # test compare decreases near 1e-16, where a matrix product and a
    # matrix-vector product round differently, so there a column and its
    # single solve may stop a few iterations apart.
    @pytest.mark.parametrize(
        "cfg",
        [FrechetConfig(), FrechetConfig(step_rule="line_search", max_iter=25)],
        ids=["fixed", "line_search"],
    )
    def test_frechet_columns_match_single_solves(self, cfg):
        rng = np.random.default_rng(59)
        centers = unitize(rng.standard_normal((3, 4)))
        pts = np.vstack([sample(SNParams(c, 15.0), 40, rng) for c in centers])
        # columns 0-2 each lean on one cluster, column 3 spreads over all of
        # them, column 4 is a single point and stops at the first iteration,
        # and row 7 has no weight anywhere
        W = rng.uniform(0.0, 1.0, (len(pts), 5))
        W[:, :3] *= np.where(np.eye(3), 1.0, 1e-3).repeat(40, axis=0)
        W[:, 4] = 0.0
        W[5, 4] = 1.0
        W[7] = 0.0
        W /= W.sum(axis=0)
        mus, iterations, converged = _frechet_columns(pts, W, cfg)
        assert iterations[4] == 1 and converged[4] and iterations.max() > 1
        for k in range(W.shape[1]):
            mu, it, conv = _frechet(pts, W[:, k], cfg)
            np.testing.assert_allclose(mus[k], mu, rtol=0.0, atol=1e-12)
            assert (iterations[k], converged[k]) == (it, conv)

    @pytest.mark.parametrize("seed", range(6))
    def test_frechet_columns_match_single_solves_random_weights(self, seed):
        # a seeded random (N, K) weight matrix, some rows and a column mostly
        # empty, over data inside a cap around one pole
        rng = np.random.default_rng([73, seed])
        p, k, n = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(5, 80))
        pole = unitize(rng.standard_normal(p + 1))
        pts = sample(SNParams(pole, float(rng.uniform(2.0, 40.0))), n, rng)
        pts = pts[pts @ pole > 0.0]
        W = rng.uniform(0.0, 1.0, (len(pts), k)) ** rng.uniform(0.5, 4.0, k)
        W[rng.random(len(pts)) < 0.1] = 0.0
        W[rng.random(len(pts)) < 0.9, k - 1] = 0.0
        W[0] = 0.2  # every column keeps some weight
        W /= W.sum(axis=0)
        mus, iterations, converged = _frechet_columns(pts, W, FrechetConfig())
        for j in range(k):
            mu, it, conv = _frechet(pts, W[:, j], FrechetConfig())
            np.testing.assert_allclose(mus[j], mu, rtol=0.0, atol=1e-10)
            assert (iterations[j], converged[j]) == (it, conv)

    def test_log_factor_from_the_cosine(self):
        # theta / sin(theta) with sin(theta) = sqrt((1 - C)(1 + C)) agrees with
        # the np.sin form within 4 ulp wherever that form is itself accurate
        # (C >= -1/2), and with a 50-digit reference over the whole grid: near
        # C = -1 the np.sin form loses digits, since sin(theta) there is small
        # and theta carries an absolute rounding error of ulp(pi)
        import mpmath

        near = np.logspace(-16, -12, 9)
        C = np.unique(np.concatenate([np.linspace(-1.0, 1.0, 801)[1:], 1.0 - near, -1.0 + near]))
        theta = np.arccos(C)
        got = _log_factor(C, theta)
        assert got[C == 1.0] == 1.0 and np.all(got >= 1.0)
        mid = C >= -0.5
        ref = np.divide(theta, np.sin(theta), out=np.ones_like(theta), where=theta > 0.0)
        assert np.all(np.abs(got - ref)[mid] <= 4.0 * np.spacing(ref[mid]))
        with mpmath.workdps(50):
            exact = np.array([1.0 if c == 1.0 else float(mpmath.acos(c) / mpmath.sqrt(1 - mpmath.mpf(c) ** 2))
                              for c in C])
        assert np.all(np.abs(got - exact) <= 4.0 * np.spacing(exact))

    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_concentration_columns_match_single_solves(self, method):
        cfg = ConcentrationConfig(method=method)
        dispersions = np.array([0.05, 0.21, 0.8, 1.2, 1e-5])
        for p in (1, 4):
            lams, iterations, converged = _concentration_columns(dispersions, p, cfg)
            assert iterations.min() < iterations.max()
            for k, dispersion in enumerate(dispersions):
                lam, it, conv = _concentration(dispersion, p, cfg)
                assert lams[k] == pytest.approx(lam, rel=1e-12)
                assert (iterations[k], converged[k]) == (it, conv)

    def test_dispersions_match_geodesic_distances(self):
        rng = np.random.default_rng(61)
        pts = unitize(rng.standard_normal((50, 4)))
        mus = unitize(rng.standard_normal((3, 4)))
        W = rng.uniform(0.0, 1.0, (50, 3))
        W[9] = 0.0
        W[:, 2] = 0.0
        W[4, 2] = 1.0  # a one-point column
        got = _dispersions(pts, W, mus)
        for k in range(3):
            ref = 0.5 * np.sum(W[:, k] * np.square(geodesic_distance(pts, mus[k])))
            assert got[k] == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestConsistencyTrend:
    def test_errors_shrink_with_sample_size(self):
        from snmix import simulate

        rows = simulate.estimation_benchmark(
            dims=[5], lambdas=[10.0], sizes=[50, 100, 150, 200], reps=20, seed=0
        )
        mu_err = [r["err_mu_fixed"] for r in rows]
        lam_err = [r["relerr_lambda_newton"] for r in rows]
        assert np.all(np.diff(mu_err) < 0.0)
        assert lam_err[-1] < lam_err[0]
