"""Location and concentration maximum likelihood estimation."""

import math

import numpy as np
import pytest

from snmix.distribution import (
    LAMBDA_MAX,
    SNParams,
    _log_partition_moments,
    grad_log_partition,
    log_partition,
    sample,
)
from snmix.estimation import (
    MAX_DISPERSION,
    ConcentrationConfig,
    FrechetConfig,
    MLEResult,
    _armijo_columns,
    _bb_trial,
    _concentration,
    _concentration_columns,
    _dispersions,
    _frechet,
    _frechet_columns,
    _log_factor,
    _uniform_dispersion,
    concentration_mle,
    concentration_objective,
    fit_sn,
    weighted_frechet_mean,
)
from snmix.geometry import _angles, batch_exp, batch_log, batch_project, geodesic_distance, unitize
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

    @pytest.mark.parametrize("call", [weighted_frechet_mean, fit_sn], ids=["frechet", "fit_sn"])
    def test_two_dimensional_weights_rejected(self, call):
        # only 1-D weights are accepted, with the estimator's own message
        pts = sample(SNParams(np.array([0.0, 0.0, 1.0]), 10.0), 20, 0)
        with pytest.raises(ValueError, match="weights must be a 1-D array"):
            call(pts, np.ones((20, 1)))

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
        theta = _angles(mu[None, :], pts)[1]
        prev = alpha = None
        for _ in range(30):
            mean_log = (w @ batch_log(mu, pts))[None, :]
            grad_norm = 2.0 * np.linalg.norm(mean_log, axis=1)
            if grad_norm[0] < cfg.epsilon:
                break
            alpha = _bb_trial(mu[None, :], mean_log, prev, alpha)
            nxt, _, theta, alpha = _armijo_columns(
                pts, w[None, :], mu[None, :], mean_log, grad_norm, theta, alpha
            )
            # the carried angles are those of the accepted point
            np.testing.assert_array_equal(theta, _angles(nxt, pts)[1])
            prev, mu = mean_log, nxt[0]
            values.append(frechet_value(pts, w, mu))
        assert len(values) > 2 and np.all(np.diff(values) <= 0.0)

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
            model = MixtureModel([mu], [lam], [1.0])
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


def three_cluster_weights():
    """Three lambda = 15 clusters of 40 points on S^3 and a (5, 120) weight matrix:
    components 0-2 each lean on one cluster, component 3 spreads over all of
    them, component 4 is a single point, and point 7 has no weight anywhere."""
    rng = np.random.default_rng(59)
    centers = unitize(rng.standard_normal((3, 4)))
    pts = np.vstack([sample(SNParams(c, 15.0), 40, rng) for c in centers])
    W = rng.uniform(0.0, 1.0, (5, len(pts)))
    W[:3] *= np.where(np.eye(3), 1.0, 1e-3).repeat(40, axis=1)
    W[4] = 0.0
    W[4, 5] = 1.0
    W[:, 7] = 0.0
    W /= W.sum(axis=1, keepdims=True)
    return pts, W


class TestColumnSolvers:
    """The column-batched solvers agree with one single-column solve per column."""

    @pytest.mark.parametrize(
        "cfg",
        [FrechetConfig(), FrechetConfig(step_rule="line_search")],
        ids=["fixed", "line_search"],
    )
    def test_frechet_columns_match_single_solves(self, cfg):
        pts, W = three_cluster_weights()
        mus, iterations, converged = _frechet_columns(pts, W, cfg)
        # component 4 is a single point and stops at the first iteration
        assert iterations[4] == 1 and converged[4] and iterations.max() > 1
        for k in range(W.shape[0]):
            mu, it, conv = _frechet(pts, W[k], cfg)
            np.testing.assert_allclose(mus[k], mu, rtol=0.0, atol=1e-12)
            assert (iterations[k], converged[k]) == (it, conv)

    def test_line_search_no_slower_than_fixed_step(self):
        # the Barzilai-Borwein first trial does not overshoot on concentrated
        # columns, where a first trial of twice the Karcher step oscillates
        # for hundreds of iterations, and beats the fixed step on diffuse data
        search = FrechetConfig(step_rule="line_search")
        pts, W = three_cluster_weights()
        _, fixed_it, _ = _frechet_columns(pts, W, FrechetConfig())
        _, search_it, converged = _frechet_columns(pts, W, search)
        assert converged.all()
        assert np.all(search_it <= fixed_it), (search_it, fixed_it)
        pole = np.zeros(21)
        pole[-1] = 1.0
        x = sample(SNParams(pole, 1.0), 200, np.random.default_rng(3))
        w = np.full(200, 1.0 / 200)
        _, fixed_it, _ = _frechet(x, w, FrechetConfig())
        _, search_it, converged = _frechet(x, w, search)
        assert converged and search_it <= fixed_it, (search_it, fixed_it)

    def test_armijo_columns_match_single_columns(self):
        # one column passes its first trial and one must halve from 1e3, so
        # the accepted points, angles and steps are gathered column by column
        rng = np.random.default_rng(97)
        pts = unitize(rng.standard_normal((60, 4)) + np.array([1.5, 0.0, 0.0, 0.0]))
        W = rng.uniform(0.1, 1.0, (2, 60))
        W /= W.sum(axis=1, keepdims=True)
        mus = unitize(pts[:2] + 0.3)
        C, theta = _angles(mus, pts)
        F = W * _log_factor(C, theta)
        G = F @ pts
        mean_log = G - (G * mus).sum(axis=1)[:, None] * mus
        grad_norm = 2.0 * np.linalg.norm(mean_log, axis=1)
        alpha = np.array([0.5, 1e3])
        new, C_new, theta_new, step = _armijo_columns(
            pts, W, mus, mean_log, grad_norm, theta, alpha
        )
        assert step[0] == 0.5 and 0.5 < step[1] < 1e3
        np.testing.assert_allclose(theta_new, _angles(new, pts)[1], rtol=0.0, atol=1e-15)
        for k in range(2):
            one = _armijo_columns(pts, W[k:k + 1], mus[k:k + 1], mean_log[k:k + 1],
                                  grad_norm[k:k + 1], theta[k:k + 1], alpha[k:k + 1])
            np.testing.assert_allclose(new[k], one[0][0], rtol=0.0, atol=1e-15)
            assert step[k] == one[3][0]

    def test_armijo_gives_up_with_the_karcher_step(self):
        # a column none of whose halvings passes takes the 1/L (Karcher) step
        # of the fixed rule, with that point's angles. Near the minimum the
        # Armijo decrease can fall below the rounding of the dispersion; here
        # every halving fails because the gradient norm passed in overstates
        # the true one (about 1e-6) by a million
        rng = np.random.default_rng(5)
        pts = unitize(rng.standard_normal((40, 4)) + np.array([2.0, 0.0, 0.0, 0.0]))
        w = np.full((1, 40), 1.0 / 40)
        mu, _, _ = _frechet(pts, w[0], FrechetConfig())
        mu = unitize(batch_exp(mu, np.array([0.0, 3e-7, -2e-7, 4e-7])))[None, :]
        C, theta = _angles(mu, pts)
        G = (w * _log_factor(C, theta)) @ pts
        mean_log = G - (G * mu).sum(axis=1)[:, None] * mu
        new, C_new, theta_new, step = _armijo_columns(pts, w, mu, mean_log, np.array([1.0]),
                                                      theta, np.array([0.5]))
        assert step[0] == 0.5 and np.any(new != mu)
        np.testing.assert_array_equal(new, unitize(batch_exp(mu, mean_log)))
        np.testing.assert_array_equal(C_new, _angles(new, pts)[0])
        np.testing.assert_array_equal(theta_new, _angles(new, pts)[1])

    def test_line_search_converges_at_the_rounding_floor(self):
        # the fit-sweep benchmark cell (p 20, lam 5, n 50) of seed 3, pass 120: a
        # gradient norm just above epsilon left the line search unable to move
        pole = np.zeros(21)
        pole[-1] = 1.0
        x = sample(SNParams(pole, 5.0), 50, np.random.default_rng([3, 120, 22]))
        w = np.full(50, 1.0 / 50)
        _, it_fixed, conv_fixed = _frechet(x, w, FrechetConfig())
        _, it_search, conv_search = _frechet(x, w, FrechetConfig(step_rule="line_search"))
        assert conv_fixed and conv_search and it_search <= it_fixed

    def test_one_arccos_per_trial_point(self, monkeypatch):
        # the line search computes each trial point's angles once and hands
        # the accepted ones to the next iterate: arccos sees the K starting
        # locations and then only the candidates of the search
        from snmix import estimation

        arccos_rows, trial_rows = [], []
        real_arccos, real_unitize = np.arccos, estimation.unitize

        def arccos(x, *args, **kwargs):
            arccos_rows.append(np.shape(x)[0])
            return real_arccos(x, *args, **kwargs)

        def unitize_(v, *args, **kwargs):
            trial_rows.append(np.shape(v)[0])
            return real_unitize(v, *args, **kwargs)

        monkeypatch.setattr(np, "arccos", arccos)
        monkeypatch.setattr(estimation, "unitize", unitize_)
        pts, W = three_cluster_weights()
        _, iterations, _ = _frechet_columns(pts, W, FrechetConfig(step_rule="line_search"))
        assert sum(trial_rows) >= iterations.sum() - W.shape[0]
        assert sum(arccos_rows) == W.shape[0] + sum(trial_rows)

    @pytest.mark.parametrize("seed", range(6))
    def test_frechet_columns_match_single_solves_random_weights(self, seed):
        # a seeded random (K, N) weight matrix, some points and a component
        # mostly empty, over data inside a cap around one pole
        rng = np.random.default_rng([73, seed])
        p, k, n = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(5, 80))
        pole = unitize(rng.standard_normal(p + 1))
        pts = sample(SNParams(pole, float(rng.uniform(2.0, 40.0))), n, rng)
        pts = pts[pts @ pole > 0.0]
        W = rng.uniform(0.0, 1.0, (k, len(pts))) ** rng.uniform(0.5, 4.0, (k, 1))
        W[:, rng.random(len(pts)) < 0.1] = 0.0
        W[k - 1, rng.random(len(pts)) < 0.9] = 0.0
        W[:, 0] = 0.2  # every component keeps some weight
        W /= W.sum(axis=1, keepdims=True)
        mus, iterations, converged = _frechet_columns(pts, W, FrechetConfig())
        for j in range(k):
            mu, it, conv = _frechet(pts, W[j], FrechetConfig())
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
        got = _log_factor(C.copy(), theta)  # the factor is written over the cosines
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

    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_iterations_stable_under_one_ulp(self, method):
        # the stop test sits far above the rounding of exact derivatives, so a
        # one-ulp change of a dispersion never changes an iteration count
        cfg = ConcentrationConfig(method=method)
        rng = np.random.default_rng(89)
        for p in (1, 2, 3, 5, 10, 20):
            lams = 10.0 ** rng.uniform(0.0, 4.0, 300)
            d = np.array([-grad_log_partition(p, lam) for lam in lams]) * rng.uniform(0.9, 1.1, 300)
            _, iterations, converged = _concentration_columns(d, p, cfg)
            _, iterations_up, _ = _concentration_columns(np.nextafter(d, np.inf), p, cfg)
            assert converged.all()
            np.testing.assert_array_equal(iterations_up, iterations, err_msg=f"p={p}")

    def test_dispersions_match_geodesic_distances(self):
        rng = np.random.default_rng(61)
        pts = unitize(rng.standard_normal((50, 4)))
        mus = unitize(rng.standard_normal((3, 4)))
        W = rng.uniform(0.0, 1.0, (3, 50))
        W[:, 9] = 0.0
        W[2] = 0.0
        W[2, 4] = 1.0  # a one-point component
        got = _dispersions(W, _angles(mus, pts)[1])
        for k in range(3):
            ref = 0.5 * np.sum(W[k] * np.square(geodesic_distance(pts, mus[k])))
            assert got[k] == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestWarmStarts:
    """A solve started from an earlier solve on nearby inputs reaches the cold answer in no
    more iterations, and a start it cannot use leaves the cold solve as it is."""

    def test_frechet_offsets_reach_the_cold_answer(self):
        cfg = FrechetConfig(epsilon=1e-11)  # both answers within 1e-9 of the exact mean
        pts, W = three_cluster_weights()
        offsets = np.zeros((W.shape[0], pts.shape[1]))
        first, _, _ = _frechet_columns(pts, W, cfg, offsets)
        # on return the offsets are the gaps to the normalized extrinsic means
        np.testing.assert_array_equal(offsets, first - unitize(W @ pts))
        # the next weights differ a little, as from one EM sweep to the next
        W2 = W * np.random.default_rng(97).uniform(0.9, 1.1, W.shape)
        W2 /= W2.sum(axis=1, keepdims=True)
        cold, cold_it, cold_conv = _frechet_columns(pts, W2, cfg)
        warm, warm_it, warm_conv = _frechet_columns(pts, W2, cfg, offsets)
        assert cold_conv.all() and warm_conv.all()
        np.testing.assert_allclose(warm, cold, rtol=0.0, atol=1e-9)
        assert np.all(warm_it <= cold_it) and warm_it.sum() < cold_it.sum(), (warm_it, cold_it)

    @pytest.mark.parametrize("step_rule", ["fixed", "line_search"])
    def test_zero_offsets_start_cold(self, step_rule):
        cfg = FrechetConfig(step_rule=step_rule)
        pts, W = three_cluster_weights()
        cold = _frechet_columns(pts, W, cfg)
        zero = _frechet_columns(pts, W, cfg, np.zeros((W.shape[0], pts.shape[1])))
        for a, b in zip(cold, zero):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_concentration_start_reaches_the_cold_root(self, method):
        # dispersions inside the uniform law's, whose moment match is a few steps off
        cfg = ConcentrationConfig(method=method)
        dispersions = np.array([0.3, 0.8, 1.2])
        for p in (2, 4, 10):
            start = _concentration_columns(dispersions, p, cfg)[0]
            nearby = dispersions * np.array([1.0001, 0.9999, 1.0002])
            cold, cold_it, _ = _concentration_columns(nearby, p, cfg)
            warm, warm_it, converged = _concentration_columns(nearby, p, cfg, start)
            assert converged.all()
            np.testing.assert_allclose(warm, cold, rtol=1e-12, atol=0.0)
            assert np.all(warm_it <= cold_it) and warm_it.sum() < cold_it.sum(), (warm_it, cold_it)

    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_concentration_start_out_of_range_is_moment_matched(self, method):
        # zero, negative, NaN and pinned (at least LAMBDA_MAX / 2) starts are not used
        cfg = ConcentrationConfig(method=method)
        dispersions = np.array([0.05, 0.21, 0.8, 1.2, 1e-9, 0.3])
        start = np.array([0.0, -2.0, np.nan, 0.5 * LAMBDA_MAX, LAMBDA_MAX, np.inf])
        for p in (1, 4):
            cold = _concentration_columns(dispersions, p, cfg)
            warm = _concentration_columns(dispersions, p, cfg, start)
            for a, b in zip(cold, warm):
                np.testing.assert_array_equal(a, b)


def radial_moments(p, lams):
    """(mean, variance, moment_3) of the radial law, without log Z."""
    return _log_partition_moments(p, lams)[1:]


def reference_concentration_columns(dispersions, p, cfg, start=None, moments=radial_moments):
    """The concentration solve with its updates vectorised over the entries, as before
    they ran per entry on Python floats (and before the lam = 0 boundary test)."""
    d = np.asarray(dispersions, dtype=float)
    halley = cfg.method == "halley"
    lams = np.minimum(p / (2.0 * d), 0.5 * LAMBDA_MAX)
    if start is not None:
        start = np.asarray(start, dtype=float)
        lams = np.where((start > 0.0) & (start < 0.5 * LAMBDA_MAX), start, lams)
    iterations = np.full(d.shape, 100)
    converged = np.zeros(d.shape, dtype=bool)
    active, lam, da = np.arange(d.size), lams.copy(), d
    for t in range(1, 101):
        mean, var, moment_3 = moments(p, lam)
        g1 = da - 0.5 * mean
        g2 = 0.25 * var
        usable = g2 > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            new = lam - g1 / g2
            if halley:
                denom = 2.0 * g2 * g2 + 0.125 * g1 * moment_3
                new = np.where(denom > 0.0, lam - 2.0 * g1 * g2 / denom, new)
        if not usable.all():
            new = np.where(usable, new, np.where(g1 < 0.0, 2.0 * lam, 0.5 * lam))
        new = np.where(new <= 0.0, 0.5 * lam, new)
        new = np.where(new > LAMBDA_MAX, 0.5 * (lam + LAMBDA_MAX), new)
        stop = np.abs(new - lam) < cfg.epsilon * np.maximum(1.0, lam)
        lam = new
        if stop.any():
            done = active[stop]
            iterations[done], converged[done], lams[done] = t, True, lam[stop]
            keep = ~stop
            active, lam, da = active[keep], lam[keep], da[keep]
            if active.size == 0:
                break
    lams[active] = lam
    return lams, iterations, converged


class TestScalarUpdates:
    """The per-entry updates on Python floats are the vectorised ones, bit for bit."""

    @pytest.mark.parametrize("method", ["newton", "halley"])
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 20])
    def test_match_the_vectorised_reference(self, method, p):
        rng = np.random.default_rng([101, p])
        cfg = ConcentrationConfig(method=method, epsilon=float(rng.choice([1e-8, 1e-11])))
        # concentrations from near the boundary to near LAMBDA_MAX, inside the uniform law
        lams = 10.0 ** rng.uniform(-2.0, 7.5, 60)
        d = np.array([-grad_log_partition(p, lam) for lam in lams]) * rng.uniform(0.8, 1.2, 60)
        d = np.minimum(d, 0.999 * _uniform_dispersion(p))
        d[:3] = p * np.array([1e-10, 3e-10, 1e-9])  # roots beyond LAMBDA_MAX
        bad = lams.copy()
        bad[::7] = [0.0, -1.0, np.nan, np.inf, 0.5 * LAMBDA_MAX, LAMBDA_MAX, -np.inf, 1e300, 0.0]
        starts = [None, np.full(60, 3.0), lams * rng.uniform(0.5, 2.0, 60), bad]
        for start in starts:
            got = _concentration_columns(d, p, cfg, start)
            want = reference_concentration_columns(d, p, cfg, start)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)
                assert a.dtype == b.dtype

    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_safeguards_match_the_reference(self, method, monkeypatch):
        # moments that no quadrature gives, so that every safeguard runs: a zero
        # variance, and a third moment that makes Halley's denominator negative
        import snmix.estimation as est

        def skewed(p, lams):
            log_z, mean, var, moment_3 = _log_partition_moments(p, lams)
            pick = np.floor(lams * 1e3) % 3
            var = np.where(pick == 0, 0.0, var)
            return log_z, mean, var, np.where(pick == 1, -1e9 * np.sign(moment_3), moment_3)

        monkeypatch.setattr(est, "_log_partition_moments", skewed)
        cfg = ConcentrationConfig(method=method)
        rng = np.random.default_rng(103)
        for p in (1, 3):
            d = rng.uniform(0.01, 0.99, 40) * _uniform_dispersion(p)
            for start in (None, 10.0 ** rng.uniform(-2.0, 4.0, 40)):
                got = _concentration_columns(d, p, cfg, start)
                want = reference_concentration_columns(d, p, cfg, start,
                                                       lambda p, lams: skewed(p, lams)[1:])
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a, b)

    def test_halley_is_the_default(self):
        assert ConcentrationConfig().method == "halley"


class TestStartMoments:
    """Moments of an earlier pass at the start stand in for the first iteration's pass."""

    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_moments_at_the_start_change_no_bit(self, method, monkeypatch):
        import snmix.estimation as est

        cfg = ConcentrationConfig(method=method)
        dispersions = np.array([0.3, 0.8, 1.2, 2.0])  # the last is on the boundary
        start = np.array([6.0, 1.5, 0.4, 0.3])
        passes = []
        original = est._log_partition_moments

        def counting(p, lams):
            passes.append(lams.size)
            return original(p, lams)

        monkeypatch.setattr(est, "_log_partition_moments", counting)
        for p in (2, 4):
            passes.clear()
            want = _concentration_columns(dispersions, p, cfg, start)
            first = len(passes)
            got = _concentration_columns(dispersions, p, cfg, start, original(p, start)[1:])
            assert len(passes) == 2 * first - 1  # the first pass is skipped
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_moments_ignored_where_a_start_is_out_of_range(self):
        # they belong to the start, which is not where every entry starts
        cfg = ConcentrationConfig()
        dispersions = np.array([0.3, 0.8])
        start = np.array([6.0, 0.0])
        junk = [np.full(2, 1.0), np.full(2, 2.0), np.full(2, 3.0)]
        want = _concentration_columns(dispersions, 3, cfg, start)
        got = _concentration_columns(dispersions, 3, cfg, start, junk)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestBoundary:
    """At or above the uniform law's dispersion the constrained root is lam = 0."""

    def test_uniform_dispersion(self):
        assert _uniform_dispersion(2) == pytest.approx((math.pi**2 - 4.0) / 4.0, rel=1e-12)
        assert _uniform_dispersion(2) == pytest.approx(1.4674, abs=5e-5)
        assert _uniform_dispersion(3) == pytest.approx(1.3949, abs=5e-5)
        # the flat limit of the first derivative of log Z
        for p in (1, 2, 3, 7):
            assert _uniform_dispersion(p) == -grad_log_partition(p, 0.0)

    @pytest.mark.parametrize("method", ["newton", "halley"])
    @pytest.mark.parametrize("p, d", [(2, 2.0), (3, 1.5), (1, MAX_DISPERSION - 1e-9)])
    def test_cold_and_warm_solves_return_zero_at_once(self, method, p, d):
        cfg = ConcentrationConfig(method=method)
        for start in (None, [3.7e-9], [7.45e-9], [5.0], [0.0]):
            lams, iterations, converged = _concentration_columns([d], p, cfg, start)
            assert (lams[0], iterations[0], converged[0]) == (0.0, 1, True)
        assert concentration_mle(d, p, cfg) == 0.0

    @pytest.mark.parametrize("method", ["newton", "halley"])
    def test_on_the_boundary_and_just_inside(self, method):
        cfg = ConcentrationConfig(method=method)
        for p in (1, 2, 3, 10):
            bound = _uniform_dispersion(p)
            d = np.array([bound, np.nextafter(bound, 0.0), 0.5 * bound])
            lams, iterations, converged = _concentration_columns(d, p, cfg)
            assert converged.all()
            assert lams[0] == 0.0 and iterations[0] == 1
            assert 0.0 < lams[1] < 1e-3 and lams[2] > 0.0


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
